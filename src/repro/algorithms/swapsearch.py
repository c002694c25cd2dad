"""Kernighan-Lin-style swap search (framework-extension algorithm).

Single-component relocation (hill-climb) gets stuck when every host is
full: no component can move anywhere, even though *exchanging* two
components across hosts would help.  Swap search explores exactly that
neighborhood — the classic Kernighan-Lin move for balanced partitioning —
making it the right local search under tight memory, where the paper's
scenarios (memory-poor PDAs) live.

Each round considers all single moves *and* all pairwise swaps, taking the
best strictly-improving step.  Swap feasibility is checked against the
constraint set with each component hypothetically removed from its side, so
memory-exact configurations remain searchable.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.algorithms.base import DeploymentAlgorithm, random_valid_deployment
from repro.core.model import DeploymentModel


class SwapSearchAlgorithm(DeploymentAlgorithm):
    """Steepest-ascent search over single moves and pairwise swaps."""

    name = "swapsearch"

    def __init__(self, objective, constraints=None, seed=None,
                 max_rounds: int = 500):
        super().__init__(objective, constraints, seed)
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    def _gain(self, delta: float) -> float:
        return delta if self.objective.direction == "max" else -delta

    # ------------------------------------------------------------------
    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        if (len(initial) == len(model.component_ids)
                and self.constraints.is_satisfied(model, initial)):
            assignment = dict(initial)
        else:
            assignment = random_valid_deployment(self._checker(model),
                                                 self.rng)
        if assignment is None:
            return None, {"rounds": 0}

        state = self._search_state(model, assignment)
        indices = range(state.cm.n_components)
        array = state.array
        moves_taken = swaps_taken = 0
        rounds = 0
        for rounds in range(1, self.max_rounds + 1):
            # Single moves come from the incremental frontier; the best
            # single move seeds the threshold the swap scan must beat, which
            # reproduces the historical flat moves-then-swaps scan exactly.
            best_gain = 1e-12
            best_action: Optional[Tuple[str, int, int]] = None
            step = state.best_move()
            if step is not None:
                ci, hi, delta = step
                best_gain = self._gain(delta)
                best_action = ("move", ci, hi)
            # Pairwise swaps (only across distinct hosts).
            for i, ca in enumerate(indices):
                for cb in indices[i + 1:]:
                    if array[ca] == array[cb]:
                        continue
                    if not state.swap_allowed(ca, cb):
                        continue
                    gain = self._gain(state.swap_delta(ca, cb))
                    if gain > best_gain:
                        best_gain = gain
                        best_action = ("swap", ca, cb)
            if best_action is None:
                break
            if best_action[0] == "move":
                __, ci, hi = best_action
                state.apply(ci, hi)
                moves_taken += 1
            else:
                __, ca, cb = best_action
                state.apply_swap(ca, cb)
                swaps_taken += 1
        return state.cm.decode(state.array), {
            "rounds": rounds, "moves_taken": moves_taken,
            "swaps_taken": swaps_taken, "moves": list(state.moves)}
