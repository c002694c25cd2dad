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
from repro.algorithms.search import GAIN_EPS
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
        moves_taken = swaps_taken = 0
        rounds = 0
        for rounds in range(1, self.max_rounds + 1):
            # Single moves come from the incremental frontier; the best
            # single move sets the threshold a swap must beat, which
            # reproduces the historical flat moves-then-swaps scan exactly.
            step = state.best_move()
            swap = state.best_swap(
                GAIN_EPS if step is None else self._gain(step[2]))
            if swap is not None:
                state.apply_swap(swap[0], swap[1])
                swaps_taken += 1
            elif step is not None:
                state.apply(step[0], step[1])
                moves_taken += 1
            else:
                break
        return state.cm.decode(state.array), {
            "rounds": rounds, "moves_taken": moves_taken,
            "swaps_taken": swaps_taken, "moves": list(state.moves)}
