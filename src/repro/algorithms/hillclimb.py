"""Hill-climbing refinement over single-component moves.

Not one of the paper's named algorithms, but the simplest demonstration of
the framework's algorithm pluggability (Section 4.3): a new main body reusing
the same ObjectiveQuantifier and ConstraintChecker.  It is also the analyzer's
cheap "immediate improvement" option for unstable systems, and the refinement
stage the annealing/genetic extensions share.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.algorithms.base import DeploymentAlgorithm, random_valid_deployment
from repro.core.model import DeploymentModel


class HillClimbingAlgorithm(DeploymentAlgorithm):
    """Steepest-ascent local search over one-component relocations.

    Starts from the model's current deployment when it is valid (so the
    result is reachable with few moves — cheap to effect), otherwise from a
    random valid deployment.  Each round takes the best strictly-improving
    (component, host) move allowed by the constraints — served by the
    incremental :class:`~repro.algorithms.search.SearchState` frontier, so
    only moves invalidated by the previous step are re-scored; terminates
    at a local optimum or after ``max_rounds``.
    """

    name = "hillclimb"

    def __init__(self, objective, constraints=None, seed=None,
                 max_rounds: int = 1000):
        super().__init__(objective, constraints, seed)
        self.max_rounds = max_rounds

    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        assignment: Optional[Dict[str, str]] = None
        if (len(initial) == len(model.component_ids)
                and self.constraints.is_satisfied(model, initial)):
            assignment = dict(initial)
        else:
            assignment = random_valid_deployment(self._checker(model),
                                                 self.rng)
        if assignment is None:
            return None, {"rounds": 0}

        state = self._search_state(model, assignment)
        rounds = 0
        moves_taken = 0
        for rounds in range(1, self.max_rounds + 1):
            step = state.best_move()
            if step is None:
                break  # local optimum
            ci, hi, __ = step
            state.apply(ci, hi)
            moves_taken += 1
        return state.cm.decode(state.array), {
            "rounds": rounds, "moves_taken": moves_taken,
            "moves": list(state.moves)}
