"""The Exact algorithm (Section 5.1).

"The Exact algorithm tries every possible deployment, and selects the one
that results in maximum availability and satisfies the constraints posed by
the memory, bandwidth, and restrictions on software component locations.
The Exact algorithm guarantees at least one optimal deployment (assuming
that at least one deployment is possible).  The complexity of this algorithm
in the general case ... is O(k^n) ... By fixing a subset of m components to
selected hosts, the complexity reduces to O(k^(n-m))."

The implementation is a depth-first enumeration over component-to-host
assignments, placed and undone on the run's constraint checker (compiled
when every constraint type allows it).  Partial assignments that the
checker already rules out are pruned, which realizes the O(k^(n-m))
reduction for fixed components (a :func:`repro.core.constraints.fix_component`
constraint leaves exactly one viable branch for that component) without
giving up optimality: pruning only removes branches that cannot yield
*valid* deployments.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.compiled import UNDEPLOYED
from repro.core.errors import AlgorithmError
from repro.core.model import DeploymentModel


class ExactAlgorithm(DeploymentAlgorithm):
    """Exhaustive optimal search — exponential, for small systems only.

    Args:
        objective: Criterion to optimize.
        constraints: Hard constraints; used both for final validity and for
            pruning partial assignments.
        max_space: Guard against accidental use on large systems: the run
            aborts up front when ``k ** n`` exceeds this bound (the paper
            deems Exact usable only around 5 hosts x 15 components).
        prune: Disable to measure the unpruned O(k^n) enumeration in the
            complexity bench.
    """

    name = "exact"
    exact = True

    def __init__(self, objective, constraints=None, seed=None,
                 max_space: float = 5e7, prune: bool = True):
        super().__init__(objective, constraints, seed)
        self.max_space = max_space
        self.prune = prune

    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        hosts = model.host_ids
        components = model.component_ids
        space = float(len(hosts)) ** len(components)
        if space > self.max_space:
            raise AlgorithmError(
                f"exact: search space {len(hosts)}^{len(components)} = "
                f"{space:.3g} exceeds max_space={self.max_space:.3g}; "
                "use an approximative algorithm for systems this large")

        checker = self._checker(model)
        checker.reset(())
        cm = checker.cm
        best_value = self.objective.worst_value()
        best: Optional[List[int]] = None
        visited_leaves = 0
        pruned_branches = 0
        # Mirrors the checker's placements as host indices, for scoring.
        assignment = [UNDEPLOYED] * cm.n_components

        def descend(ci: int) -> None:
            nonlocal best_value, best, visited_leaves, pruned_branches
            if ci == cm.n_components:
                visited_leaves += 1
                if not checker.satisfied():
                    return
                value = self._evaluate_encoded(model, assignment)
                if best is None or self.objective.is_better(value, best_value):
                    best_value = value
                    best = list(assignment)
                return
            for hi in range(cm.n_hosts):
                if self.prune and not checker.allows_index(ci, hi):
                    pruned_branches += 1
                    continue
                token = checker.place_index(ci, hi)
                assignment[ci] = hi
                descend(ci + 1)
                checker.undo(token)

        descend(0)
        extra = {
            "search_space": space,
            "visited_leaves": visited_leaves,
            "pruned_branches": pruned_branches,
            "optimal": best is not None,
        }
        return (None if best is None else cm.decode(best)), extra
