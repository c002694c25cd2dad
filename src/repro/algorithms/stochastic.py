"""The Stochastic algorithm (Section 5.1).

"The Stochastic algorithm randomly orders all the hosts and all the
components.  Then, going in order, it assigns as many components to a given
host as can fit on that host, ensuring that all of the constraints are
satisfied.  Once the host is full, the algorithm proceeds with the same
process for the next host in the ordered list of hosts, and the remaining
unassigned components in the ordered list of components, until all
components have been deployed.  This process is repeated a desired number of
times, and the best obtained deployment is selected."
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.algorithms.base import DeploymentAlgorithm, greedy_fill_deployment
from repro.core.model import DeploymentModel


class StochasticAlgorithm(DeploymentAlgorithm):
    """Random-order constructive search with restarts.

    Each iteration costs one full objective evaluation (O(n^2) in the number
    of interacting pairs, matching the paper's per-iteration complexity
    statement); quality improves with ``iterations`` at linear cost.
    """

    name = "stochastic"

    def __init__(self, objective, constraints=None, seed=None,
                 iterations: int = 100):
        super().__init__(objective, constraints, seed)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations

    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        best: Optional[Dict[str, str]] = None
        best_value = self.objective.worst_value()
        feasible_iterations = 0
        checker = self._checker(model)
        cm = checker.cm
        for __ in range(self.iterations):
            # Shuffling the index lists draws the same permutations as
            # shuffling the id lists: ``random.shuffle`` depends only on
            # the length.
            hosts = list(range(cm.n_hosts))
            components = list(range(cm.n_components))
            self.rng.shuffle(hosts)
            self.rng.shuffle(components)
            assignment = greedy_fill_deployment(checker, hosts, components)
            if assignment is None:
                continue  # this ordering could not place every component
            if not checker.satisfied():
                continue
            feasible_iterations += 1
            deployment = cm.decode(assignment)
            value = self._evaluate(model, deployment)
            if best is None or self.objective.is_better(value, best_value):
                best_value = value
                best = deployment
        extra = {
            "iterations": self.iterations,
            "feasible_iterations": feasible_iterations,
        }
        return best, extra
