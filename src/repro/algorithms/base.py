"""Algorithm plumbing shared by all redeployment algorithms.

Figure 7 of the paper decomposes an algorithm into a *main body* (the search
strategy — greedy, genetic, ...), an *ObjectiveQuantifier*, a
*ConstraintChecker*, and (for decentralized algorithms) a
*CoordinationImplementation*.  Here:

* the main body is a :class:`DeploymentAlgorithm` subclass;
* the objective quantifier is a :class:`repro.core.objectives.Objective`;
* the constraint checker is a :class:`repro.core.constraints.ConstraintSet`;
* coordination lives in :mod:`repro.decentralized` and is injected into the
  decentralized algorithms.

Every run returns an :class:`AlgorithmResult` carrying the fields DeSi's
``AlgoResultData`` records: the estimated deployment, the achieved objective
value, the algorithm's running time, and the estimated cost of effecting the
redeployment.
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.algorithms.compiled import UNDEPLOYED
from repro.core.constraints import ConstraintSet
from repro.core.errors import (
    AlgorithmError, EvaluationBudgetExceeded, NoValidDeploymentError,
)
from repro.core.model import Deployment, DeploymentModel
from repro.core.objectives import Objective
from repro.core.report import ReportBase

if TYPE_CHECKING:  # engine imports base; keep the runtime import lazy
    from repro.algorithms.engine import EvaluationEngine


@dataclass
class AlgorithmResult(ReportBase):
    """Outcome of one algorithm run (DeSi's AlgoResultData record)."""

    algorithm: str
    deployment: Deployment
    value: float
    objective: str
    valid: bool
    elapsed: float
    evaluations: int
    #: Number of component moves needed to reach ``deployment`` from the
    #: deployment that was current when the algorithm started — DeSi's
    #: "estimated time to effect a redeployment" proxy.
    moves_from_initial: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def summary_line(self) -> str:
        return (f"{self.algorithm}: {self.objective}={self.value:.4f} "
                f"({'valid' if self.valid else 'INVALID'}, "
                f"{self.elapsed * 1000:.1f} ms, {self.evaluations} evals, "
                f"{self.moves_from_initial} moves)")

    def to_dict(self, include_timing: bool = True,
                **opts: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "deployment": self.deployment.as_dict(),
            "value": self.value,
            "objective": self.objective,
            "valid": self.valid,
            "evaluations": self.evaluations,
            "moves_from_initial": self.moves_from_initial,
            "extra": dict(self.extra),
        }
        if include_timing:
            payload["elapsed"] = self.elapsed
        return payload

    def render(self, **opts: Any) -> str:
        return self.summary_line()


class DeploymentAlgorithm(ABC):
    """Base class for all (re)deployment algorithms.

    Subclasses implement :meth:`_search` and report the deployments they
    score through :meth:`_evaluate` (:meth:`_evaluate_encoded` for a
    host-index list) so evaluation counting and timing are uniform.  The
    public entry point is :meth:`run`.
    """

    #: Short name used in analyzer logs, DeSi result tables, and benches.
    name: str = "abstract"
    #: Whether the algorithm guarantees an optimal deployment.
    exact: bool = False
    #: Whether the algorithm is decentralized (Section 3.1's taxonomy).
    decentralized: bool = False

    def __init__(self, objective: Objective,
                 constraints: Optional[ConstraintSet] = None,
                 seed: Optional[int] = None):
        self.objective = objective
        self.constraints = constraints if constraints is not None else ConstraintSet()
        self.rng = random.Random(seed)
        self._evaluations = 0
        self._engine: Optional["EvaluationEngine"] = None

    # ------------------------------------------------------------------
    def run(self, model: DeploymentModel,
            initial: Optional[Mapping[str, str]] = None,
            engine: Optional["EvaluationEngine"] = None) -> AlgorithmResult:
        """Search for an improved deployment of *model*.

        Args:
            model: The deployment model to improve.
            initial: The deployment to measure movement cost against;
                defaults to the model's current deployment.
            engine: Evaluation engine to score deployments through.  A
                private one is created when omitted; portfolio callers pass
                a budgeted engine sharing a memo cache across algorithms.

        Returns:
            The best deployment found.  ``result.valid`` is False only when
            the algorithm could not find any constraint-satisfying
            deployment and fell back to its best-effort answer.  When the
            engine's budget runs out mid-search, the run degrades to the
            best deployment scored so far (``extra["engine"]["truncated"]``
            is set) instead of failing.
        """
        if not model.component_ids:
            raise AlgorithmError(f"{self.name}: model has no components")
        if not model.host_ids:
            raise AlgorithmError(f"{self.name}: model has no hosts")
        if initial is None:
            initial = model.deployment
        if engine is None:
            from repro.algorithms.engine import EvaluationEngine
            engine = EvaluationEngine(self.objective, self.constraints)
        self._engine = engine
        engine.reset()
        self._evaluations = 0
        start = time.perf_counter()
        try:
            deployment, extra = self._search(model, dict(initial))
        except EvaluationBudgetExceeded:
            # Graceful truncation: fall back to the best deployment the
            # engine fully evaluated before the budget ran out.
            best = engine.best_seen()
            if best is None:
                raise NoValidDeploymentError(
                    f"{self.name}: evaluation budget exhausted before any "
                    "deployment was scored") from None
            deployment, extra = best[0], {"truncated": True}
        finally:
            self._engine = None
        elapsed = time.perf_counter() - start
        if deployment is None:
            raise NoValidDeploymentError(
                f"{self.name}: no deployment satisfies the constraints")
        final = Deployment(deployment)
        value = engine.evaluate(model, final, charge=False)
        valid = self.constraints.is_satisfied(model, final)
        moves = sum(1 for c in final
                    if c in initial and initial[c] != final[c])
        extra = dict(extra)
        extra["engine"] = engine.snapshot()
        return AlgorithmResult(
            algorithm=self.name,
            deployment=final,
            value=value,
            objective=self.objective.name,
            valid=valid,
            elapsed=elapsed,
            evaluations=self._evaluations,
            moves_from_initial=moves,
            extra=extra,
        )

    @abstractmethod
    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        """Produce (best deployment or None, extra stats)."""

    # ------------------------------------------------------------------
    def _evaluate(self, model: DeploymentModel,
                  deployment: Mapping[str, str]) -> float:
        """Score a full deployment through the run's memoizing engine."""
        self._evaluations += 1
        return self._engine.evaluate(model, deployment)

    def _evaluate_encoded(self, model: DeploymentModel,
                          assignment: Sequence[int]) -> float:
        """:meth:`_evaluate` for a compiled host-index assignment."""
        self._evaluations += 1
        return self._engine.evaluate_encoded(model, assignment)

    def _count_evaluation(self, n: int = 1) -> None:
        """Record *n* incremental (delta-based) evaluations."""
        self._evaluations += n

    def _checker(self, model: DeploymentModel):
        """A constraint checker for *model* (compiled when possible)."""
        from repro.algorithms.search import make_checker
        return make_checker(model, self.constraints, self._engine.stats)

    def _search_state(self, model: DeploymentModel,
                      assignment: Mapping[str, str]):
        """An incremental :class:`~repro.algorithms.search.SearchState`
        seeded with *assignment*, wired into this run's engine and
        evaluation counter."""
        from repro.algorithms.search import SearchState
        return SearchState(model, self.constraints, self._engine,
                           assignment, count=self._count_evaluation)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(objective={self.objective.name}, "
                f"constraints={len(self.constraints)})")


def random_valid_deployment(checker: Any, rng: random.Random,
                            max_attempts: int = 200,
                            ) -> Optional[Dict[str, str]]:
    """Build a random constraint-satisfying deployment, or None.

    This is one iteration of the Stochastic algorithm's inner loop (and the
    seeding step for the annealing/genetic extensions): order hosts and
    components randomly, then place each component on the first host (in the
    random order) that *checker* (from
    :func:`repro.algorithms.search.make_checker`) allows.  The mapping
    lists components in placement order; the checker is left holding the
    last attempt.
    """
    cm = checker.cm
    for __ in range(max_attempts):
        # ``random.shuffle`` draws depend only on the length, so these are
        # the permutations of the model's id lists.
        hosts = list(range(cm.n_hosts))
        components = list(range(cm.n_components))
        rng.shuffle(hosts)
        rng.shuffle(components)
        assignment: Dict[str, str] = {}
        checker.reset(())
        feasible = True
        for ci in components:
            for hi in hosts:
                if checker.allows_index(ci, hi):
                    assignment[cm.component_ids[ci]] = cm.host_ids[hi]
                    checker.place_index(ci, hi)
                    break
            else:
                feasible = False
                break
        if feasible and checker.satisfied():
            return assignment
    return None


def greedy_fill_deployment(checker: Any, hosts: Sequence[int],
                           components: Sequence[int],
                           ) -> Optional[List[int]]:
    """Assign *components* to *hosts* in the given orders, host by host.

    "Going in order, it assigns as many components to a given host as can
    fit on that host ... Once the host is full, the algorithm proceeds with
    the same process for the next host" (Section 5.1, Stochastic).

    Works on the compiled index space of *checker* (from
    :func:`repro.algorithms.search.make_checker`): *hosts* and *components*
    are host and component indices, and the result is the host index of
    every component (``checker.cm.decode`` turns it into a mapping), or
    None when some component fits nowhere.  The checker is reset to empty
    first and left holding the fill; every probe is counted in
    ``constraint_checks``, once per fill.
    """
    checker.reset(())
    probe = checker.probe_index
    place = checker.place_index
    assignment = [UNDEPLOYED] * checker.cm.n_components
    remaining = list(components)
    probes = 0
    for hi in hosts:
        probes += len(remaining)
        still_remaining = []
        for ci in remaining:
            if probe(ci, hi):
                assignment[ci] = hi
                place(ci, hi)
            else:
                still_remaining.append(ci)
        remaining = still_remaining
        if not remaining:
            break
    checker.stats.constraint_checks += probes
    return None if remaining else assignment
