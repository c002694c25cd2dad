"""Memoized incremental evaluation and algorithm portfolios.

Two hot-path observations drive this module:

* The analyzer runs *several* redeployment algorithms per improvement cycle
  (Section 4.3) against the same model, and those algorithms keep re-scoring
  the same deployments — the initial deployment, elite genetic individuals,
  revisited local-search states.  :class:`EvaluationEngine` scores
  *encoded* deployments — the per-component host-index list of the
  model's :class:`~repro.algorithms.compiled.CompiledModel` — and memoizes
  each value on ``(objective, tuple(assignment))``.  Algorithms that
  already hold that list (Stochastic's fills, Exact's leaves, Genetic's
  individuals) call :meth:`EvaluationEngine.evaluate_encoded`;
  :meth:`EvaluationEngine.evaluate` encodes a mapping and delegates, so
  both share one memo.  Misses go to the objective's compiled kernel, or
  to ``Objective.evaluate`` when it has none.  Single-component moves are
  routed through an O(degree) delta (the compiled kernel's, or the
  objective's own ``move_delta``) whenever the objective declares
  ``supports_delta``.

* One failing algorithm must not abort the monitor→analyze→effect loop.
  :class:`PortfolioRunner` executes a portfolio of algorithms one after
  another on the calling thread, against one shared memo; failed
  algorithms degrade to a skipped :class:`PortfolioOutcome`, and a per-run
  evaluation budget makes an overrunning algorithm truncate gracefully to
  its best-so-far deployment.

Evaluation counters (cache hits/misses, full vs delta evaluations, budget
state) are recorded into ``AlgorithmResult.extra["engine"]`` so benchmarks
can prove the savings.
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.algorithms.compiled import (
    CompiledModel, Kernel, compile_kernel, compiled_model,
)
from repro.core.constraints import ConstraintSet
from repro.core.errors import AlgorithmError, EvaluationBudgetExceeded
from repro.core.model import DEPLOYMENT_CHANGED, Deployment, DeploymentModel
from repro.core.objectives import Objective
from repro.core.report import ReportBase

AlgorithmFactory = Callable[[], "Any"]


class DeploymentCache:
    """Thread-safe memo of objective values, keyed on (objective, key).

    The key is a deployment's encoded host-index tuple (see
    :meth:`EvaluationEngine.evaluate_encoded`), or the
    :class:`~repro.core.model.Deployment` of a mapping that does not encode.

    The cache binds to one model at a time and registers itself as a model
    listener: any topology or parameter change — in particular monitors
    writing fresh observations through ``set_*_param`` — invalidates every
    entry, so stale values can never be served after the monitored system
    drifts.  ``DEPLOYMENT_CHANGED`` events do *not* invalidate: evaluation
    takes the deployment as an explicit argument, so the model's current
    deployment is irrelevant to cached scores.

    Keys include the objective instance itself, so one cache can be shared
    by a whole portfolio even when algorithms score different objectives
    (e.g. BIP's hard-wired communication cost next to the analyzer's
    availability).
    """

    def __init__(self, max_entries: int = 200_000):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._values: Dict[Tuple[int, Hashable], float] = {}
        # Strong refs to keyed objectives so id() keys cannot be recycled.
        self._objectives: Dict[int, Objective] = {}
        self._model_ref: Optional[weakref.ref] = None
        #: Number of times the whole cache was dropped (model change/rebind).
        self.invalidations = 0

    # -- model binding ------------------------------------------------------
    def _on_model_event(self, event: str, payload: Dict[str, Any]) -> None:
        if event == DEPLOYMENT_CHANGED:
            return
        self.invalidate()

    def bind(self, model: DeploymentModel) -> None:
        """Attach to *model*, dropping entries memoized against another."""
        with self._lock:
            current = self._model_ref() if self._model_ref is not None else None
            if current is model:
                return
            if current is not None:
                with contextlib.suppress(ValueError):
                    current.remove_listener(self._on_model_event)
            self._drop_entries()
            model.add_listener(self._on_model_event)
            self._model_ref = weakref.ref(model)

    def invalidate(self) -> None:
        """Drop every entry (called on any model/parameter mutation)."""
        with self._lock:
            self._drop_entries()

    def _drop_entries(self) -> None:
        if self._values:
            self._values.clear()
            self._objectives.clear()
        self.invalidations += 1

    # -- memo ---------------------------------------------------------------
    def lookup(self, objective: Objective, key: Hashable) -> Optional[float]:
        with self._lock:
            return self._values.get((id(objective), key))

    def store(self, objective: Objective, key: Hashable,
              value: float) -> None:
        with self._lock:
            if len(self._values) >= self.max_entries:
                # Wholesale drop: cheap, and correct for a memo cache.
                self._values.clear()
                self._objectives.clear()
            self._values[(id(objective), key)] = value
            self._objectives[id(objective)] = objective

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)


@dataclass
class EvaluationStats:
    """Per-run evaluation counters, reported in ``AlgorithmResult.extra``."""

    full_evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    delta_evaluations: int = 0
    #: move_delta requests the objective could not serve incrementally
    #: (``supports_delta`` is False) and that fell back to full evaluation.
    delta_fallbacks: int = 0
    #: Full evaluations served by a compiled kernel instead of the
    #: object-path ``Objective.evaluate`` (subset of ``full_evaluations``).
    kernel_evaluations: int = 0
    #: Delta evaluations served by a compiled kernel (subset of
    #: ``delta_evaluations``).
    kernel_deltas: int = 0
    #: ``allows``/``is_satisfied`` queries answered by the run's constraint
    #: checker (compiled or object path) — the search loop's legality work.
    constraint_checks: int = 0
    #: Move candidates whose delta was (re)computed by the search frontier.
    moves_rescored: int = 0
    #: Move candidates served from the frontier's cached score without
    #: rescoring — the work dirty-move invalidation avoided.
    frontier_hits: int = 0
    truncated: bool = False

    @property
    def charged(self) -> int:
        """Budget-charged work: full evaluations plus delta evaluations."""
        return self.full_evaluations + self.delta_evaluations


class EvaluationEngine:
    """Budgeted, memoized evaluation facade over one objective.

    One engine serves one algorithm run at a time (call :meth:`reset`
    between runs); several engines may share a :class:`DeploymentCache`, in
    which case memoized values flow between the algorithms of a portfolio
    while counters and budgets stay per-run.

    Args:
        objective: The objective to score deployments with.
        constraints: Constraint set (carried for callers; evaluation itself
            is unconstrained).
        cache: Shared memo; a private one is created when omitted.
        max_evaluations: Budget on charged evaluations (full + delta) per
            run; ``None`` means unlimited.

    Evaluation routes through the compiled kernels of
    :mod:`repro.algorithms.compiled` when the objective has one (built-in
    objectives do; custom objectives fall back to the object path
    automatically).  Kernel values are bit-compatible with
    ``Objective.evaluate``, so memoized scores mix freely.
    """

    def __init__(self, objective: Objective,
                 constraints: Optional[ConstraintSet] = None, *,
                 cache: Optional[DeploymentCache] = None,
                 max_evaluations: Optional[int] = None):
        self.objective = objective
        self.constraints = constraints if constraints is not None else ConstraintSet()
        self.cache = cache if cache is not None else DeploymentCache()
        self.max_evaluations = max_evaluations
        self.stats = EvaluationStats()
        # (memo key, value, snapshot that decodes an encoded key).
        self._best: Optional[Tuple[Hashable, float, CompiledModel]] = None
        # (model weakref, CompiledModel the kernel was built against,
        #  kernel or None): one kernel per model generation per engine, so
        # stateful kernels are never shared between portfolio members.
        self._kernel_state: Optional[
            Tuple[weakref.ref, CompiledModel, Optional[Kernel]]] = None

    # -- run lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh run: zero the counters and the best-so-far."""
        self.stats = EvaluationStats()
        self._best = None

    def _charge(self) -> None:
        if self.max_evaluations is not None \
                and self.stats.charged >= self.max_evaluations:
            self.stats.truncated = True
            raise EvaluationBudgetExceeded(
                f"{self.objective.name}: evaluation budget "
                f"{self.max_evaluations} exhausted")

    # -- compiled-kernel routing --------------------------------------------
    def _compiled_for(self, model: DeploymentModel,
                      ) -> Tuple[CompiledModel, Optional[Kernel]]:
        """*model*'s current snapshot and the engine's kernel for it.

        Compiles at most once per (engine, model generation): the model
        snapshot itself is shared process-wide through
        :func:`~repro.algorithms.compiled.compiled_model`, while the kernel
        (which may hold per-base accumulator state) stays private to this
        engine.  The kernel is None when the objective has no registered
        kernel — callers then use the object path.

        A snapshot that is not ``stale`` is still the model's current one
        (``compiled_model`` replaces only stale snapshots), so the cached
        pair is returned without taking the snapshot cache's lock.
        """
        cached = self._kernel_state
        if cached is not None and not cached[1].stale \
                and cached[0]() is model:
            return cached[1], cached[2]
        snapshot = compiled_model(model)
        kernel = compile_kernel(self.objective, snapshot)
        self._kernel_state = (weakref.ref(model), snapshot, kernel)
        return snapshot, kernel

    # -- evaluation ---------------------------------------------------------
    def evaluate_encoded(self, model: DeploymentModel,
                         assignment: Sequence[int]) -> float:
        """Memoized objective value of an encoded deployment.

        *assignment* is the host index of every component of the model's
        :class:`~repro.algorithms.compiled.CompiledModel` (``UNDEPLOYED``
        for a component left out).  Cache hits are free; misses are
        charged against the budget and served by the objective's compiled
        kernel, or by ``Objective.evaluate`` on the decoded mapping when
        the objective has none.
        """
        return self._score(model, tuple(assignment), None, True)

    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str], *,
                 charge: bool = True) -> float:
        """:meth:`evaluate_encoded` for a deployment mapping.

        The mapping is encoded, so it shares memo entries with its encoded
        form.  Only a mapping that names a host unknown to the model's
        snapshot keeps a :class:`~repro.core.model.Deployment` key and is
        scored by ``Objective.evaluate``.
        """
        encoded = self._compiled_for(model)[0].encode(deployment)
        if encoded is None:
            key: Hashable = (deployment if isinstance(deployment, Deployment)
                             else Deployment(deployment))
        else:
            key = tuple(encoded)
        return self._score(model, key, deployment, charge)

    def _score(self, model: DeploymentModel, key: Hashable,
               deployment: Optional[Mapping[str, str]],
               charge: bool) -> float:
        """Memo lookup, then kernel or object-path scoring on a miss.

        *key* is an encoded tuple or, for an unencodable mapping, its
        ``Deployment``; a custom objective is handed *deployment* when the
        caller has one, else the decoded key.
        """
        self.cache.bind(model)
        cached = self.cache.lookup(self.objective, key)
        if cached is not None:
            self.stats.cache_hits += 1
            self._track_best(model, key, cached)
            return cached
        if charge:
            self._charge()
        self.stats.cache_misses += 1
        self.stats.full_evaluations += 1
        compiled, kernel = self._compiled_for(model)
        if isinstance(key, Deployment):
            value = self.objective.evaluate(model, key)
        elif kernel is not None:
            value = kernel.evaluate(key)
            self.stats.kernel_evaluations += 1
        else:
            value = self.objective.evaluate(
                model, compiled.decode(key) if deployment is None
                else deployment)
        self.cache.store(self.objective, key, value)
        self._track_best(model, key, value)
        return value

    def move_delta(self, model: DeploymentModel,
                   deployment: Mapping[str, str], component: str,
                   new_host: str) -> float:
        """Objective change for one component move.

        Routed through the objective's compiled kernel when one exists,
        else its O(degree) ``move_delta`` when it declares
        ``supports_delta``; otherwise served by two (memoized) full
        evaluations.
        """
        if getattr(self.objective, "supports_delta", False):
            self._charge()
            self.stats.delta_evaluations += 1
            kernel = self._compiled_for(model)[1]
            if kernel is not None and kernel.supports_delta:
                compiled = kernel.cm
                component_index = compiled.component_index.get(component)
                host_index = compiled.host_index.get(new_host)
                if component_index is not None and host_index is not None:
                    assignment = compiled.encode(deployment)
                    if assignment is not None:
                        self.stats.kernel_deltas += 1
                        return kernel.move_delta(assignment, component_index,
                                                 host_index)
            return self.objective.move_delta(model, deployment, component,
                                             new_host)
        self.stats.delta_fallbacks += 1
        base = self.evaluate(model, deployment)
        moved = dict(deployment)
        moved[component] = new_host
        return self.evaluate(model, moved) - base

    def move_delta_indexed(self, model: DeploymentModel,
                           deployment: Mapping[str, str],
                           assignment: Sequence[int], component_index: int,
                           host_index: int) -> float:
        """:meth:`move_delta` for callers that maintain the encoded form.

        ``repro.algorithms.search.SearchState`` keeps *assignment* (the
        compiled host-index array) in lock-step with *deployment*, so the
        per-call ``CompiledModel.encode`` — O(components) — is skipped and
        a kernel delta costs only O(degree).  Budget charging and counters
        are identical to :meth:`move_delta`.
        """
        if getattr(self.objective, "supports_delta", False):
            self._charge()
            self.stats.delta_evaluations += 1
            kernel = self._compiled_for(model)[1]
            if kernel is not None and kernel.supports_delta:
                self.stats.kernel_deltas += 1
                return kernel.move_delta(assignment, component_index,
                                         host_index)
            compiled = compiled_model(model)
            return self.objective.move_delta(
                model, deployment, compiled.component_ids[component_index],
                compiled.host_ids[host_index])
        compiled = compiled_model(model)
        self.stats.delta_fallbacks += 1
        base = self.evaluate(model, deployment)
        moved = dict(deployment)
        moved[compiled.component_ids[component_index]] = \
            compiled.host_ids[host_index]
        return self.evaluate(model, moved) - base

    # -- best-so-far (graceful truncation) ----------------------------------
    def _track_best(self, model: DeploymentModel, key: Hashable,
                    value: float) -> None:
        if self._best is None or self.objective.is_better(value,
                                                          self._best[1]):
            self._best = (key, value, self._compiled_for(model)[0])

    def best_seen(self) -> Optional[Tuple[Deployment, float]]:
        """Best fully-evaluated deployment of this run (for truncation)."""
        if self._best is None:
            return None
        key, value, compiled = self._best
        if not isinstance(key, Deployment):
            key = Deployment(compiled.decode(key))
        return key, value

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Counters + budget state, merged into ``AlgorithmResult.extra``."""
        return {
            "full_evaluations": self.stats.full_evaluations,
            "cache_hits": self.stats.cache_hits,
            "cache_misses": self.stats.cache_misses,
            "delta_evaluations": self.stats.delta_evaluations,
            "delta_fallbacks": self.stats.delta_fallbacks,
            "kernel_evaluations": self.stats.kernel_evaluations,
            "kernel_deltas": self.stats.kernel_deltas,
            "constraint_checks": self.stats.constraint_checks,
            "moves_rescored": self.stats.moves_rescored,
            "frontier_hits": self.stats.frontier_hits,
            "supports_delta": bool(getattr(self.objective, "supports_delta",
                                           False)),
            "truncated": self.stats.truncated,
            "max_evaluations": self.max_evaluations,
        }

    def __repr__(self) -> str:
        return (f"EvaluationEngine(objective={self.objective.name}, "
                f"cache={len(self.cache)} entries, "
                f"charged={self.stats.charged})")


# ---------------------------------------------------------------------------
# Portfolio execution
# ---------------------------------------------------------------------------

#: Outcome statuses.
OK = "ok"
SKIPPED = "skipped"     # AlgorithmError (e.g. exact's space guard, no valid)
ERROR = "error"         # unexpected exception inside the algorithm


@dataclass
class PortfolioOutcome:
    """One algorithm's fate within a portfolio run."""

    name: str
    status: str
    result: Optional[Any] = None  # AlgorithmResult when status == OK
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass
class PortfolioReport(ReportBase):
    """All outcomes of one portfolio run, in submission order."""

    outcomes: List[PortfolioOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    def results(self) -> List[Any]:
        return [o.result for o in self.outcomes if o.result is not None]

    def outcome(self, name: str) -> PortfolioOutcome:
        for candidate in self.outcomes:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    @property
    def succeeded(self) -> Tuple[str, ...]:
        return tuple(o.name for o in self.outcomes if o.ok)

    @property
    def degraded(self) -> Tuple[str, ...]:
        return tuple(o.name for o in self.outcomes if not o.ok)

    def counters(self) -> Dict[str, int]:
        """Aggregate engine counters across the portfolio's results."""
        totals = {"full_evaluations": 0, "cache_hits": 0, "cache_misses": 0,
                  "delta_evaluations": 0, "delta_fallbacks": 0,
                  "kernel_evaluations": 0, "kernel_deltas": 0,
                  "constraint_checks": 0, "moves_rescored": 0,
                  "frontier_hits": 0}
        for outcome in self.outcomes:
            if outcome.result is None:
                continue
            engine = outcome.result.extra.get("engine", {})
            for key in totals:
                totals[key] += int(engine.get(key, 0))
        return totals

    def summary_line(self) -> str:
        parts = [f"{o.name}:{o.status}" for o in self.outcomes]
        return f"portfolio[{', '.join(parts)}] in {self.elapsed * 1000:.1f} ms"

    def to_dict(self, include_timing: bool = True,
                **opts: Any) -> Dict[str, Any]:
        outcomes = []
        for o in self.outcomes:
            entry: Dict[str, Any] = {"name": o.name, "status": o.status,
                                     "error": o.error}
            if o.result is not None:
                entry["result"] = o.result.to_dict(
                    include_timing=include_timing)
            if include_timing:
                entry["elapsed"] = o.elapsed
            outcomes.append(entry)
        payload: Dict[str, Any] = {"outcomes": outcomes,
                                   "counters": self.counters()}
        if include_timing:
            payload["elapsed"] = self.elapsed
        return payload

    def render(self, **opts: Any) -> str:
        lines = [self.summary_line()]
        for o in self.outcomes:
            if o.result is not None:
                lines.append(f"  {o.result.summary_line()}")
            else:
                lines.append(f"  {o.name}: {o.status}"
                             + (f" ({o.error})" if o.error else ""))
        return "\n".join(lines)


class PortfolioRunner:
    """Run a portfolio of algorithms against one model.

    Every algorithm gets a fresh instance (from its factory) and a private
    :class:`EvaluationEngine`; all engines share one
    :class:`DeploymentCache`, so a deployment scored by any portfolio
    member is free for every other member — and for later runs of the same
    runner, until the model changes.

    The members run one after another on the calling thread, in submission
    order: they are pure Python, so under the GIL a thread pool could not
    overlap their work, and the serial order makes every engine counter
    deterministic.  A member's cost is bounded by its evaluation budget,
    never by the wall clock.

    Args:
        max_evaluations: Per-algorithm engine budget on charged
            evaluations (None = unlimited).
        cache: Shared memo; a private persistent one is created when
            omitted.
    """

    def __init__(self, *, max_evaluations: Optional[int] = None,
                 cache: Optional[DeploymentCache] = None):
        self.max_evaluations = max_evaluations
        self.cache = cache if cache is not None else DeploymentCache()

    # ------------------------------------------------------------------
    def _run_one(self, name: str, factory: AlgorithmFactory,
                 model: DeploymentModel,
                 initial: Optional[Mapping[str, str]]) -> PortfolioOutcome:
        started = time.perf_counter()
        try:
            algorithm = factory()
            engine = EvaluationEngine(
                algorithm.objective, algorithm.constraints, cache=self.cache,
                max_evaluations=self.max_evaluations)
            result = algorithm.run(model, initial=initial, engine=engine)
            return PortfolioOutcome(name, OK, result=result,
                                    elapsed=time.perf_counter() - started)
        except AlgorithmError as exc:
            return PortfolioOutcome(name, SKIPPED, error=str(exc),
                                    elapsed=time.perf_counter() - started)
        except Exception as exc:  # noqa: BLE001 — degrade, never abort
            return PortfolioOutcome(name, ERROR,
                                    error=f"{type(exc).__name__}: {exc}",
                                    elapsed=time.perf_counter() - started)

    def run(self, model: DeploymentModel,
            factories: Mapping[str, AlgorithmFactory],
            initial: Optional[Mapping[str, str]] = None) -> PortfolioReport:
        """Execute every factory against *model*; never raises per-algorithm
        failures — each is captured as a degraded outcome."""
        started = time.perf_counter()
        report = PortfolioReport()
        for name, factory in factories.items():
            report.outcomes.append(self._run_one(name, factory, model,
                                                 initial))
        report.elapsed = time.perf_counter() - started
        return report
