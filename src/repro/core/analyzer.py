"""The Analyzer: meta-level decision making over algorithms and results.

Section 3.1: "Analyzers are meta-level algorithms that leverage the results
obtained from the algorithm(s) and the model to determine a course of action
for satisfying the system's overall objective ... Analyzers may also hold
the history of the system's execution by logging fluctuations of the desired
objectives and the parameters of interest."

Section 5.1 gives the concrete policy this module implements:

* **size of the architecture** — Exact only for very small systems (on the
  order of 5 hosts and 15 components);
* **the system's availability profile** — "the analyzer selects a more
  expensive algorithm to run if the system is stable ... if the system is
  unstable, the analyzer runs a less expensive algorithm that could produce
  faster results";
* **the system's overall latency** — "in rare situations where [latency
  also improves] is not the case, the analyzer either disallows the results
  of the algorithms to take effect or modifies the solution".

Analyzers can also reconfigure the framework (add/remove algorithms at run
time) through ``Analyzer.registry``, an
:class:`~repro.core.registry.AlgorithmRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.algorithms import (
    AlgorithmResult, AvalaAlgorithm, ExactAlgorithm, HillClimbingAlgorithm,
    StochasticAlgorithm,
)
from repro.algorithms.engine import (
    DeploymentCache, EvaluationEngine, PortfolioReport, PortfolioRunner,
)
from repro.core.constraints import ConstraintSet
from repro.core.effector import RedeploymentPlan, plan_redeployment
from repro.core.errors import ScheduleError
from repro.core.model import Deployment, DeploymentModel
from repro.core.objectives import Objective
from repro.core.registry import AlgorithmRegistry
from repro.obs import Observability, get_observability

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.plan.planner import MigrationPlanner


class ObjectiveHistory:
    """Time series of an objective's observed values — the paper's
    "system's availability profile"."""

    def __init__(self, max_samples: int = 1000):
        self.samples: List[Tuple[float, float]] = []
        self.max_samples = max_samples

    def record(self, time: float, value: float) -> None:
        self.samples.append((time, value))
        if len(self.samples) > self.max_samples:
            del self.samples[: len(self.samples) - self.max_samples]

    def volatility(self, window: int = 5) -> Optional[float]:
        """Spread (max - min) of the last *window* samples; None when the
        profile is too short to judge."""
        if len(self.samples) < window:
            return None
        recent = [value for __, value in self.samples[-window:]]
        return max(recent) - min(recent)

    def is_stable(self, threshold: float, window: int = 5) -> Optional[bool]:
        spread = self.volatility(window)
        if spread is None:
            return None
        return spread < threshold

    @property
    def latest(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None


@dataclass
class Decision:
    """Outcome of one analysis cycle."""

    action: str  # "redeploy" or "no_action"
    reason: str
    current_value: float
    selected: Optional[AlgorithmResult] = None
    plan: Optional[RedeploymentPlan] = None
    candidates: List[AlgorithmResult] = field(default_factory=list)
    algorithms_run: List[str] = field(default_factory=list)
    guard_values: Dict[str, float] = field(default_factory=dict)
    #: Full per-algorithm outcome record (ok/skipped/error) of the
    #: portfolio run behind this decision.
    portfolio: Optional[PortfolioReport] = None

    @property
    def will_redeploy(self) -> bool:
        return self.action == "redeploy"

    def summary(self) -> str:
        head = f"{self.action} ({self.reason})"
        if self.selected is not None:
            head += f"; best={self.selected.summary_line()}"
        return head

    def to_dict(self) -> Dict[str, Any]:
        return {
            "action": self.action,
            "reason": self.reason,
            "current_value": self.current_value,
            "selected": (None if self.selected is None
                         else self.selected.to_dict()),
            "plan": (None if self.plan is None else self.plan.summary()),
            "algorithms_run": list(self.algorithms_run),
            "guard_values": dict(self.guard_values),
        }


class Analyzer:
    """Centralized analyzer implementing the Section 5.1 policy.

    Args:
        objective: The primary objective (e.g. availability).
        constraints: Hard constraints passed to every algorithm.
        latency_guard: Secondary minimize-objective used as a veto
            (typically :class:`LatencyObjective`); ``None`` disables the
            guard.
        exact_host_limit / exact_component_limit: Architecture size under
            which the Exact algorithm is considered.
        stability_threshold: Profile spread below which the system counts
            as stable.
        stability_window: Number of profile samples the spread is taken
            over.
        min_improvement: Smallest objective improvement worth a
            redeployment.
        guard_tolerance: Allowed multiplicative worsening of the guard
            objective (1.10 = up to 10% worse latency is acceptable).
        seed: Seed handed to the stock algorithms.
        evaluation_budget: Per-algorithm cap on charged objective
            evaluations per cycle (graceful truncation).
        planner: Optional :class:`repro.plan.MigrationPlanner`; when set,
            redeploy decisions carry a wave schedule whose predicted
            makespan and disruption volume feed the guard values.
        max_makespan: Veto threshold on the schedule's predicted makespan
            in simulated seconds; ``None`` disables the veto.
    """

    #: Cost tiers of the Section-5.1 selection policy.
    TIERS = ("exact", "thorough", "fast")

    def __init__(self, objective: Objective,
                 constraints: Optional[ConstraintSet] = None,
                 latency_guard: Optional[Objective] = None,
                 exact_host_limit: int = 5,
                 exact_component_limit: int = 15,
                 stability_threshold: float = 0.05,
                 stability_window: int = 5,
                 min_improvement: float = 0.01,
                 guard_tolerance: float = 1.10,
                 seed: Optional[int] = None,
                 evaluation_budget: Optional[int] = None,
                 planner: Optional["MigrationPlanner"] = None,
                 max_makespan: Optional[float] = None,
                 obs: Optional[Observability] = None):
        self.obs = obs if obs is not None else get_observability()
        self.planner = planner
        self.max_makespan = max_makespan
        self.objective = objective
        self.constraints = constraints if constraints is not None else ConstraintSet()
        self.latency_guard = latency_guard
        self.exact_host_limit = exact_host_limit
        self.exact_component_limit = exact_component_limit
        self.stability_threshold = stability_threshold
        self.stability_window = stability_window
        self.min_improvement = min_improvement
        self.guard_tolerance = guard_tolerance
        self.seed = seed
        self.history = ObjectiveHistory()
        self.decisions: List[Decision] = []
        self.redeployments_effected = 0
        # Pluggable algorithm suite, grouped by cost tier (the analyzer
        # "determin[es] the best configuration for the tool" by editing
        # the registry at run time).
        self.registry = AlgorithmRegistry(tiers=self.TIERS,
                                          default_tier="thorough")
        # One memo cache for the whole analyzer: the portfolio's engines,
        # the current-value evaluation, and the guard all share it, and it
        # survives across cycles until the model changes under monitoring.
        self._cache = DeploymentCache()
        self._engine = EvaluationEngine(objective, self.constraints,
                                        cache=self._cache)
        self._guard_engine = (
            EvaluationEngine(latency_guard, self.constraints,
                             cache=self._cache)
            if latency_guard is not None else None)
        self._portfolio = PortfolioRunner(max_evaluations=evaluation_budget,
                                          cache=self._cache)
        self._install_default_algorithms()

    # ------------------------------------------------------------------
    # Algorithm suite management (framework adaptation)
    # ------------------------------------------------------------------
    def _install_default_algorithms(self) -> None:
        self.registry.register(
            "exact", lambda: ExactAlgorithm(
                self.objective, self.constraints, seed=self.seed),
            tier="exact")
        self.registry.register(
            "avala", lambda: AvalaAlgorithm(
                self.objective, self.constraints, seed=self.seed),
            tier="thorough")
        self.registry.register(
            "stochastic", lambda: StochasticAlgorithm(
                self.objective, self.constraints, seed=self.seed,
                iterations=100),
            tier="thorough")
        self.registry.register(
            "hillclimb", lambda: HillClimbingAlgorithm(
                self.objective, self.constraints, seed=self.seed,
                max_rounds=50),
            tier="thorough")
        # The unstable-system tier: "a less expensive algorithm that could
        # produce faster results for the immediate improvement" (§5.1) —
        # a handful of stochastic restarts, O(n^2) each.
        self.registry.register(
            "stochastic_fast", lambda: StochasticAlgorithm(
                self.objective, self.constraints, seed=self.seed,
                iterations=10),
            tier="fast")

    @property
    def algorithm_names(self) -> Tuple[str, ...]:
        return self.registry.names

    # ------------------------------------------------------------------
    # Selection policy (Section 5.1)
    # ------------------------------------------------------------------
    def exact_feasible(self, model: DeploymentModel) -> bool:
        return (len(model.host_ids) <= self.exact_host_limit
                and len(model.component_ids) <= self.exact_component_limit)

    def select_algorithms(self, model: DeploymentModel) -> List[str]:
        """Which algorithms to run this cycle, by size and stability."""
        members = self.registry.members
        if self.exact_feasible(model) and members("exact"):
            return list(members("exact"))
        stable = self.history.is_stable(self.stability_threshold,
                                        self.stability_window)
        if stable is False and members("fast"):
            # Unstable: cheap algorithm for an immediate improvement.
            return list(members("fast"))
        # Stable (or not enough profile yet): afford the expensive suite.
        return list(members("thorough")) or list(members("fast"))

    # ------------------------------------------------------------------
    # Analysis cycle
    # ------------------------------------------------------------------
    def analyze(self, model: DeploymentModel, now: float = 0.0) -> Decision:
        """Run one analysis cycle against *model* and decide what to do.

        The selected algorithms execute as a portfolio, one after another
        on this thread, each under the configured evaluation budget.  An
        algorithm that fails or crashes degrades to a skipped outcome
        (recorded in ``decision.portfolio``) — it never aborts the cycle.
        """
        obs = self.obs
        with obs.span("analyzer.cycle") as cycle_span:
            current = model.deployment
            current_value = self._engine.evaluate(model, current,
                                                  charge=False)
            self.history.record(now, current_value)

            names = self.select_algorithms(model)
            factories = {name: self.registry.get(name)
                         for name in names if name in self.registry}
            with obs.span("analyzer.portfolio",
                          algorithms=names) as portfolio_span:
                report = self._portfolio.run(model, factories,
                                             initial=current)
                portfolio_span.set(outcomes=len(report.outcomes))
            candidates = [outcome.result for outcome in report.outcomes
                          if outcome.ok and outcome.result.valid]

            decision = self._decide(model, current, current_value,
                                    candidates)
            decision.algorithms_run = names
            decision.portfolio = report
            self.decisions.append(decision)
            cycle_span.set(action=decision.action,
                           current_value=current_value)
            obs.counter("algorithms.portfolio_runs").inc()
            obs.counter("analyzer.decisions", action=decision.action).inc()
            # Promote the portfolio's memo/kernel accounting into the
            # metrics registry — the engine hot path itself stays obs-free.
            for key, value in report.counters().items():
                if value:
                    obs.counter(f"algorithms.engine.{key}").inc(value)
        return decision

    def _decide(self, model: DeploymentModel, current, current_value: float,
                candidates: List[AlgorithmResult]) -> Decision:
        if not candidates:
            return Decision("no_action", "no algorithm produced a valid "
                            "deployment", current_value)
        ranked = sorted(
            candidates,
            key=lambda r: self.objective.improvement(r.value, current_value),
            reverse=True)
        guard_values: Dict[str, float] = {}
        selected: Optional[AlgorithmResult] = None
        veto_reason = ""
        for result in ranked:
            ok, reason, extras = self._passes_guard(model, current, result)
            guard_values.update(extras)
            if ok:
                selected = result
                break
            veto_reason = reason
        if selected is None:
            # §5.1: "the analyzer either disallows the results of the
            # algorithms to take effect or MODIFIES THE SOLUTION such that
            # it does not significantly increase the system's overall
            # latency" — try reverting the guard-hostile moves of the best
            # candidate before giving up.
            repaired = self._repair_for_guard(model, current, ranked[0])
            if repaired is not None:
                selected = repaired
            else:
                return Decision("no_action",
                                f"all candidates vetoed ({veto_reason})",
                                current_value, candidates=ranked,
                                guard_values=guard_values)
        improvement = self.objective.improvement(selected.value, current_value)
        if improvement < self.min_improvement:
            return Decision(
                "no_action",
                f"best improvement {improvement:.4f} below threshold "
                f"{self.min_improvement}",
                current_value, selected=selected, candidates=ranked,
                guard_values=guard_values)
        try:
            plan = plan_redeployment(model, selected.deployment, current,
                                     planner=self.planner)
        except ScheduleError:
            # No constraint-safe wave ordering exists; fall back to the
            # flat (all-at-once) plan rather than refusing to act.
            plan = plan_redeployment(model, selected.deployment, current)
        if plan.unreachable:
            return Decision("no_action",
                            "plan moves components with no usable route: "
                            + ", ".join(plan.unreachable),
                            current_value, selected=selected,
                            candidates=ranked, guard_values=guard_values)
        if plan.schedule is not None:
            guard_values["predicted_makespan"] = plan.schedule.makespan
            guard_values["predicted_disruption_kb"] = plan.schedule.total_kb
            if (self.max_makespan is not None
                    and plan.schedule.makespan > self.max_makespan):
                return Decision(
                    "no_action",
                    f"predicted makespan {plan.schedule.makespan:.3f} s "
                    f"exceeds limit {self.max_makespan:.3f} s",
                    current_value, selected=selected, candidates=ranked,
                    guard_values=guard_values)
        return Decision("redeploy",
                        f"improvement {improvement:.4f} via "
                        f"{selected.algorithm}",
                        current_value, selected=selected, plan=plan,
                        candidates=ranked, guard_values=guard_values)

    def _repair_for_guard(self, model: DeploymentModel, current,
                          result: AlgorithmResult,
                          ) -> Optional[AlgorithmResult]:
        """Modify a guard-vetoed solution by reverting its most
        guard-hostile moves until the guard passes.

        Greedy: repeatedly undo the single move whose reversal most
        improves the guard objective, stopping when the guard is satisfied
        or when reverting would erase the primary-objective improvement.
        Returns a patched result (marked ``repaired`` in extras) or None.
        """
        if self.latency_guard is None:
            return None
        guard = self.latency_guard
        working = dict(result.deployment)
        before_guard = self._guard_engine.evaluate(model, current,
                                                   charge=False)
        limit = (before_guard * self.guard_tolerance
                 if guard.direction == "min"
                 else before_guard / self.guard_tolerance)
        moved = [c for c in working
                 if c in current and current[c] != working[c]]
        for __ in range(len(moved)):
            guard_now = guard.evaluate(model, working)
            ok = (guard_now <= limit if guard.direction == "min"
                  else guard_now >= limit)
            if ok:
                break
            best_component = None
            best_gain = 0.0
            for component in moved:
                if working[component] == current[component]:
                    continue
                delta = self._guard_engine.move_delta(
                    model, working, component, current[component])
                gain = -delta if guard.direction == "min" else delta
                if gain > best_gain:
                    best_gain = gain
                    best_component = component
            if best_component is None:
                return None  # no reversal helps the guard
            working[best_component] = current[best_component]
        guard_now = guard.evaluate(model, working)
        ok = (guard_now <= limit if guard.direction == "min"
              else guard_now >= limit)
        if not ok:
            return None
        if not self.constraints.is_satisfied(model, working):
            return None
        value = self._engine.evaluate(model, working, charge=False)
        if self.objective.improvement(
                value,
                self._engine.evaluate(model, current, charge=False)) <= 0.0:
            return None  # repair erased the improvement
        patched = AlgorithmResult(
            algorithm=f"{result.algorithm}+guard-repair",
            deployment=Deployment(working),
            value=value,
            objective=result.objective,
            valid=True,
            elapsed=result.elapsed,
            evaluations=result.evaluations,
            moves_from_initial=sum(
                1 for c in working
                if c in current and current[c] != working[c]),
            extra={**result.extra, "repaired": True},
        )
        return patched

    def _passes_guard(self, model: DeploymentModel, current,
                      result: AlgorithmResult,
                      ) -> Tuple[bool, str, Dict[str, float]]:
        """Latency-guard veto (Section 5.1's third factor)."""
        if self.latency_guard is None:
            return True, "", {}
        guard = self.latency_guard
        before = self._guard_engine.evaluate(model, current, charge=False)
        after = self._guard_engine.evaluate(model, result.deployment,
                                            charge=False)
        extras = {f"{guard.name}_before": before,
                  f"{guard.name}_after_{result.algorithm}": after}
        if guard.direction == "min":
            acceptable = after <= before * self.guard_tolerance
        else:
            acceptable = after >= before / self.guard_tolerance
        if acceptable:
            return True, "", extras
        return (False,
                f"{guard.name} would go {before:.4g} -> {after:.4g}, beyond "
                f"tolerance x{self.guard_tolerance}",
                extras)

    # ------------------------------------------------------------------
    def record_outcome(self, succeeded: bool) -> None:
        """Feed back the effector's outcome into the profile."""
        if succeeded:
            self.redeployments_effected += 1

    def profile_summary(self) -> Dict[str, Any]:
        return {
            "samples": len(self.history.samples),
            "latest": self.history.latest,
            "volatility": self.history.volatility(self.stability_window),
            "decisions": len(self.decisions),
            "redeployments": self.redeployments_effected,
        }
