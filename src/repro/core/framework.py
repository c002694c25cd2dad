"""The deployment improvement framework, wired together.

:class:`CentralizedFramework` realizes Figure 2: a Master Host holds the
Centralized Model, Analyzer, and Algorithm(s); Slave Hosts run Slave
Monitors and Slave Effectors (the middleware's Admin components), and the
Master Monitor / Master Effector roles are played by the Deployer component
plus this class's monitoring hub and effector.

The closed loop per improvement cycle:

1. Admins push monitoring reports to the Deployer (platform-dependent
   monitors), which this framework ingests into its
   :class:`~repro.core.monitoring.MonitoringHub`;
2. the hub applies ε-stable values to the model;
3. the :class:`~repro.core.analyzer.Analyzer` runs its selected
   algorithm(s) and decides whether an improved deployment is worth
   effecting;
4. if so, the :class:`~repro.core.effector.MiddlewareEffector` drives the
   live migration.

The decentralized instantiation (Figure 3) lives in
:class:`repro.decentralized.agent.DecentralizedFramework`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.analyzer import Analyzer, Decision
from repro.core.constraints import ConstraintSet
from repro.core.effector import EffectReport, MiddlewareEffector
from repro.core.errors import EffectorError
from repro.core.model import DeploymentModel
from repro.core.monitoring import MonitoringHub
from repro.core.objectives import Objective
from repro.core.report import ReportBase
from repro.core.user_input import UserInput
from repro.middleware.runtime import DistributedSystem
from repro.obs import Observability, get_observability
from repro.sim.clock import SimClock


@dataclass
class CycleReport(ReportBase):
    """What one improvement cycle observed and did."""

    time: float
    monitoring_updates: int
    decision: Decision
    effect: Optional[EffectReport] = None

    def summary_line(self) -> str:
        line = (f"t={self.time:.1f}: {self.monitoring_updates} model "
                f"updates; {self.decision.summary()}")
        if self.effect is not None:
            line += (f"; effected {self.effect.moves_executed} moves in "
                     f"{self.effect.sim_duration:.3f}s")
        return line

    def to_dict(self, **opts: Any) -> Dict[str, Any]:
        return {
            "time": self.time,
            "monitoring_updates": self.monitoring_updates,
            "decision": self.decision.to_dict(),
            "effect": (None if self.effect is None
                       else self.effect.to_dict(**opts)),
        }

    def render(self, **opts: Any) -> str:
        lines = [self.summary_line()]
        if self.decision.algorithms_run:
            lines.append(
                "  algorithms: " + ", ".join(self.decision.algorithms_run))
        for result in self.decision.candidates:
            lines.append(f"  candidate {result.summary_line()}")
        return "\n".join(lines)


class CentralizedFramework:
    """Master-host improvement loop over a live distributed system.

    Args:
        system: The running (simulated) distributed application.
        objective: Primary objective for the analyzer.
        constraints: Hard constraints for algorithms.
        latency_guard: Optional secondary objective veto (Section 5.1).
        user_input: Architect-supplied parameters/constraints, applied to
            the model up front.
        monitor_interval: Monitoring/reporting window length (simulated s).
        epsilon / stability_window: ε-stability parameters for the hub.
        analyzer: Custom analyzer; built from the other arguments when
            omitted.
        planner: Enable wave scheduling: plans carry a
            :class:`~repro.plan.MigrationSchedule` and the effector
            executes wave-by-wave with barrier rollback and re-planning.
        effector_options: Extra keyword arguments for the
            :class:`~repro.core.effector.MiddlewareEffector` (timeouts,
            retry budget, backoff shape) — the knobs experiments turn to
            compare enactment strategies under identical pressure.
    """

    def __init__(self, system: DistributedSystem, objective: Objective,
                 constraints: Optional[ConstraintSet] = None,
                 latency_guard: Optional[Objective] = None,
                 user_input: Optional[UserInput] = None,
                 monitor_interval: float = 1.0,
                 epsilon: float = 0.05, stability_window: int = 3,
                 analyzer: Optional[Analyzer] = None,
                 seed: Optional[int] = None,
                 planner: bool = False,
                 effector_options: Optional[Dict[str, Any]] = None,
                 obs: Optional[Observability] = None):
        self.system = system
        self.model = system.model
        self.clock: SimClock = system.clock
        self.objective = objective
        self.constraints = constraints if constraints is not None else ConstraintSet()
        self.obs = obs if obs is not None else get_observability()
        if self.obs.enabled:
            self.obs.bind_clock(self.clock)
        if user_input is not None:
            user_input.apply(self.model)
            for constraint in user_input.constraints:
                if constraint not in self.constraints.constraints:
                    self.constraints.add(constraint)
        self.hub = MonitoringHub(self.model, epsilon=epsilon,
                                 window=stability_window, obs=self.obs)
        # ``planner=True`` turns on wave scheduling end to end: decisions
        # carry a MigrationSchedule and the effector executes it with
        # barrier rollback and re-planning (see docs/PLANNING.md).
        self.planner = None
        if planner:
            from repro.plan import MigrationPlanner
            self.planner = MigrationPlanner(self.model, self.constraints,
                                            obs=self.obs)
        self.analyzer = analyzer if analyzer is not None else Analyzer(
            objective, self.constraints, latency_guard=latency_guard,
            seed=seed, planner=self.planner, obs=self.obs)
        self.effector = MiddlewareEffector(system, seed=seed, obs=self.obs,
                                           planner=self.planner,
                                           **(effector_options or {}))
        self.monitor_interval = monitor_interval
        self.cycles: List[CycleReport] = []
        self._cycle_task = None
        self._started = False

    # ------------------------------------------------------------------
    def start(self, cycles_per_analysis: int = 3,
              adaptive_schedule: bool = False,
              max_cycles_per_analysis: int = 12) -> None:
        """Install monitoring and schedule periodic improvement cycles.

        Monitoring reports arrive every ``monitor_interval``; the full
        analyze-and-maybe-redeploy cycle runs every ``cycles_per_analysis``
        monitoring windows (analysis is the expensive step).

        With ``adaptive_schedule`` the analysis cadence self-tunes —
        "scheduling the time to (re)examine the deployment architecture"
        (§3.1's analyzer trade-off list): every quiet analysis (no action
        taken) backs the cadence off by one window up to
        ``max_cycles_per_analysis``; any redeployment — or an unstable
        availability profile — snaps it back to the configured base, so a
        settled system is examined rarely and a disturbed one immediately.
        """
        if self._started:
            return
        self._started = True
        self.system.install_monitoring(
            ping_interval=self.monitor_interval / 2,
            report_interval=self.monitor_interval)
        self.system.deployer.on_report = self.hub.ingest
        self._windows_since_analysis = 0
        self._base_cycles_per_analysis = cycles_per_analysis
        self._cycles_per_analysis = cycles_per_analysis
        self._adaptive_schedule = adaptive_schedule
        self._max_cycles_per_analysis = max(cycles_per_analysis,
                                            max_cycles_per_analysis)
        # Process monitoring windows just after reports land (offset a hair
        # past the admins' reporting instants).
        self._cycle_task = self.clock.every(
            self.monitor_interval, self._on_window, )

    def stop(self) -> None:
        if self._cycle_task is not None:
            self._cycle_task.cancel()
            self._cycle_task = None
        self.system.uninstall_monitoring()
        self._started = False

    @property
    def current_cycles_per_analysis(self) -> int:
        """The current (possibly adapted) analysis cadence, in windows."""
        return self._cycles_per_analysis

    def _on_window(self) -> None:
        # The master host's own monitors are collected directly (Figure 2's
        # Master Monitor observes the master's platform itself).
        with self.obs.span("framework.window") as window_span:
            master_admin = self.system.deployer
            self.hub.ingest(self.system.master_host,
                            master_admin.collect_report())
            updates = self.hub.process_interval()
            self._windows_since_analysis += 1
            analyzed = (self._windows_since_analysis
                        >= self._cycles_per_analysis)
            window_span.set(updates=len(updates), analyzed=analyzed)
            if analyzed:
                self._windows_since_analysis = 0
                report = self.improvement_cycle(len(updates))
                if self._adaptive_schedule:
                    self._adapt_schedule(report)

    def _adapt_schedule(self, report: "CycleReport") -> None:
        stable = self.analyzer.history.is_stable(
            self.analyzer.stability_threshold,
            self.analyzer.stability_window)
        if report.effect is not None or stable is False:
            self._cycles_per_analysis = self._base_cycles_per_analysis
        elif self._cycles_per_analysis < self._max_cycles_per_analysis:
            self._cycles_per_analysis += 1

    # ------------------------------------------------------------------
    def improvement_cycle(self, monitoring_updates: int = 0) -> CycleReport:
        """Analyze the current model and effect an improvement if warranted."""
        decision = self.analyzer.analyze(self.model, now=self.clock.now)
        effect: Optional[EffectReport] = None
        if decision.will_redeploy and decision.plan is not None:
            try:
                effect = self.effector.effect(decision.plan)
                self.analyzer.record_outcome(True)
            except EffectorError:
                self.analyzer.record_outcome(False)
        report = CycleReport(self.clock.now, monitoring_updates, decision,
                             effect)
        self.cycles.append(report)
        self.obs.counter("framework.cycles").inc()
        if effect is not None:
            self.obs.counter("framework.redeployments").inc()
        return report

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def modeled_availability(self) -> float:
        """What the model predicts for the current deployment."""
        return self.objective.evaluate(self.model, self.model.deployment)

    def app_delivery_ratio(self) -> float:
        """Ground truth: fraction of application events actually delivered."""
        sent, received = self.system.delivery_counts()
        return received / sent if sent else 1.0

    def status(self) -> Dict[str, Any]:
        return {
            "time": self.clock.now,
            "modeled_availability": self.modeled_availability(),
            "monitoring": self.hub.stability_report(),
            "analyzer": self.analyzer.profile_summary(),
            "cycles": len(self.cycles),
            "redeployments": sum(
                1 for c in self.cycles if c.effect is not None),
        }
