"""Resilience scoring: run a fault campaign against a live system.

:func:`run_campaign` is the end-to-end harness behind
``python -m repro faults run``: it builds a scenario system, arms a
:class:`~repro.faults.injector.FaultInjector` with the given plan,
drives the interaction workload (and, unless disabled, the closed
improvement loop with its hardened effector), and distills the run into
a :class:`ResilienceReport`:

* **delivered availability** — the ground-truth fraction of application
  events that arrived, against the **model-predicted** availability of
  the final deployment over the final link parameters (the paper's
  central number, Section 4's availability function);
* **migration health** — redeployments attempted/succeeded, total
  effector retries and rollbacks, middleware-level retransmissions and
  source-side restores;
* **mean time to recover** — the average injected-outage duration
  actually experienced (auto-heals, heals, restarts), plus the average
  simulated duration of successful redeployments.

Reports are deterministic: the same (plan, seed) renders byte-identical
JSON (wall-clock timing is excluded unless asked for), which the
reproducibility test asserts and the CI smoke job archives.
"""

from __future__ import annotations

import gc
import json
import pickle
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import AvailabilityObjective
from repro.core.errors import FaultPlanError
from repro.core.framework import CentralizedFramework
from repro.core.report import ReportBase
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.middleware.runtime import AppComponent, DistributedSystem
from repro.obs import MetricsRegistry, Observability, get_observability
from repro.obs.trace import NULL_TRACER
from repro.scenarios import (
    CrisisConfig, build_client_server, build_crisis_scenario,
    build_sensor_field,
)
from repro.sim import InteractionWorkload, SimClock

#: Scenario builders usable by the harness and the CLI's ``faults`` verb.
#: Each returns an object with ``model``/``constraints`` (and optionally
#: ``user_input`` and a master-host attribute such as ``hq``).
SCENARIOS: Dict[str, Callable[[Optional[int]], Any]] = {
    "crisis": lambda seed: build_crisis_scenario(CrisisConfig(seed=seed)),
    "sensorfield": lambda seed: build_sensor_field(seed=seed),
    "clientserver": lambda seed: build_client_server(seed=seed),
}

@dataclass
class ResilienceReport(ReportBase):
    """What a fault campaign did to the system, and how it coped."""

    plan_name: str
    scenario: str
    seed: int
    duration: float
    improvement_loop: bool
    # Availability.
    events_sent: int
    events_received: int
    emissions_skipped: int
    delivered_availability: float
    modeled_availability: float
    # Fault pressure.
    faults_injected: int
    faults_by_kind: Dict[str, int]
    outages: int
    mean_outage_duration: float
    # Migration health.
    migrations_attempted: int
    migrations_succeeded: int
    migration_success_rate: float
    effector_retries: int
    rollbacks: int
    retransmissions: int
    restores: int
    mean_recovery_time: float
    # Wall-clock cost (timing; excluded from canonical renders).
    wall_seconds: float = 0.0
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def availability_gap(self) -> float:
        """Delivered minus modeled: negative when reality underperforms
        the model's prediction."""
        return self.delivered_availability - self.modeled_availability

    def to_dict(self, include_timing: bool = False,
                **opts: Any) -> Dict[str, Any]:
        out = {
            "plan": self.plan_name,
            "scenario": self.scenario,
            "seed": self.seed,
            "duration": self.duration,
            "improvement_loop": self.improvement_loop,
            "availability": {
                "events_sent": self.events_sent,
                "events_received": self.events_received,
                "emissions_skipped": self.emissions_skipped,
                "delivered": round(self.delivered_availability, 9),
                "modeled": round(self.modeled_availability, 9),
                "gap": round(self.availability_gap, 9),
            },
            "faults": {
                "injected": self.faults_injected,
                "by_kind": dict(sorted(self.faults_by_kind.items())),
                "outages": self.outages,
                "mean_outage_duration": round(self.mean_outage_duration, 9),
            },
            "migrations": {
                "attempted": self.migrations_attempted,
                "succeeded": self.migrations_succeeded,
                "success_rate": round(self.migration_success_rate, 9),
                "effector_retries": self.effector_retries,
                "rollbacks": self.rollbacks,
                "retransmissions": self.retransmissions,
                "restores": self.restores,
                "mean_recovery_time": round(self.mean_recovery_time, 9),
            },
        }
        if self.detail:
            out["detail"] = self.detail
        if include_timing:
            out["timing"] = {"wall_seconds": self.wall_seconds}
        return out

    def render(self, include_timing: bool = False, indent: int = 2,
               **opts: Any) -> str:
        """Canonical JSON; byte-identical across runs of the same
        (plan, seed) when timing is excluded (the default)."""
        return json.dumps(self.to_dict(include_timing=include_timing),
                          indent=indent, sort_keys=True)

    def summary_line(self) -> str:
        return (f"{self.plan_name} on {self.scenario} (seed {self.seed}): "
                f"delivered {self.delivered_availability:.3f} vs modeled "
                f"{self.modeled_availability:.3f}; "
                f"{self.migrations_succeeded}/{self.migrations_attempted} "
                f"migrations, {self.effector_retries} retries, "
                f"{self.rollbacks} rollbacks")


@dataclass
class CampaignSuiteReport(ReportBase):
    """Outcomes of a (plans x seeds) fault-campaign suite.

    Runs appear in job order (plans in the order given, seeds in the
    order given within each plan), regardless of how many workers
    executed them — serial and parallel suites of the same inputs render
    byte-identically.
    """

    scenario: str
    runs: List[ResilienceReport] = field(default_factory=list)

    def run(self, plan_name: str, seed: int) -> ResilienceReport:
        """The run for (plan, seed); raises ``KeyError`` when absent."""
        for report in self.runs:
            if report.plan_name == plan_name and report.seed == seed:
                return report
        raise KeyError((plan_name, seed))

    @property
    def mean_delivered_availability(self) -> float:
        if not self.runs:
            return 1.0
        return (sum(r.delivered_availability for r in self.runs)
                / len(self.runs))

    @property
    def worst_delivered_availability(self) -> float:
        if not self.runs:
            return 1.0
        return min(r.delivered_availability for r in self.runs)

    def aggregate(self) -> Dict[str, Any]:
        """Suite-level totals and means over every run."""
        runs = self.runs
        return {
            "campaigns": len(runs),
            "events_sent": sum(r.events_sent for r in runs),
            "events_received": sum(r.events_received for r in runs),
            "emissions_skipped": sum(r.emissions_skipped for r in runs),
            "mean_delivered": round(self.mean_delivered_availability, 9),
            "worst_delivered": round(self.worst_delivered_availability, 9),
            "mean_modeled": round(
                (sum(r.modeled_availability for r in runs) / len(runs))
                if runs else 1.0, 9),
            "faults_injected": sum(r.faults_injected for r in runs),
            "migrations_attempted": sum(r.migrations_attempted
                                        for r in runs),
            "migrations_succeeded": sum(r.migrations_succeeded
                                        for r in runs),
            "effector_retries": sum(r.effector_retries for r in runs),
            "rollbacks": sum(r.rollbacks for r in runs),
            "retransmissions": sum(r.retransmissions for r in runs),
            "restores": sum(r.restores for r in runs),
        }

    def to_dict(self, include_timing: bool = False,
                **opts: Any) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "aggregate": self.aggregate(),
            "runs": [r.to_dict(include_timing=include_timing)
                     for r in self.runs],
        }

    def render(self, include_timing: bool = False, indent: int = 2,
               **opts: Any) -> str:
        """Canonical JSON; byte-identical for the same (plans, seeds)
        whether the suite ran serially or across worker processes."""
        return json.dumps(self.to_dict(include_timing=include_timing),
                          indent=indent, sort_keys=True)

    def summary_line(self) -> str:
        plans = sorted({r.plan_name for r in self.runs})
        seeds = sorted({r.seed for r in self.runs})
        return (f"suite on {self.scenario}: {len(self.runs)} campaigns "
                f"({len(plans)} plans x {len(seeds)} seeds), mean "
                f"delivered {self.mean_delivered_availability:.3f}, worst "
                f"{self.worst_delivered_availability:.3f}")


def _delivery_counts(system: DistributedSystem) -> Dict[str, int]:
    sent = received = 0
    for architecture in system.architectures.values():
        for component in architecture.components:
            if isinstance(component, AppComponent):
                sent += component.sent_count
                received += component.received_count
    return {"sent": sent, "received": received}


def run_campaign(plan: Union[FaultPlan, Sequence[FaultPlan]],
                 seed: int = 0, scenario: str = "crisis",
                 duration: Optional[float] = None, improve: bool = True,
                 monitor_interval: float = 2.0,
                 cycles_per_analysis: int = 2,
                 system_factory: Optional[
                     Callable[[SimClock, int], DistributedSystem]] = None,
                 planner: bool = False,
                 effector_options: Optional[Dict[str, Any]] = None,
                 obs: Optional[Observability] = None,
                 rate_scale: float = 1.0,
                 seeds: Optional[Sequence[int]] = None,
                 workers: Optional[int] = None,
                 ) -> Union[ResilienceReport, "CampaignSuiteReport"]:
    """Execute *plan* against a freshly built scenario system.

    Args:
        plan: The fault campaign (validated against the scenario model
            before arming).  A sequence of plans runs a suite (see
            *seeds*/*workers*).
        seed: Master seed: network loss trials, workload phases, analyzer
            and effector jitter all derive from it, so the report is a
            pure function of (plan, seed).
        scenario: One of :data:`SCENARIOS` (ignored with
            *system_factory*).
        duration: Simulated seconds to run; defaults to the plan's.
        improve: Run the closed improvement loop (monitoring, analysis,
            redeployment).  With ``False`` the system only endures —
            the baseline for the with/without-redeployment experiment.
        system_factory: Optional ``(clock, seed) -> DistributedSystem``
            override for custom topologies (tests use tiny ones).
        planner: Plan redeployments with :mod:`repro.plan`'s multi-wave
            schedules (per-wave barrier rollback + re-planning) instead
            of single-wave naive plans; the planner-vs-naive contrast
            under the same fault plan and seed is the headline experiment
            of ``docs/PLANNING.md``.
        effector_options: Extra :class:`MiddlewareEffector` keyword
            arguments (timeouts, retry budget, backoff shape), applied
            identically to both enactment strategies so comparisons stay
            fair.
        obs: Observability bundle instrumenting the run.  Defaults to the
            process-wide bundle (a no-op unless one was installed); pass an
            enabled bundle to capture per-subsystem metrics and spans for
            ``python -m repro obs report``.
        rate_scale: Multiplier applied to every interaction frequency of
            the workload (``InteractionWorkload(rate_scale=...)``) — lets
            benchmarks raise message pressure without editing the model.
            Part of the determinism key: reports are pure functions of
            (plan, seed, rate_scale).
        seeds: Run the plan(s) once per seed and return a
            :class:`CampaignSuiteReport` instead of a single report.
        workers: Process-pool fan-out for suites.  ``None``/1 runs every
            (plan, seed) job serially in-process; ``N > 1`` maps the same
            jobs over ``N`` worker processes.  Both modes execute the
            identical module-level job function per campaign, so for the
            same inputs the suite renders byte-identically — campaigns
            are pure functions of (plan, seed), and worker-side metrics
            ship home as lines merged into *obs* just as in
            :class:`repro.desi.batch.ExperimentRunner`.  A
            *system_factory* must be picklable in workers mode.

    Passing a plan sequence, *seeds*, or *workers* selects suite mode
    (the return value is a :class:`CampaignSuiteReport`); otherwise the
    classic single :class:`ResilienceReport` comes back.
    """
    if workers is not None and workers < 1:
        raise FaultPlanError("workers must be >= 1")
    if isinstance(plan, FaultPlan):
        plans: List[FaultPlan] = [plan]
        suite = seeds is not None or workers is not None
    else:
        plans = list(plan)
        if not plans:
            raise FaultPlanError("need at least one fault plan")
        suite = True
    if not suite:
        return _run_single_campaign(
            plans[0], seed, scenario, duration, improve, monitor_interval,
            cycles_per_analysis, system_factory, planner, effector_options,
            obs, rate_scale)
    seed_list = [seed] if seeds is None else [int(s) for s in seeds]
    if not seed_list:
        raise FaultPlanError("seeds must be non-empty")
    return _run_suite(plans, seed_list, workers, scenario, duration,
                      improve, monitor_interval, cycles_per_analysis,
                      system_factory, planner, effector_options, obs,
                      rate_scale)


def _run_single_campaign(
        plan: FaultPlan, seed: int, scenario: str,
        duration: Optional[float], improve: bool, monitor_interval: float,
        cycles_per_analysis: int,
        system_factory: Optional[Callable[[SimClock, int],
                                          DistributedSystem]],
        planner: bool, effector_options: Optional[Dict[str, Any]],
        obs: Optional[Observability],
        rate_scale: float = 1.0,
        ) -> ResilienceReport:
    """One campaign, exactly as :func:`run_campaign` always ran it."""
    started_wall = _time.perf_counter()
    run_for = plan.duration if duration is None else float(duration)
    clock = SimClock()
    obs = obs if obs is not None else get_observability()
    if obs.enabled:
        obs.bind_clock(clock)
    framework: Optional[CentralizedFramework] = None
    objective = AvailabilityObjective()
    if system_factory is not None:
        system = system_factory(clock, seed)
        scenario_name = "custom"
        model = system.model
    else:
        try:
            built = SCENARIOS[scenario](seed)
        except KeyError:
            raise FaultPlanError(
                f"unknown scenario {scenario!r}; expected one of "
                f"{', '.join(sorted(SCENARIOS))}") from None
        scenario_name = scenario
        model = built.model
        master = getattr(built, "hq", None)
        system = DistributedSystem(model, clock, master_host=master,
                                   seed=seed, obs=obs)
        if improve:
            framework = CentralizedFramework(
                system, objective, built.constraints,
                user_input=getattr(built, "user_input", None),
                monitor_interval=monitor_interval, seed=seed,
                planner=planner, effector_options=effector_options,
                obs=obs)
    if improve and framework is None and system_factory is not None \
            and system.deployer is not None:
        framework = CentralizedFramework(
            system, objective, monitor_interval=monitor_interval,
            seed=seed, planner=planner,
            effector_options=effector_options, obs=obs)

    injector = FaultInjector(system.network, plan, model=model, obs=obs)
    injector.arm()
    workload = InteractionWorkload(model, clock, system.emit,
                                   seed=seed + 1,
                                   rate_scale=rate_scale).start()
    if framework is not None:
        framework.start(cycles_per_analysis=cycles_per_analysis)

    # Pause the cyclic garbage collector while the clock runs.  The hot
    # path churns millions of short-lived *acyclic* objects (events, wire
    # dicts, heap entries) that reference counting reclaims by itself;
    # all the generational collector does during a run is rescan the
    # growing live set, which costs ~10% of campaign wall time at high
    # message rates.  The few cycles a run creates are collected once
    # the collector resumes.
    resume_gc = gc.isenabled()
    if resume_gc:
        gc.disable()
    try:
        clock.run(run_for)
    finally:
        if resume_gc:
            gc.enable()

    workload.stop()
    if framework is not None:
        framework.stop()
    injector.disarm()

    counts = _delivery_counts(system)
    delivered = (counts["received"] / counts["sent"]
                 if counts["sent"] else 1.0)
    system.network.apply_to_model(model)
    final_deployment = system.actual_deployment()
    modeled = objective.evaluate(model, final_deployment)
    # Post-campaign sanity: whatever the faults did, the system must end
    # statically valid — every component on exactly one live host.
    from repro.lint.model_rules import verify_deployment
    post_lint = verify_deployment(model, final_deployment)

    faults_by_kind: Dict[str, int] = {}
    for entry in injector.log:
        faults_by_kind[entry["kind"]] = \
            faults_by_kind.get(entry["kind"], 0) + 1
    outage_durations = [end - start
                        for __, __, start, end in injector.outages]
    outage_durations += [clock.now - start
                         for __, __, start in injector.open_outages()]
    mean_outage = (sum(outage_durations) / len(outage_durations)
                   if outage_durations else 0.0)

    history = framework.effector.history if framework is not None else []
    attempted = len(history)
    succeeded = sum(1 for r in history if r.succeeded)
    recovery_times = [r.sim_duration for r in history
                      if r.succeeded and r.moves_executed]
    retransmissions = sum(a.retransmissions for a in system.admins.values())
    restores = sum(a.restores for a in system.admins.values())

    wall = _time.perf_counter() - started_wall
    detail: Dict[str, Any] = {"post_lint_errors": len(post_lint.errors)}
    if planner:
        detail["planner"] = {
            "barrier_rollbacks": sum(
                r.detail.get("barrier_rollbacks", 0) for r in history),
            "replans": sum(r.detail.get("replans", 0) for r in history),
            "waves_completed": sum(
                r.detail.get("waves_completed", 0) for r in history),
        }
    return ResilienceReport(
        plan_name=plan.name,
        scenario=scenario_name,
        seed=seed,
        duration=run_for,
        improvement_loop=framework is not None,
        events_sent=counts["sent"],
        events_received=counts["received"],
        emissions_skipped=system.emissions_skipped,
        delivered_availability=delivered,
        modeled_availability=modeled,
        faults_injected=injector.actions_applied,
        faults_by_kind=faults_by_kind,
        outages=len(outage_durations),
        mean_outage_duration=mean_outage,
        migrations_attempted=attempted,
        migrations_succeeded=succeeded,
        migration_success_rate=(succeeded / attempted if attempted else 1.0),
        effector_retries=sum(r.retries for r in history),
        rollbacks=sum(1 for r in history if r.rolled_back),
        retransmissions=retransmissions,
        restores=restores,
        mean_recovery_time=(sum(recovery_times) / len(recovery_times)
                            if recovery_times else 0.0),
        wall_seconds=wall,
        detail=detail,
    )


def _campaign_job(job: Tuple) -> Tuple[ResilienceReport, Optional[list]]:
    """One (plan, seed) campaign; module-level so process pools can
    pickle it.  Serial suites run this very function inline, so the two
    modes cannot diverge.  When the suite is observed the job records
    into a private registry and returns its metric lines for parent-side
    merging — registries never cross the process boundary."""
    (plan, job_seed, scenario, duration, improve, monitor_interval,
     cycles_per_analysis, system_factory, planner, effector_options,
     rate_scale, observed) = job
    registry = MetricsRegistry() if observed else None
    job_obs = (Observability(metrics=registry, tracer=NULL_TRACER)
               if registry is not None else Observability.disabled())
    report = _run_single_campaign(
        plan, job_seed, scenario, duration, improve, monitor_interval,
        cycles_per_analysis, system_factory, planner, effector_options,
        job_obs, rate_scale)
    return report, (registry.to_lines() if registry is not None else None)


def _check_picklable(plans: Sequence[FaultPlan], **named: Any) -> None:
    """Reject unpicklable suite inputs before spawning any worker."""
    named = dict(named, plans=tuple(plans))
    for name in sorted(named):
        try:
            pickle.dumps(named[name])
        except Exception as exc:
            raise FaultPlanError(
                f"workers mode requires picklable campaign inputs, but "
                f"{name!r} cannot be pickled ({exc}); use module-level "
                "functions or functools.partial instead of lambdas or "
                "closures") from exc


def _run_suite(plans: List[FaultPlan], seeds: List[int],
               workers: Optional[int], scenario: str,
               duration: Optional[float], improve: bool,
               monitor_interval: float, cycles_per_analysis: int,
               system_factory: Optional[Callable[[SimClock, int],
                                                 DistributedSystem]],
               planner: bool, effector_options: Optional[Dict[str, Any]],
               obs: Optional[Observability],
               rate_scale: float = 1.0,
               ) -> CampaignSuiteReport:
    """Fan (plans x seeds) out over a process pool (or run serially)."""
    obs = obs if obs is not None else get_observability()
    observed = obs.metrics.enabled
    jobs = [
        (plan, job_seed, scenario, duration, improve, monitor_interval,
         cycles_per_analysis, system_factory, planner, effector_options,
         rate_scale, observed)
        for plan in plans for job_seed in seeds
    ]
    with obs.span("faults.suite", plans=len(plans), seeds=len(seeds),
                  workers=workers or 1):
        if workers is not None and workers > 1:
            _check_picklable(plans, system_factory=system_factory,
                             effector_options=effector_options)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_campaign_job, jobs))
        else:
            outcomes = [_campaign_job(job) for job in jobs]
        suite = CampaignSuiteReport(
            scenario="custom" if system_factory is not None else scenario)
        for report, metric_lines in outcomes:
            suite.runs.append(report)
            if not obs.enabled:
                continue
            if metric_lines:
                shipped = MetricsRegistry()
                for line in metric_lines:
                    shipped.load_line(line)
                obs.metrics.merge(shipped)
            with obs.span("faults.campaign", plan=report.plan_name,
                          seed=report.seed) as span:
                span.set(delivered=report.delivered_availability,
                         faults=report.faults_injected,
                         migrations=report.migrations_succeeded)
    return suite
