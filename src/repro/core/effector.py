"""Platform-independent effecting: redeployment plans and coordination.

Section 3.1 (Effector): "effectors are also composed of two parts: (1) a
platform-dependent part that 'hooks' into the platform to perform the
redeployment of software components; and (2) a platform-independent part
that receives the redeployment instructions from the analyzer and
coordinates the redeployment process."

The platform-dependent half is the Admin/Deployer machinery of
:mod:`repro.middleware.admin`.  Here live the platform-independent pieces:

* :class:`RedeploymentPlan` — the analyzer's instructions: target
  deployment, derived move list, data volume, and the
  :class:`~repro.plan.schedule.MigrationSchedule` that orders the moves
  into waves and predicts the makespan from the model's link parameters.
  Every plan has one: a planner-less plan is a single wave that enacts
  the whole target at once;
* :class:`Effector` implementations — :class:`MiddlewareEffector` drives a
  live :class:`~repro.middleware.runtime.DistributedSystem` wave by wave,
  with each completed wave a rollback barrier;
  :class:`ModelEffector` applies a plan to the model only (DeSi's
  hypothetical "what-if" mode, where no real system is attached).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro.core.errors import (
    EffectorError, MigrationError, MigrationTimeoutError, PreflightError,
)
from repro.core.model import Deployment, DeploymentModel, Move
from repro.core.report import ReportBase
from repro.obs import Observability, get_observability

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.plan.planner import MigrationPlanner
    from repro.plan.schedule import MigrationSchedule


@dataclass
class RedeploymentPlan:
    """Instructions to take the system from one deployment to another."""

    current: Deployment
    target: Deployment
    moves: Tuple[Move, ...]
    #: Total serialized component data to ship, KB.
    estimated_kb: float
    #: The moves ordered into waves, with the predicted makespan; the
    #: effector executes it wave by wave with barrier rollback.
    schedule: "MigrationSchedule"
    #: What each wave of ``schedule`` hands the middleware's ``redeploy``:
    #: the wave's own moves for a planner-built schedule, the whole target
    #: for the single wave of a planner-less one.
    wave_targets: Tuple[Dict[str, str], ...]

    @property
    def unreachable(self) -> Tuple[str, ...]:
        """Components whose moves cross host pairs with no usable route
        (directly or via one relay).  Non-empty means the plan cannot be
        enacted as stated; the analyzer and the effector refuse it."""
        return self.schedule.unreachable

    @property
    def estimated_time(self) -> float:
        """Predicted simulated seconds of the migration: the schedule's
        makespan, or infinity when some move has no route."""
        return float("inf") if self.unreachable else self.schedule.makespan

    @property
    def is_noop(self) -> bool:
        return not self.moves

    def summary(self) -> str:
        line = (f"RedeploymentPlan({len(self.moves)} moves, "
                f"~{self.estimated_kb:.1f} KB, "
                f"~{self.estimated_time:.3f} s, "
                f"{len(self.schedule.waves)} waves")
        if self.unreachable:
            line += f", {len(self.unreachable)} unreachable"
        return line + ")"


def plan_redeployment(model: DeploymentModel,
                      target: Mapping[str, str],
                      current: Optional[Mapping[str, str]] = None,
                      planner: Optional["MigrationPlanner"] = None,
                      ) -> RedeploymentPlan:
    """Build a :class:`RedeploymentPlan` from the model's current deployment
    to *target*, with the :class:`~repro.plan.schedule.MigrationSchedule`
    that predicts and orders it.

    With a *planner* the schedule is its constraint-safe,
    bandwidth-packed waves, and each wave enacts only its own moves.
    Without one it is :func:`~repro.plan.planner.naive_schedule`: every
    move in one wave on its isolation-best route, enacting the whole
    target at once.  Either way ``estimated_time`` is the schedule's
    contention-aware makespan: moves sharing a link share its bandwidth.

    Moves whose host pair has no usable route at all — no direct link and
    no relay with positive bandwidth on both legs — are surfaced in
    ``plan.unreachable`` (and leave ``estimated_time`` infinite).
    """
    from repro.plan.planner import naive_schedule
    current_deployment = (model.deployment if current is None
                          else Deployment(current))
    target_deployment = Deployment(target)
    moves = current_deployment.diff(target_deployment)
    total_kb = sum((max(model.component(move.component).memory, 0.1)
                    for move in moves), 0.0)
    current_map = current_deployment.as_dict()
    target_map = target_deployment.as_dict()
    if planner is not None:
        schedule = planner.schedule(target_map, current=current_map)
        wave_targets = tuple(wave.placements() for wave in schedule.waves)
    else:
        schedule = naive_schedule(model, target_map, current=current_map)
        wave_targets = (target_map,) if schedule.waves else ()
    return RedeploymentPlan(current_deployment, target_deployment, moves,
                            total_kb, schedule, wave_targets)


@dataclass
class EffectReport(ReportBase):
    """What actually happened when a plan was effected."""

    plan: RedeploymentPlan
    succeeded: bool
    moves_executed: int
    sim_duration: float = 0.0
    kb_transferred: float = 0.0
    detail: Dict[str, Any] = field(default_factory=dict)
    #: How many failed wave attempts were retried, over all waves.
    retries: int = 0
    #: Whether a failed plan was rolled back to its last barrier (the
    #: pre-plan deployment if no wave had completed).
    rolled_back: bool = False

    def summary_line(self) -> str:
        outcome = "succeeded" if self.succeeded else "FAILED"
        line = (f"{self.plan.summary()} {outcome}: "
                f"{self.moves_executed} moves, "
                f"{self.kb_transferred:.1f} KB in {self.sim_duration:.3f}s")
        if self.retries:
            line += f", {self.retries} retries"
        if self.rolled_back:
            line += ", rolled back"
        return line

    def to_dict(self, **opts: Any) -> Dict[str, Any]:
        plan: Dict[str, Any] = {
            "moves": len(self.plan.moves),
            "estimated_kb": self.plan.estimated_kb,
            "estimated_time": self.plan.estimated_time,
        }
        if self.plan.unreachable:
            plan["unreachable"] = list(self.plan.unreachable)
        plan["waves"] = len(self.plan.schedule.waves)
        plan["predicted_makespan"] = self.plan.schedule.makespan
        return {
            "plan": plan,
            "succeeded": self.succeeded,
            "moves_executed": self.moves_executed,
            "sim_duration": self.sim_duration,
            "kb_transferred": self.kb_transferred,
            "retries": self.retries,
            "rolled_back": self.rolled_back,
            "detail": dict(self.detail),
        }


class Effector(ABC):
    """Platform-independent coordinator; receives plans from the analyzer.

    Before enactment every effector runs a **pre-flight gate**: the static
    deployment rules of :mod:`repro.lint.model_rules` (component mapping,
    capacities, physical reachability, hard constraints) over the state the
    plan would produce.  Error-severity findings abort the redeployment
    with :class:`~repro.core.errors.PreflightError` — a statically-invalid
    plan must fail *before* components start migrating, not midway.  Pass
    ``verify=False`` at construction (or ``force=True`` to :meth:`effect`)
    to skip the gate, mirroring the CLI's ``--force``.
    """

    #: Whether :meth:`effect` runs the pre-flight gate (set in __init__).
    verify: bool = True

    @abstractmethod
    def effect(self, plan: RedeploymentPlan,
               force: bool = False) -> EffectReport:
        """Execute *plan*; raises :class:`EffectorError` on hard failure."""

    def preflight(self, model: DeploymentModel, plan: RedeploymentPlan,
                  force: bool = False) -> None:
        """Statically verify the post-state *plan* would leave behind.

        The verified deployment is the model's current deployment overlaid
        with the plan's target, which is exactly what effecting produces
        even for partial targets.
        """
        if not self.verify or force:
            return
        from repro.lint.model_rules import verify_deployment
        effective = model.deployment.as_dict()
        effective.update(plan.target.as_dict())
        report = verify_deployment(model, effective)
        if report.has_errors:
            raise PreflightError(
                f"refusing to enact {plan.summary()}; static verification "
                "failed (use force=True to override)",
                findings=report.errors)


class ModelEffector(Effector):
    """Applies the plan to the deployment model only (what-if exploration)."""

    def __init__(self, model: DeploymentModel, verify: bool = True):
        self.model = model
        self.verify = verify
        self.history: list = []

    def effect(self, plan: RedeploymentPlan,
               force: bool = False) -> EffectReport:
        self.preflight(self.model, plan, force=force)
        for component_id, host_id in plan.target.items():
            self.model.deploy(component_id, host_id)
        report = EffectReport(plan, True, len(plan.moves))
        self.history.append(report)
        return report


class MiddlewareEffector(Effector):
    """Drives a live :class:`~repro.middleware.runtime.DistributedSystem`.

    The heavy lifting — the request/transfer/reconstitute protocol with
    buffering — is the platform-dependent half inside the middleware's
    Admin/Deployer components; this class is the coordination shim that the
    analyzer talks to, **hardened** for the failure environment the paper
    targets:

    * each enactment attempt is bounded by a per-migration timeout
      (``max_wait`` simulated seconds; expiry raises
      :class:`~repro.core.errors.MigrationTimeoutError`, never a
      silently-partial report);
    * failed attempts are retried up to ``max_retries`` times with bounded
      exponential backoff plus seeded jitter — the backoff runs *simulated*
      time forward, giving partitions a chance to heal and offline queues a
      chance to flush;
    * retries are safe because migration is idempotent end to end: the
      Deployer re-requests only still-missing components, sources keep a
      serialized copy until the receiver's ack, and receivers discard
      duplicate transfers while re-acking;
    * plans run wave by wave; when a wave's retries are
      exhausted and ``transactional`` is set, the system is rolled back to
      the exact state after the last completed wave (limbo components are
      restored to their sources first), so it is never left somewhere
      between two barriers.  A planner-less plan is one wave, so its
      barrier is the pre-plan deployment;
    * plans with an unroutable move (``plan.unreachable``) are refused
      with :class:`~repro.core.errors.MigrationError` before anything is
      enacted.

    What was retried and rolled back is reported in the
    :class:`EffectReport` (``retries``/``rolled_back`` plus ``detail``),
    which the raised error also carries as ``.report``.
    """

    def __init__(self, system: Any, max_wait: float = 1000.0,
                 verify: bool = True, max_retries: int = 3,
                 backoff_base: float = 0.5, backoff_factor: float = 2.0,
                 backoff_max: float = 30.0, jitter: float = 0.1,
                 transactional: bool = True, seed: Optional[int] = None,
                 planner: Optional["MigrationPlanner"] = None,
                 max_replans: int = 2,
                 obs: Optional[Observability] = None):
        self.system = system
        self.max_wait = max_wait
        self.verify = verify
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.transactional = transactional
        #: Re-planner invoked after a barrier rollback: a failed wave's
        #: schedule is rebuilt from the barrier state toward the original
        #: target (up to ``max_replans`` times) before giving up.
        self.planner = planner
        self.max_replans = max_replans
        self._rng = random.Random(seed)
        self.history: list = []
        self.obs = obs if obs is not None else get_observability()
        # Resolve instruments once; with a null registry these are shared
        # no-ops, with a live one they pre-register the effector's metrics
        # so captures always show the subsystem (even at zero activity).
        self._c_migrations = self.obs.counter("effector.migrations")
        self._c_moves = self.obs.counter("effector.moves")
        self._c_retries = self.obs.counter("effector.retries")
        self._c_rollbacks = self.obs.counter("effector.rollbacks")
        self._c_failures = self.obs.counter("effector.failures")
        self._h_kb = self.obs.histogram("effector.kb_moved")
        self._h_duration = self.obs.histogram("effector.sim_duration")
        self._c_waves = self.obs.counter("plan.waves_executed")
        self._c_barrier_rollbacks = self.obs.counter(
            "plan.barrier_rollbacks")
        self._c_replans = self.obs.counter("plan.replans")

    def _backoff(self, retry_index: int) -> float:
        delay = min(self.backoff_base * self.backoff_factor ** retry_index,
                    self.backoff_max)
        if self.jitter:
            delay *= 1.0 + self.jitter * self._rng.uniform(-1.0, 1.0)
        return max(delay, 0.0)

    def effect(self, plan: RedeploymentPlan,
               force: bool = False) -> EffectReport:
        if plan.is_noop:
            report = EffectReport(plan, True, 0)
            self.history.append(report)
            return report
        with self.obs.span("effector.effect",
                           moves=len(plan.moves)) as span:
            report = self._execute(plan, force)
            span.set(succeeded=report.succeeded, retries=report.retries,
                     kb=report.kb_transferred)
        return report

    def _run_wave(self, wave_target: Mapping[str, str],
                  backoffs: list) -> Tuple[Optional[Dict[str, Any]],
                                           Optional[EffectorError], int]:
        """One wave with the per-attempt retry/backoff discipline.

        Returns ``(stats, error, retries)``: *stats* on success, the
        final *error* when the retry budget is exhausted.
        """
        clock = self.system.clock
        retries = 0
        while True:
            try:
                stats = self.system.redeploy(dict(wave_target),
                                             max_wait=self.max_wait)
                return stats, None, retries
            except EffectorError as exc:
                if retries >= self.max_retries:
                    return None, exc, retries
                delay = self._backoff(retries)
                retries += 1
                self._c_retries.inc()
                backoffs.append(delay)
                clock.run(delay)  # heal window: partitions may come back

    def _execute(self, plan: RedeploymentPlan,
                 force: bool = False) -> EffectReport:
        """Execute ``plan.schedule`` wave by wave.

        Every completed wave is a **rollback barrier**: when a wave's
        retry budget runs out the effector restores the last barrier
        state (the pre-plan deployment if no wave has completed), then —
        if it has a ``planner`` — rebuilds the remaining schedule from the
        barrier toward the plan's target and keeps going, up to
        ``max_replans`` times.  Progress made before the failed wave is
        never reverted.  A planner-less plan is one wave, so its failure
        rolls the whole plan back.
        """
        self.preflight(self.system.model, plan, force=force)
        if plan.unreachable:
            message = (f"refusing to enact {plan.summary()}: no usable "
                       f"route for {', '.join(plan.unreachable)}")
            self.history.append(EffectReport(plan, False, 0,
                                             detail={"error": message}))
            self._c_failures.inc()
            raise MigrationError(message)
        self._c_migrations.inc()
        clock = self.system.clock
        started = clock.now
        pre_state = dict(self.system.actual_deployment())
        schedule = plan.schedule
        wave_targets = plan.wave_targets
        barrier = dict(pre_state)
        backoffs: list = []
        moves_executed = 0
        kb_transferred = 0.0
        total_retries = 0
        waves_completed = 0
        barrier_rollbacks = 0
        replans = 0
        last_error: Optional[EffectorError] = None
        rollback_detail: Dict[str, Any] = {}
        while True:
            failed = False
            for wave, wave_target in zip(schedule.waves, wave_targets,
                                         strict=True):
                with self.obs.span("plan.wave", index=wave.index,
                                   moves=len(wave.moves)) as wave_span:
                    stats, error, retries = self._run_wave(wave_target,
                                                           backoffs)
                    total_retries += retries
                    wave_span.set(succeeded=error is None,
                                  retries=retries)
                if error is not None:
                    last_error = error
                    failed = True
                    break
                moves_executed += stats["moves"]
                kb_transferred += stats["kb_transferred"]
                barrier.update(wave_target)
                waves_completed += 1
                self._c_waves.inc()
            if not failed:
                detail: Dict[str, Any] = {
                    "waves_completed": waves_completed,
                    "replans": replans,
                    "barrier_rollbacks": barrier_rollbacks,
                }
                if backoffs:
                    detail["backoffs"] = tuple(backoffs)
                report = EffectReport(
                    plan, True, moves_executed,
                    sim_duration=clock.now - started,
                    kb_transferred=kb_transferred,
                    retries=total_retries, detail=detail)
                self.history.append(report)
                self._c_moves.inc(report.moves_executed)
                self._h_kb.observe(report.kb_transferred)
                self._h_duration.observe(report.sim_duration)
                return report
            # The wave's retry budget ran out: restore the last barrier
            # (keeping every completed wave's progress), then re-plan.
            rolled = False
            if self.transactional:
                try:
                    restored = self.system.reset_redeployment()
                    self.system.redeploy(barrier, max_wait=self.max_wait)
                    rolled = True
                    barrier_rollbacks += 1
                    self._c_barrier_rollbacks.inc()
                    rollback_detail = {"restored_in_place": restored}
                except EffectorError as rollback_exc:
                    rollback_detail = {"rollback_error": str(rollback_exc)}
            if rolled and self.planner is not None \
                    and replans < self.max_replans:
                replans += 1
                self._c_replans.inc()
                schedule = self.planner.schedule(
                    plan.target.as_dict(),
                    current=dict(self.system.actual_deployment()))
                wave_targets = tuple(wave.placements()
                                     for wave in schedule.waves)
                barrier = dict(self.system.actual_deployment())
                continue
            break
        # Out of replans (or rollback itself failed): report the partial
        # outcome.  ``rolled_back`` here means "restored to the last
        # barrier" — earlier waves' progress is retained by design.
        progress = sum(1 for component, host in barrier.items()
                       if pre_state.get(component) != host)
        detail = {
            "error": str(last_error),
            "rollback_scope": "barrier",
            "waves_completed": waves_completed,
            "progress_components": progress,
            "barrier_rollbacks": barrier_rollbacks,
            "replans": replans,
            **rollback_detail,
        }
        if backoffs:
            detail["backoffs"] = tuple(backoffs)
        report = EffectReport(
            plan, False, moves_executed,
            sim_duration=clock.now - started,
            kb_transferred=kb_transferred, retries=total_retries,
            rolled_back=barrier_rollbacks > 0, detail=detail)
        self.history.append(report)
        self._c_failures.inc()
        if barrier_rollbacks:
            self._c_rollbacks.inc()
        raise MigrationTimeoutError(
            f"{plan.summary()} failed at wave "
            f"{waves_completed} after {replans} re-plan"
            f"{'' if replans == 1 else 's'} "
            f"({progress} components of progress retained): {last_error}",
            pending=getattr(last_error, "pending", None),
            report=report) from last_error
