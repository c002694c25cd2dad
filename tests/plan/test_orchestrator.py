"""Wave-by-wave orchestration: barrier rollback, re-planning, and the
naive-vs-scheduled acceptance demo under a mid-migration partition."""

import pytest

from repro.core.effector import (
    MiddlewareEffector, plan_redeployment,
)
from repro.core.errors import MigrationError, MigrationTimeoutError
from repro.core.model import DeploymentModel
from repro.faults import FaultAction, FaultInjector, FaultPlan
from repro.middleware import DistributedSystem
from repro.plan import MigrationPlanner
from repro.sim import SimClock


def triangle_world():
    """Master a and slaves b, c; two components on a headed elsewhere."""
    model = DeploymentModel()
    for host in ("a", "b", "c"):
        model.add_host(host, memory=100.0)
    for pair in (("a", "b"), ("a", "c"), ("b", "c")):
        model.connect_hosts(*pair, reliability=1.0, bandwidth=100.0,
                            delay=0.01)
    for component in ("x", "y"):
        model.add_component(component, memory=5.0)
        model.deploy(component, "a")
    clock = SimClock()
    system = DistributedSystem(model, clock, master_host="a", seed=1)
    return model, clock, system


TARGET = {"x": "b", "y": "c"}


def cut_c_fault(system, model):
    """Partition host c shortly after the migration starts; heal later."""
    plan = FaultPlan(name="cut-c", duration=12.0, actions=[
        FaultAction(0.05, "partition", ("c",), {"duration": 6.0}),
    ])
    return FaultInjector(system.network, plan, model=model).arm()


class TestWaveExecution:
    def test_schedule_executes_and_reports_wave_detail(self):
        model, __, system = triangle_world()
        plan = plan_redeployment(model, TARGET,
                                 planner=MigrationPlanner(model))
        effector = MiddlewareEffector(system, seed=1)
        report = effector.effect(plan)
        assert report.succeeded
        assert dict(system.actual_deployment()) == TARGET
        assert report.detail["waves_completed"] == len(plan.schedule.waves)
        assert report.detail["replans"] == 0
        assert report.detail["barrier_rollbacks"] == 0
        data = report.to_dict()
        assert data["plan"]["waves"] == len(plan.schedule.waves)
        assert data["plan"]["predicted_makespan"] == pytest.approx(
            plan.schedule.makespan)

    def test_noop_schedule_short_circuits(self):
        model, __, system = triangle_world()
        plan = plan_redeployment(model, {"x": "a", "y": "a"},
                                 planner=MigrationPlanner(model))
        report = MiddlewareEffector(system, seed=1).effect(plan)
        assert report.succeeded and report.moves_executed == 0


class TestAcceptanceDemo:
    """The headline comparison: under a partition that outlives the naive
    retry budget, whole-plan rollback loses ALL progress while the
    wave-barrier orchestrator retains the completed wave and finishes."""

    EFFECTOR_OPTS = dict(max_wait=2.0, max_retries=1, backoff_base=1.0,
                         jitter=0.0, seed=1)

    def test_naive_rollback_loses_all_progress(self):
        model, __, system = triangle_world()
        cut_c_fault(system, model)
        plan = plan_redeployment(model, TARGET)
        effector = MiddlewareEffector(system, **self.EFFECTOR_OPTS)
        with pytest.raises(MigrationTimeoutError) as excinfo:
            effector.effect(plan)
        # Transactional whole-plan rollback: x had reached b, but the
        # failure of y's transfer reverted it too.
        assert dict(system.actual_deployment()) == {"x": "a", "y": "a"}
        assert excinfo.value.report.rolled_back
        assert excinfo.value.report.detail["waves_completed"] == 0
        assert excinfo.value.report.detail["progress_components"] == 0

    def test_wave_barriers_complete_through_the_same_fault(self):
        model, __, system = triangle_world()
        cut_c_fault(system, model)
        planner = MigrationPlanner(model, max_wave_moves=1)
        plan = plan_redeployment(model, TARGET, planner=planner)
        effector = MiddlewareEffector(system, **self.EFFECTOR_OPTS)
        report = effector.effect(plan)
        assert report.succeeded
        assert dict(system.actual_deployment()) == TARGET
        # The partitioned wave had to wait out the heal via backoff.
        assert report.retries >= 1
        assert report.detail["waves_completed"] == 2

    def test_replanning_recovers_without_retry_budget(self):
        model, __, system = triangle_world()
        cut_c_fault(system, model)
        planner = MigrationPlanner(model, max_wave_moves=1)
        plan = plan_redeployment(model, TARGET, planner=planner)
        effector = MiddlewareEffector(system, max_wait=2.0, max_retries=0,
                                      backoff_base=1.0, jitter=0.0,
                                      seed=1, planner=planner,
                                      max_replans=5)
        report = effector.effect(plan)
        assert report.succeeded
        assert dict(system.actual_deployment()) == TARGET
        assert report.detail["replans"] >= 1
        assert report.detail["barrier_rollbacks"] >= 1


class _FailingWaveSystem:
    """Stub system whose redeploy fails permanently for one component.

    The live simulator's event-driven clock jumps to the next scheduled
    event (e.g. a partition heal) inside ``redeploy``, so a heal-scheduled
    fault cannot model a *permanent* failure; this stub can.
    """

    def __init__(self, model, poison="y"):
        self.model = model
        self.clock = SimClock()
        self.poison = poison
        self._deployment = dict(model.deployment.as_dict())

    def actual_deployment(self):
        return dict(self._deployment)

    def redeploy(self, target, max_wait=None):
        moved = 0
        kb = 0.0
        for component, host in sorted(target.items()):
            if self._deployment.get(component) == host:
                continue
            if component == self.poison \
                    and host != self.model.deployment[component]:
                raise MigrationError(
                    f"host {host!r} unreachable for {component!r}")
            kb += self.model.component(component).memory
            self._deployment[component] = host
            moved += 1
        return {"moves": moved, "kb_transferred": kb}

    def reset_redeployment(self):
        return 0


class TestBarrierFailure:
    def test_exhausted_replans_keep_barrier_progress(self):
        model, __, ___ = triangle_world()
        system = _FailingWaveSystem(model, poison="y")
        planner = MigrationPlanner(model, max_wave_moves=1)
        plan = plan_redeployment(model, TARGET, planner=planner)
        effector = MiddlewareEffector(system, max_retries=0,
                                      backoff_base=0.0, jitter=0.0,
                                      seed=1, planner=planner,
                                      max_replans=2)
        with pytest.raises(MigrationTimeoutError) as excinfo:
            effector.effect(plan)
        report = excinfo.value.report
        assert report.detail["replans"] == 2
        # x's wave completed before y's poisoned wave failed, and barrier
        # rollback (unlike whole-plan rollback) kept that progress.
        assert system.actual_deployment()["x"] == "b"
        assert report.detail["progress_components"] >= 1
        assert "progress retained" in str(excinfo.value)

    def test_failure_without_planner_stops_at_barrier(self):
        model, __, ___ = triangle_world()
        system = _FailingWaveSystem(model, poison="y")
        plan = plan_redeployment(model, TARGET,
                                 planner=MigrationPlanner(model))
        effector = MiddlewareEffector(system, max_retries=0,
                                      backoff_base=0.0, jitter=0.0, seed=1)
        with pytest.raises(MigrationTimeoutError) as excinfo:
            effector.effect(plan)
        assert excinfo.value.report.detail["replans"] == 0
        assert system.actual_deployment()["y"] == "a"


class _RecordingSystem(_FailingWaveSystem):
    """Stub system that records the target of every ``redeploy`` call."""

    def __init__(self, model):
        super().__init__(model, poison=None)
        self.targets = []

    def redeploy(self, target, max_wait=None):
        self.targets.append(dict(target))
        return super().redeploy(target, max_wait=max_wait)


class TestEnactmentTargets:
    def test_planner_less_plan_enacts_the_whole_target(self):
        model, __, ___ = triangle_world()
        system = _RecordingSystem(model)
        # y stays on a: the whole target still names it.
        plan = plan_redeployment(model, {"x": "b", "y": "a"})
        MiddlewareEffector(system, seed=1).effect(plan)
        assert system.targets == [plan.target.as_dict()]

    def test_planner_waves_enact_only_their_own_moves(self):
        model, __, ___ = triangle_world()
        system = _RecordingSystem(model)
        planner = MigrationPlanner(model, max_wave_moves=1)
        plan = plan_redeployment(model, TARGET, planner=planner)
        MiddlewareEffector(system, seed=1).effect(plan)
        assert len(plan.schedule.waves) == 2
        assert system.targets == [
            {move.component: move.target for move in wave.moves}
            for wave in plan.schedule.waves]
