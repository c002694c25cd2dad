"""Unit tests for redeployment planning and effectors."""

import pytest

from repro.core.effector import (
    ModelEffector, MiddlewareEffector, plan_redeployment,
)
from repro.core.errors import (
    EffectorError, LintError, MigrationError, PreflightError,
)
from repro.core.model import Deployment, DeploymentModel
from repro.middleware import DistributedSystem
from repro.obs import Observability
from repro.plan import MigrationPlanner
from repro.sim import SimClock


class TestPlanRedeployment:
    def test_noop_plan(self, tiny_model):
        plan = plan_redeployment(tiny_model, tiny_model.deployment)
        assert plan.is_noop
        assert plan.estimated_kb == 0.0
        assert plan.estimated_time == 0.0

    def test_moves_and_volume(self, tiny_model):
        target = {"c1": "hB", "c2": "hA", "c3": "hB"}
        plan = plan_redeployment(tiny_model, target)
        assert len(plan.moves) == 1
        assert plan.moves[0].component == "c1"
        assert plan.estimated_kb == pytest.approx(10.0)  # c1's memory

    def test_time_uses_link_parameters(self, tiny_model):
        target = {"c1": "hB", "c2": "hA", "c3": "hB"}
        plan = plan_redeployment(tiny_model, target)
        # delay 0.01 + 10 KB / 100 KB/s = 0.11
        assert plan.estimated_time == pytest.approx(0.11)

    def test_parallel_pairs_take_max(self, tiny_model):
        # c1: hA->hB (10KB) and c3: hB->hA (10KB) proceed in parallel but
        # share the one hA-hB link: delay 0.01 + 20 KB / 100 KB/s = 0.21.
        target = {"c1": "hB", "c2": "hA", "c3": "hA"}
        plan = plan_redeployment(tiny_model, target)
        assert plan.estimated_time == pytest.approx(0.21)
        assert plan.estimated_kb == pytest.approx(20.0)

    def test_relay_path_when_no_direct_link(self):
        model = DeploymentModel()
        model.add_host("hq")
        model.add_host("a")
        model.add_host("b")
        model.connect_hosts("hq", "a", bandwidth=100.0, delay=0.01)
        model.connect_hosts("hq", "b", bandwidth=100.0, delay=0.01)
        model.add_component("x", memory=10.0)
        model.deploy("x", "a")
        plan = plan_redeployment(model, {"x": "b"})
        # Two legs of 0.01 + 10/100 each.
        assert plan.estimated_time == pytest.approx(0.22)

    def test_unreachable_pair_is_infinite(self):
        model = DeploymentModel()
        model.add_host("a")
        model.add_host("b")  # totally disconnected
        model.add_component("x", memory=10.0)
        model.deploy("x", "a")
        plan = plan_redeployment(model, {"x": "b"})
        assert plan.estimated_time == float("inf")
        assert plan.unreachable == ("x",)

    def test_reachable_plan_has_no_unreachable(self, tiny_model):
        plan = plan_redeployment(tiny_model,
                                 {"c1": "hB", "c2": "hA", "c3": "hB"})
        assert plan.unreachable == ()

    def test_planner_attaches_wave_schedule(self, tiny_model):
        target = {"c1": "hB", "c2": "hA", "c3": "hB"}
        naive = plan_redeployment(tiny_model, target).schedule
        assert naive.detail["strategy"] == "naive-all-at-once"
        plan = plan_redeployment(tiny_model, target,
                                 planner=MigrationPlanner(tiny_model))
        assert "strategy" not in plan.schedule.detail
        assert plan.schedule.final_state() == target
        assert "waves" in plan.summary()

    def test_explicit_current_overrides_model(self, tiny_model):
        plan = plan_redeployment(
            tiny_model, {"c1": "hA", "c2": "hA", "c3": "hA"},
            current={"c1": "hB", "c2": "hA", "c3": "hA"})
        assert len(plan.moves) == 1
        assert plan.moves[0] == plan.moves[0].__class__("c1", "hB", "hA")


class TestModelEffector:
    def test_applies_target_to_model(self, tiny_model):
        effector = ModelEffector(tiny_model)
        target = {"c1": "hB", "c2": "hB", "c3": "hB"}
        plan = plan_redeployment(tiny_model, target)
        report = effector.effect(plan)
        assert report.succeeded
        assert dict(tiny_model.deployment) == target
        assert effector.history == [report]


class TestPreflightGate:
    def overloading_plan(self, tiny_model):
        """A plan that would overflow hB's memory."""
        tiny_model.set_host_param("hB", "memory", 15.0)
        target = {"c1": "hB", "c2": "hB", "c3": "hB"}  # needs 30
        return plan_redeployment(tiny_model, target)

    def test_invalid_plan_blocked_before_mutation(self, tiny_model):
        effector = ModelEffector(tiny_model)
        before = dict(tiny_model.deployment)
        with pytest.raises(PreflightError) as excinfo:
            effector.effect(self.overloading_plan(tiny_model))
        assert dict(tiny_model.deployment) == before  # untouched
        assert effector.history == []
        assert any(f.rule == "MV003" for f in excinfo.value.findings)

    def test_preflight_error_is_lint_error(self, tiny_model):
        effector = ModelEffector(tiny_model)
        with pytest.raises(LintError):
            effector.effect(self.overloading_plan(tiny_model))

    def test_force_overrides_gate(self, tiny_model):
        effector = ModelEffector(tiny_model)
        report = effector.effect(self.overloading_plan(tiny_model),
                                 force=True)
        assert report.succeeded

    def test_verify_false_disables_gate(self, tiny_model):
        effector = ModelEffector(tiny_model, verify=False)
        assert effector.effect(self.overloading_plan(tiny_model)).succeeded

    def test_partial_target_overlays_current_deployment(self, tiny_model):
        # The plan only mentions c3; c1/c2 stay put and must not be
        # reported as unmapped by the gate.
        effector = ModelEffector(tiny_model)
        plan = plan_redeployment(tiny_model, {"c3": "hA"})
        assert effector.effect(plan).succeeded

    def test_middleware_effector_gated_too(self, tiny_model):
        tiny_model.set_host_param("hB", "memory", 15.0)
        clock = SimClock()
        system = DistributedSystem(tiny_model, clock, seed=4)
        effector = MiddlewareEffector(system)
        plan = plan_redeployment(tiny_model,
                                 {"c1": "hB", "c2": "hB", "c3": "hB"})
        with pytest.raises(PreflightError):
            effector.effect(plan)


class TestMiddlewareEffector:
    def test_effects_live_system(self, tiny_model):
        clock = SimClock()
        system = DistributedSystem(tiny_model, clock, seed=4)
        effector = MiddlewareEffector(system)
        target = {"c1": "hB", "c2": "hB", "c3": "hB"}
        plan = plan_redeployment(tiny_model, target)
        report = effector.effect(plan)
        assert report.succeeded
        assert report.moves_executed == 2
        assert system.actual_deployment() == target
        assert report.kb_transferred > 0.0

    def test_noop_plan_short_circuits(self, tiny_model):
        clock = SimClock()
        system = DistributedSystem(tiny_model, clock, seed=4)
        effector = MiddlewareEffector(system)
        plan = plan_redeployment(tiny_model, tiny_model.deployment)
        report = effector.effect(plan)
        assert report.succeeded
        assert report.moves_executed == 0
        assert clock.now == 0.0

    def test_partition_failure_raises_and_records(self):
        model = DeploymentModel()
        model.add_host("a", memory=100.0)
        model.add_host("b", memory=100.0)
        model.connect_hosts("a", "b", connected=False)
        model.add_component("x", memory=5.0)
        model.deploy("x", "a")
        clock = SimClock()
        system = DistributedSystem(model, clock, master_host="a", seed=1)
        effector = MiddlewareEffector(system, max_wait=5.0)
        plan = plan_redeployment(model, {"x": "b"})
        with pytest.raises(EffectorError):
            effector.effect(plan)
        assert effector.history[-1].succeeded is False

    def test_unreachable_plan_is_refused_before_enacting(self):
        model = DeploymentModel()
        model.add_host("a", memory=100.0)
        model.add_host("b", memory=100.0)
        model.add_component("x", memory=5.0)
        model.deploy("x", "a")
        clock = SimClock()
        system = DistributedSystem(model, clock, master_host="a", seed=1)
        obs = Observability()
        effector = MiddlewareEffector(system, obs=obs)
        plan = plan_redeployment(model, {"x": "b"})
        assert plan.schedule.waves == ()
        with pytest.raises(MigrationError, match="no usable route for x"):
            effector.effect(plan)
        assert clock.now == 0.0
        assert system.actual_deployment() == {"x": "a"}
        assert effector.history[-1].succeeded is False
        assert obs.counter("effector.failures").value == 1

    def test_report_dict_carries_schedule_and_unreachable(self, tiny_model):
        clock = SimClock()
        system = DistributedSystem(tiny_model, clock, seed=4)
        effector = MiddlewareEffector(system)
        target = {"c1": "hB", "c2": "hB", "c3": "hB"}
        plan = plan_redeployment(tiny_model, target,
                                 planner=MigrationPlanner(tiny_model))
        data = effector.effect(plan).to_dict()
        assert data["plan"]["waves"] == len(plan.schedule.waves)
        assert data["plan"]["predicted_makespan"] == pytest.approx(
            plan.schedule.makespan)
        assert "unreachable" not in data["plan"]
