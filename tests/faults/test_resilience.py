"""End-to-end resilience tests: reproducibility, retry-through-partition,
transactional rollback, and the with/without-redeployment comparison."""

import json

import pytest

from repro.core.effector import MiddlewareEffector, plan_redeployment
from repro.core.errors import MigrationTimeoutError
from repro.core.model import DeploymentModel
from repro.faults import (
    FaultAction, FaultInjector, FaultPlan, random_churn, rolling_partitions,
    run_campaign,
)
from repro.lint import verify_deployment
from repro.middleware import DistributedSystem
from repro.scenarios import CrisisConfig, build_crisis_scenario
from repro.sim import SimClock


def two_host_world():
    """Master a, slave b, one good link; component x on a."""
    model = DeploymentModel()
    model.add_host("a", memory=100.0)
    model.add_host("b", memory=100.0)
    model.connect_hosts("a", "b", reliability=1.0, bandwidth=100.0,
                        delay=0.01)
    model.add_component("x", memory=5.0)
    model.deploy("x", "a")
    clock = SimClock()
    system = DistributedSystem(model, clock, master_host="a", seed=1)
    return model, clock, system


class TestReproducibility:
    def test_same_plan_and_seed_render_byte_identical_json(self):
        def once():
            scenario = build_crisis_scenario(CrisisConfig(seed=3))
            plan = rolling_partitions(scenario.model, 20.0,
                                      exclude_hosts=("hq",))
            return run_campaign(plan, seed=11, duration=20.0)

        first, second = once(), once()
        assert first.render() == second.render()
        # Timing is genuinely excluded from the canonical form.
        assert "wall_seconds" not in first.render()
        assert "wall_seconds" in first.render(include_timing=True)

    def test_report_shape(self):
        scenario = build_crisis_scenario(CrisisConfig(seed=3))
        plan = rolling_partitions(scenario.model, 15.0,
                                  exclude_hosts=("hq",))
        report = run_campaign(plan, seed=2, duration=15.0)
        data = json.loads(report.render())
        assert data["plan"] == plan.name
        assert data["faults"]["injected"] > 0
        assert 0.0 <= data["availability"]["delivered"] <= 1.0
        assert data["detail"]["post_lint_errors"] == 0
        assert report.summary_line().startswith(plan.name)


class TestPartitionMidMigration:
    def plan_for(self, model):
        return plan_redeployment(model, {"x": "b"})

    def test_retries_complete_after_heal(self):
        model, clock, system = two_host_world()
        # Sever b 5 ms in — the transfer (delay 10 ms) dies mid-flight —
        # and heal at t=5, inside the effector's second attempt.
        campaign = FaultPlan(name="sever-mid-migration", duration=10.0,
                             actions=[
            FaultAction(0.005, "partition", ("b",), {"duration": 4.995}),
        ])
        FaultInjector(system.network, campaign, model=model).arm()
        effector = MiddlewareEffector(system, max_wait=3.0, max_retries=3,
                                      backoff_base=1.0, jitter=0.0)
        report = effector.effect(self.plan_for(model))
        assert report.succeeded
        assert report.retries >= 1
        assert not report.rolled_back
        actual = system.actual_deployment()
        assert actual == {"x": "b"}
        assert not verify_deployment(model, actual).has_errors

    def test_unhealed_partition_rolls_back_to_pre_plan_deployment(self):
        model, clock, system = two_host_world()
        campaign = FaultPlan(name="sever-forever", duration=100.0, actions=[
            FaultAction(0.005, "partition", ("b",)),
        ])
        FaultInjector(system.network, campaign, model=model).arm()
        effector = MiddlewareEffector(system, max_wait=3.0, max_retries=1,
                                      backoff_base=1.0, jitter=0.0)
        pre_state = dict(system.actual_deployment())
        with pytest.raises(MigrationTimeoutError) as excinfo:
            effector.effect(self.plan_for(model))
        error = excinfo.value
        assert error.report is not None
        assert error.report.rolled_back
        assert error.report.retries == 1
        assert "restored_in_place" in error.report.detail
        # Exactly the pre-plan deployment: never zero hosts, never two.
        actual = system.actual_deployment()
        assert actual == pre_state
        assert sorted(actual) == ["x"]
        assert not verify_deployment(model, actual).has_errors

    def test_failure_report_lands_in_history(self):
        model, clock, system = two_host_world()
        system.network.set_connected("a", "b", False)
        effector = MiddlewareEffector(system, max_wait=2.0, max_retries=0,
                                      jitter=0.0)
        with pytest.raises(MigrationTimeoutError):
            effector.effect(self.plan_for(model))
        assert len(effector.history) == 1
        assert effector.history[0].succeeded is False
        assert effector.history[0].rolled_back

    def test_non_transactional_skips_rollback(self):
        model, clock, system = two_host_world()
        system.network.set_connected("a", "b", False)
        effector = MiddlewareEffector(system, max_wait=2.0, max_retries=0,
                                      jitter=0.0, transactional=False)
        with pytest.raises(MigrationTimeoutError) as excinfo:
            effector.effect(self.plan_for(model))
        assert not excinfo.value.report.rolled_back


class TestChurnComparison:
    def test_redeployment_beats_endurance_under_churn(self):
        """The paper's headline effect: under the same fault campaign the
        closed improvement loop delivers more application events than a
        system that merely endures."""
        def run(improve):
            scenario = build_crisis_scenario(CrisisConfig(seed=3))
            plan = random_churn(scenario.model, 40.0, seed=5,
                                exclude_hosts=("hq",))
            return run_campaign(plan, seed=5, improve=improve)

        improved = run(True)
        endured = run(False)
        assert improved.improvement_loop and not endured.improvement_loop
        assert improved.migrations_attempted >= 1
        assert endured.migrations_attempted == 0
        assert improved.delivered_availability \
            > endured.delivered_availability
        assert improved.detail["post_lint_errors"] == 0
        assert endured.detail["post_lint_errors"] == 0
