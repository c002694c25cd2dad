"""Integration tests: the full stack end to end (DESIGN.md E9's shape).

These tests run both framework instantiations over the middleware + network
substrate with live workloads, and DeSi attached to a running system.
"""

import pytest

from repro.algorithms import AvalaAlgorithm
from repro.core import (
    AvailabilityObjective, ConstraintSet, LatencyObjective, MemoryConstraint,
)
from repro.core.framework import CentralizedFramework
from repro.decentralized import DecentralizedFramework
from repro.desi import (
    AlgorithmContainer, DeSiModel, MiddlewareAdapter, TableView,
)
from repro.middleware import DistributedSystem
from repro.scenarios import CrisisConfig, build_crisis_scenario, build_sensor_field
from repro.sim import InteractionWorkload, SimClock, StepChange


class TestCentralizedCrisisLoop:
    def test_crisis_scenario_improves_and_survives_degradation(self):
        scenario = build_crisis_scenario(CrisisConfig(
            commanders=2, troops_per_commander=2, seed=10))
        model = scenario.model
        clock = SimClock()
        system = DistributedSystem(model, clock, master_host=scenario.hq,
                                   seed=20)
        framework = CentralizedFramework(
            system, AvailabilityObjective(),
            scenario.constraints,
            user_input=scenario.user_input,
            monitor_interval=2.0, seed=30)
        workload = InteractionWorkload(model, clock, system.emit,
                                       seed=40).start()
        # A commander's HQ uplink degrades mid-run.
        StepChange(system.network, scenario.hq, scenario.commanders[0],
                   at=25.0, attribute="reliability", value=0.3).start()
        initial = framework.modeled_availability()
        framework.start(cycles_per_analysis=2)
        clock.run(60.0)
        framework.stop()
        workload.stop()
        final = framework.modeled_availability()
        assert final >= initial
        # Architect pins survived every redeployment.
        assert model.deployment["status_display"] == scenario.hq
        for index in range(len(scenario.commanders)):
            assert model.deployment[f"coordinator{index}"] != scenario.hq
        # Memory constraint holds on the real system.
        assert MemoryConstraint().is_satisfied(
            model, system.actual_deployment())
        # Ground truth delivery is decent.
        assert framework.app_delivery_ratio() > 0.6

    def test_multiple_redeployments_keep_system_consistent(self):
        scenario = build_crisis_scenario(CrisisConfig(
            commanders=2, troops_per_commander=2, seed=11))
        model = scenario.model
        clock = SimClock()
        system = DistributedSystem(model, clock, master_host=scenario.hq,
                                   seed=21)
        framework = CentralizedFramework(
            system, AvailabilityObjective(), scenario.constraints,
            user_input=scenario.user_input, monitor_interval=1.0, seed=31)
        workload = InteractionWorkload(model, clock, system.emit,
                                       seed=41).start()
        framework.start(cycles_per_analysis=2)
        clock.run(40.0)
        framework.stop()
        workload.stop()
        # Model and actual placement agree after everything settles.
        assert dict(model.deployment) == system.actual_deployment()
        # No application events were black-holed.
        dead = sum(len(arch.dead_letters)
                   for arch in system.architectures.values())
        assert dead == 0


class TestDecentralizedSensorField:
    def test_sensor_field_improves_without_any_master(self):
        scenario = build_sensor_field(rows=3, cols=3, aggregators=3, seed=5)
        model = scenario.model
        clock = SimClock()
        system = DistributedSystem(model, clock, decentralized=True, seed=6)
        system.install_monitoring(ping_interval=0.5, pings_per_round=5)
        workload = InteractionWorkload(model, clock, system.emit,
                                       seed=7).start()
        clock.run(10.0)
        framework = DecentralizedFramework(
            system, AvailabilityObjective(), bid_timeout=0.3,
            availability_goal=0.99)
        before = framework.ground_truth_availability()
        framework.run(6)
        workload.stop()
        after = framework.ground_truth_availability()
        assert after >= before
        assert framework.status()["moves"] > 0
        # Decentralization invariant: still no deployer anywhere.
        assert system.deployer is None
        # Memory constraint holds on the ground truth.
        assert MemoryConstraint().is_satisfied(
            model, system.actual_deployment())


class TestDeSiAgainstLiveSystem:
    def test_explore_then_deploy(self):
        """The §4.3 workflow: monitor a real system into DeSi, run an
        algorithm, effect the chosen result, observe the improvement."""
        scenario = build_crisis_scenario(CrisisConfig(
            commanders=2, troops_per_commander=2, seed=12))
        model = scenario.model
        clock = SimClock()
        system = DistributedSystem(model, clock, master_host=scenario.hq,
                                   seed=22)
        desi = DeSiModel(model.copy(name="desi"))
        adapter = MiddlewareAdapter(desi, system, epsilon=0.2, window=2)
        system.install_monitoring(ping_interval=0.5, pings_per_round=10,
                                  report_interval=1.0)
        workload = InteractionWorkload(model, clock, system.emit,
                                       seed=42).start()
        for __ in range(5):
            clock.run(1.0)
            adapter.sync_from_platform()
        workload.stop()

        objective = AvailabilityObjective()
        container = AlgorithmContainer(desi)
        container.registry.register("avala", lambda: AvalaAlgorithm(
            objective, scenario.constraints, seed=2))
        container.invoke("avala")
        best = desi.results.best(objective)
        assert best is not None and best.valid

        before = objective.evaluate(model, system.actual_deployment())
        adapter.deploy_to_platform(best)
        after = objective.evaluate(model, system.actual_deployment())
        assert after >= before - 1e-9
        assert system.actual_deployment() == dict(best.deployment)

        # The Figure-9 page renders against the live-monitored model.
        page = TableView(desi).render()
        assert "avala" in page
