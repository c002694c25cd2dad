"""Unit tests for the analyzer's Section-5.1 policy."""

import pytest

from repro.algorithms import HillClimbingAlgorithm
from repro.core.analyzer import Analyzer, ObjectiveHistory
from repro.core.constraints import ConstraintSet, MemoryConstraint
from repro.core.errors import RegistryError
from repro.core.objectives import AvailabilityObjective, LatencyObjective


@pytest.fixture
def analyzer():
    return Analyzer(AvailabilityObjective(),
                    ConstraintSet([MemoryConstraint()]),
                    seed=5)


class TestObjectiveHistory:
    def test_volatility_requires_window(self):
        history = ObjectiveHistory()
        history.record(0.0, 0.9)
        assert history.volatility(window=3) is None

    def test_volatility_is_spread(self):
        history = ObjectiveHistory()
        for time, value in enumerate((0.8, 0.9, 0.85)):
            history.record(float(time), value)
        assert history.volatility(window=3) == pytest.approx(0.1)

    def test_is_stable(self):
        history = ObjectiveHistory()
        for time in range(5):
            history.record(float(time), 0.9)
        assert history.is_stable(threshold=0.05, window=5) is True
        history.record(5.0, 0.2)
        assert history.is_stable(threshold=0.05, window=5) is False

    def test_bounded_size(self):
        history = ObjectiveHistory(max_samples=10)
        for time in range(25):
            history.record(float(time), 0.5)
        assert len(history.samples) == 10
        assert history.samples[0][0] == 15.0


class TestAlgorithmSelection:
    def test_tiny_system_uses_exact(self, analyzer, tiny_model):
        assert analyzer.select_algorithms(tiny_model) == ["exact"]

    def test_large_system_never_uses_exact(self, analyzer, medium_model):
        names = analyzer.select_algorithms(medium_model)
        assert "exact" not in names

    def test_unstable_profile_selects_fast_tier(self, analyzer, medium_model):
        for time, value in enumerate((0.9, 0.3, 0.8, 0.2, 0.9)):
            analyzer.history.record(float(time), value)
        assert analyzer.select_algorithms(medium_model) == ["stochastic_fast"]

    def test_stable_profile_selects_thorough_tier(self, analyzer,
                                                  medium_model):
        for time in range(5):
            analyzer.history.record(float(time), 0.9)
        names = analyzer.select_algorithms(medium_model)
        assert set(names) == {"avala", "stochastic", "hillclimb"}

    def test_no_profile_defaults_to_thorough(self, analyzer, medium_model):
        names = analyzer.select_algorithms(medium_model)
        assert set(names) == {"avala", "stochastic", "hillclimb"}

    def test_size_thresholds_configurable(self, medium_model):
        generous = Analyzer(AvailabilityObjective(),
                            exact_host_limit=100,
                            exact_component_limit=100)
        assert generous.select_algorithms(medium_model) == ["exact"]


class TestAlgorithmSuiteManagement:
    def test_register_and_unregister(self, analyzer):
        analyzer.registry.register(
            "extra", lambda: HillClimbingAlgorithm(
                analyzer.objective, analyzer.constraints), tier="fast")
        assert "extra" in analyzer.algorithm_names
        analyzer.registry.unregister("extra")
        assert "extra" not in analyzer.algorithm_names

    def test_register_moves_between_tiers(self, analyzer):
        analyzer.registry.register(
            "avala", lambda: HillClimbingAlgorithm(
                analyzer.objective, analyzer.constraints), tier="fast",
            replace=True)
        assert "avala" in analyzer.registry.members("fast")
        assert "avala" not in analyzer.registry.members("thorough")

    def test_unknown_tier_rejected(self, analyzer):
        with pytest.raises(RegistryError):
            analyzer.registry.register("x", lambda: None, tier="bogus")


class TestDecisions:
    def test_improving_system_redeploys(self, analyzer, tiny_model):
        # Split the chatty pair across the 0.5-reliability link.
        tiny_model.deploy("c1", "hA")
        tiny_model.deploy("c2", "hB")
        decision = analyzer.analyze(tiny_model)
        assert decision.will_redeploy
        assert decision.plan is not None
        assert decision.selected.value > decision.current_value

    def test_already_optimal_no_action(self, analyzer, tiny_model):
        tiny_model.set_deployment({"c1": "hA", "c2": "hA", "c3": "hA"})
        decision = analyzer.analyze(tiny_model)
        assert not decision.will_redeploy
        assert "below threshold" in decision.reason or \
            "no algorithm" in decision.reason

    def test_min_improvement_threshold(self, tiny_model):
        picky = Analyzer(AvailabilityObjective(),
                         ConstraintSet([MemoryConstraint()]),
                         min_improvement=0.5)
        decision = picky.analyze(tiny_model)
        assert not decision.will_redeploy

    def test_latency_guard_vetoes(self, tiny_model):
        """Availability prefers collocation on either host, but we make hA's
        components enormous talkers so moving them over the slow link is a
        latency disaster; the guard must veto."""
        model = tiny_model
        # Slow, fairly reliable link: availability gain from collocating is
        # real but latency to ship big events is awful.
        model.set_physical_link_param("hA", "hB", "reliability", 0.98)
        model.set_physical_link_param("hA", "hB", "bandwidth", 0.5)
        model.set_logical_link_param("c1", "c2", "evt_size", 50.0)
        guarded = Analyzer(AvailabilityObjective(),
                           ConstraintSet([MemoryConstraint()]),
                           latency_guard=LatencyObjective(),
                           guard_tolerance=1.05,
                           min_improvement=0.001)
        unguarded = Analyzer(AvailabilityObjective(),
                             ConstraintSet([MemoryConstraint()]),
                             min_improvement=0.001)
        guarded_decision = guarded.analyze(model)
        unguarded_decision = unguarded.analyze(model)
        # Without the guard the analyzer would redeploy; with it, at least
        # some candidate is vetoed or a latency-acceptable one is chosen.
        assert unguarded_decision.will_redeploy
        if guarded_decision.will_redeploy:
            before = guarded_decision.guard_values["latency_before"]
            after = LatencyObjective().evaluate(
                model, guarded_decision.selected.deployment)
            assert after <= before * 1.05 + 1e-9
        else:
            assert "veto" in guarded_decision.reason

    def test_decisions_are_logged(self, analyzer, tiny_model):
        analyzer.analyze(tiny_model)
        analyzer.analyze(tiny_model)
        assert len(analyzer.decisions) == 2
        assert len(analyzer.history.samples) == 2

    def test_profile_summary(self, analyzer, tiny_model):
        analyzer.analyze(tiny_model, now=1.0)
        analyzer.record_outcome(True)
        summary = analyzer.profile_summary()
        assert summary["samples"] == 1
        assert summary["redeployments"] == 1

    def test_medium_system_decision_is_valid(self, medium_model):
        analyzer = Analyzer(AvailabilityObjective(),
                            ConstraintSet([MemoryConstraint()]), seed=2)
        decision = analyzer.analyze(medium_model)
        if decision.will_redeploy:
            assert decision.plan is not None
            checker = ConstraintSet([MemoryConstraint()])
            assert checker.is_satisfied(medium_model,
                                        decision.selected.deployment)


class TestPlanGuards:
    def unroutable_model(self):
        """Collocating the chatty pair would improve availability, but the
        hosts have no physical route between them at all."""
        from repro.core.model import DeploymentModel
        model = DeploymentModel(name="islands")
        model.add_host("hA", memory=100.0)
        model.add_host("hB", memory=100.0)
        model.add_component("c1", memory=10.0)
        model.add_component("c2", memory=10.0)
        model.connect_components("c1", "c2", frequency=4.0, evt_size=2.0)
        model.deploy("c1", "hA")
        model.deploy("c2", "hB")
        return model

    def test_unreachable_plan_is_refused(self, analyzer):
        decision = analyzer.analyze(self.unroutable_model())
        assert not decision.will_redeploy
        assert decision.reason.startswith(
            "plan moves components with no usable route:")

    def test_planner_feeds_schedule_guard_values(self, tiny_model):
        from repro.plan import MigrationPlanner
        tiny_model.deploy("c1", "hA")
        tiny_model.deploy("c2", "hB")
        constraints = ConstraintSet([MemoryConstraint()])
        scheduled = Analyzer(AvailabilityObjective(), constraints, seed=5,
                             planner=MigrationPlanner(tiny_model,
                                                      constraints))
        decision = scheduled.analyze(tiny_model)
        assert decision.will_redeploy
        assert decision.guard_values["predicted_makespan"] \
            == pytest.approx(decision.plan.schedule.makespan)
        assert decision.guard_values["predicted_disruption_kb"] \
            == pytest.approx(decision.plan.schedule.total_kb)

    def test_max_makespan_vetoes_slow_migrations(self, tiny_model):
        from repro.plan import MigrationPlanner
        tiny_model.deploy("c1", "hA")
        tiny_model.deploy("c2", "hB")
        constraints = ConstraintSet([MemoryConstraint()])
        # The veto reads every plan's schedule, planner-built or naive.
        for planner in (MigrationPlanner(tiny_model, constraints), None):
            picky = Analyzer(AvailabilityObjective(), constraints, seed=5,
                             planner=planner, max_makespan=1e-9)
            decision = picky.analyze(tiny_model)
            assert not decision.will_redeploy
            assert "exceeds limit" in decision.reason
            assert "predicted_makespan" in decision.guard_values

    def test_without_planner_records_naive_makespan(self, analyzer,
                                                    tiny_model):
        from repro.plan import naive_schedule
        tiny_model.deploy("c1", "hA")
        tiny_model.deploy("c2", "hB")
        decision = analyzer.analyze(tiny_model)
        assert decision.will_redeploy
        naive = naive_schedule(tiny_model, decision.plan.target.as_dict())
        assert len(decision.plan.schedule.waves) == 1
        assert decision.guard_values["predicted_makespan"] \
            == pytest.approx(naive.makespan)
        assert decision.guard_values["predicted_disruption_kb"] \
            == pytest.approx(naive.total_kb)
