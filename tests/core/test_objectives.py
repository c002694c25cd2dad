"""Unit tests for objective functions."""

import pytest

from repro.algorithms.engine import EvaluationEngine
from repro.core.model import DeploymentModel
from repro.core.objectives import (
    MAXIMIZE, MINIMIZE, UNREACHABLE_COST, AvailabilityObjective,
    CommunicationCostObjective, LatencyObjective, SecurityObjective,
    WeightedObjective, evaluate_all,
)


class TestAvailability:
    def test_hand_computed_value(self, tiny_model):
        """A = (4*1.0 [c1-c2 local] + 1*0.5 [c2-c3 over link]) / 5."""
        objective = AvailabilityObjective()
        value = objective.evaluate(tiny_model, tiny_model.deployment)
        assert value == pytest.approx((4 * 1.0 + 1 * 0.5) / 5.0)

    def test_all_collocated_is_perfect(self, tiny_model):
        objective = AvailabilityObjective()
        together = {"c1": "hA", "c2": "hA", "c3": "hA"}
        assert objective.evaluate(tiny_model, together) == pytest.approx(1.0)

    def test_no_interactions_is_perfect(self):
        model = DeploymentModel()
        model.add_host("h1")
        model.add_component("c1")
        model.deploy("c1", "h1")
        assert AvailabilityObjective().evaluate(model, model.deployment) == 1.0

    def test_undeployed_component_delivers_nothing(self, tiny_model):
        objective = AvailabilityObjective()
        partial = {"c1": "hA", "c2": "hA"}  # c3 missing
        assert objective.evaluate(tiny_model, partial) == \
            pytest.approx(4.0 / 5.0)

    def test_bounded_in_unit_interval(self, medium_model):
        objective = AvailabilityObjective()
        value = objective.evaluate(medium_model, medium_model.deployment)
        assert 0.0 <= value <= 1.0

    def test_move_delta_matches_recompute(self, small_model):
        objective = AvailabilityObjective()
        engine = EvaluationEngine(objective)
        deployment = dict(small_model.deployment)
        base = objective.evaluate(small_model, deployment)
        for component in small_model.component_ids:
            for host in small_model.host_ids:
                delta = engine.move_delta(small_model, deployment,
                                          component, host)
                moved = dict(deployment)
                moved[component] = host
                expected = objective.evaluate(small_model, moved) - base
                assert delta == pytest.approx(expected, abs=1e-12)

    def test_criticality_weighting(self, tiny_model):
        tiny_model.set_logical_link_param("c2", "c3", "criticality", 10.0)
        plain = AvailabilityObjective()
        weighted = AvailabilityObjective(use_criticality=True)
        deployment = tiny_model.deployment
        # Criticality amplifies the unreliable c2-c3 interaction's weight,
        # so weighted availability must be lower.
        assert weighted.evaluate(tiny_model, deployment) < \
            plain.evaluate(tiny_model, deployment)

    def test_direction_helpers(self):
        objective = AvailabilityObjective()
        assert objective.direction == MAXIMIZE
        assert objective.is_better(0.9, 0.5)
        assert not objective.is_better(0.5, 0.9)
        assert objective.worst_value() == float("-inf")
        assert objective.improvement(0.9, 0.5) == pytest.approx(0.4)


class TestLatency:
    def test_local_interactions_cost_dispatch_only(self, tiny_model):
        objective = LatencyObjective(local_dispatch_cost=1e-5)
        together = {"c1": "hA", "c2": "hA", "c3": "hA"}
        assert objective.evaluate(tiny_model, together) == \
            pytest.approx(5.0 * 1e-5)

    def test_remote_cost_uses_delay_and_bandwidth(self, tiny_model):
        objective = LatencyObjective(local_dispatch_cost=0.0)
        deployment = tiny_model.deployment  # c2-c3 remote: freq 1, size 1
        expected = 1.0 * (0.01 + 1.0 / 100.0)
        assert objective.evaluate(tiny_model, deployment) == \
            pytest.approx(expected)

    def test_unreachable_pair_charged_heavily(self):
        model = DeploymentModel()
        model.add_host("h1")
        model.add_host("h2")  # no link
        model.add_component("c1")
        model.add_component("c2")
        model.connect_components("c1", "c2", frequency=2.0)
        deployment = {"c1": "h1", "c2": "h2"}
        objective = LatencyObjective()
        assert objective.evaluate(model, deployment) == \
            pytest.approx(2.0 * UNREACHABLE_COST)

    def test_down_link_is_unreachable(self, tiny_model):
        tiny_model.set_physical_link_param("hA", "hB", "connected", False)
        objective = LatencyObjective()
        value = objective.evaluate(tiny_model, tiny_model.deployment)
        assert value >= UNREACHABLE_COST

    def test_move_delta_matches_recompute(self, small_model):
        objective = LatencyObjective()
        engine = EvaluationEngine(objective)
        deployment = dict(small_model.deployment)
        base = objective.evaluate(small_model, deployment)
        for component in small_model.component_ids[:4]:
            for host in small_model.host_ids:
                delta = engine.move_delta(small_model, deployment,
                                          component, host)
                moved = dict(deployment)
                moved[component] = host
                expected = objective.evaluate(small_model, moved) - base
                assert delta == pytest.approx(expected, rel=1e-9)

    def test_minimize_direction(self):
        objective = LatencyObjective()
        assert objective.direction == MINIMIZE
        assert objective.is_better(1.0, 2.0)
        assert objective.worst_value() == float("inf")
        assert objective.improvement(1.0, 2.0) == pytest.approx(1.0)


class TestCommunicationCost:
    def test_counts_remote_volume_only(self, tiny_model):
        objective = CommunicationCostObjective()
        deployment = tiny_model.deployment
        # Only c2-c3 is remote: freq 1 * size 1.
        assert objective.evaluate(tiny_model, deployment) == pytest.approx(1.0)

    def test_all_local_is_free(self, tiny_model):
        objective = CommunicationCostObjective()
        together = {"c1": "hA", "c2": "hA", "c3": "hA"}
        assert objective.evaluate(tiny_model, together) == 0.0

    def test_move_delta_matches_recompute(self, small_model):
        objective = CommunicationCostObjective()
        engine = EvaluationEngine(objective)
        deployment = dict(small_model.deployment)
        base = objective.evaluate(small_model, deployment)
        for component in small_model.component_ids[:4]:
            for host in small_model.host_ids:
                delta = engine.move_delta(small_model, deployment,
                                          component, host)
                moved = dict(deployment)
                moved[component] = host
                assert delta == pytest.approx(
                    objective.evaluate(small_model, moved) - base, abs=1e-12)


class TestSecurity:
    def test_uses_link_security_parameter(self, tiny_model):
        tiny_model.set_physical_link_param("hA", "hB", "security", 0.2)
        objective = SecurityObjective()
        value = objective.evaluate(tiny_model, tiny_model.deployment)
        assert value == pytest.approx((4 * 1.0 + 1 * 0.2) / 5.0)

    def test_collocation_is_fully_secure(self, tiny_model):
        objective = SecurityObjective()
        together = {"c1": "hB", "c2": "hB", "c3": "hB"}
        assert objective.evaluate(tiny_model, together) == 1.0


class TestWeighted:
    def test_requires_terms(self):
        with pytest.raises(ValueError):
            WeightedObjective([])

    def test_scale_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeightedObjective([(AvailabilityObjective(), 1.0)],
                              scales=[1.0, 2.0])

    def test_direction_normalization(self, tiny_model):
        """Minimize-terms contribute negatively, so less latency scores
        higher."""
        combo = WeightedObjective([
            (AvailabilityObjective(), 1.0),
            (LatencyObjective(), 1.0),
        ])
        together = {"c1": "hA", "c2": "hA", "c3": "hA"}
        split = dict(tiny_model.deployment)
        assert combo.evaluate(tiny_model, together) > \
            combo.evaluate(tiny_model, split)

    def test_move_delta_matches_recompute(self, tiny_model):
        combo = WeightedObjective([
            (AvailabilityObjective(), 2.0),
            (CommunicationCostObjective(), 0.5),
        ])
        deployment = dict(tiny_model.deployment)
        base = combo.evaluate(tiny_model, deployment)
        delta = EvaluationEngine(combo).move_delta(tiny_model, deployment,
                                                   "c3", "hA")
        moved = dict(deployment)
        moved["c3"] = "hA"
        assert delta == pytest.approx(
            combo.evaluate(tiny_model, moved) - base, abs=1e-12)

    def test_breakdown_reports_each_term(self, tiny_model):
        combo = WeightedObjective([
            (AvailabilityObjective(), 1.0),
            (LatencyObjective(), 1.0),
        ])
        breakdown = combo.breakdown(tiny_model, tiny_model.deployment)
        assert set(breakdown) == {"availability", "latency"}


def test_evaluate_all(tiny_model):
    values = evaluate_all(
        [AvailabilityObjective(), CommunicationCostObjective()],
        tiny_model, tiny_model.deployment)
    assert values["availability"] == pytest.approx(0.9)
    assert values["communication_cost"] == pytest.approx(1.0)
