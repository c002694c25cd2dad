"""Tests for the evaluation engine and the portfolio runner.

Covers the memo cache's model-listener invalidation, the delta fast path
and its fallback, budget-exhaustion truncation, the portfolio's
degrade-don't-abort guarantees (crash, give-up), and same-seed identity of
the timing-free reports.
"""

from __future__ import annotations

import threading

import pytest

from repro.algorithms import (
    AvalaAlgorithm, HillClimbingAlgorithm, StochasticAlgorithm,
)
from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.compiled import compiled_model
from repro.algorithms.engine import (
    ERROR, OK, SKIPPED, DeploymentCache, EvaluationEngine, PortfolioRunner,
)
from repro.core.analyzer import Analyzer
from repro.core.errors import EvaluationBudgetExceeded, NoValidDeploymentError
from repro.core.model import Deployment
from repro.core.objectives import (
    AvailabilityObjective, CommunicationCostObjective, Objective,
    WeightedObjective,
)


class CrashingAlgorithm(DeploymentAlgorithm):
    """Simulates an algorithm with a genuine bug."""

    name = "crashing"

    def _search(self, model, initial):
        raise RuntimeError("boom")


class GivingUpAlgorithm(DeploymentAlgorithm):
    """Simulates an algorithm that finds nothing valid."""

    name = "giving_up"

    def _search(self, model, initial):
        raise NoValidDeploymentError("nothing satisfies the constraints")


class TestDeploymentCache:
    def test_second_evaluation_is_a_hit(self, tiny_model, availability):
        engine = EvaluationEngine(availability)
        first = engine.evaluate(tiny_model, tiny_model.deployment)
        second = engine.evaluate(tiny_model, tiny_model.deployment)
        assert first == second
        assert engine.stats.full_evaluations == 1
        assert engine.stats.cache_hits == 1

    def test_parameter_change_invalidates(self, tiny_model, availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        stale = engine.evaluate(tiny_model, deployment)
        tiny_model.set_physical_link_param("hA", "hB", "reliability", 0.9)
        fresh = engine.evaluate(tiny_model, deployment)
        assert fresh != stale  # c2--c3 crosses the now-better link
        assert fresh == availability.evaluate(tiny_model, deployment)
        assert engine.stats.full_evaluations == 2
        assert engine.cache.invalidations >= 1

    def test_topology_change_invalidates(self, tiny_model, availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        engine.evaluate(tiny_model, deployment)
        tiny_model.add_host("hC", memory=50.0)
        assert len(engine.cache) == 0

    def test_deployment_change_does_not_invalidate(self, tiny_model,
                                                   availability):
        # evaluate() takes the deployment explicitly, so the model's
        # *current* deployment is irrelevant to cached scores.
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        engine.evaluate(tiny_model, deployment)
        tiny_model.deploy("c1", "hB")
        assert len(engine.cache) == 1
        engine.evaluate(tiny_model, deployment)
        assert engine.stats.cache_hits == 1

    def test_objectives_do_not_cross_talk(self, tiny_model):
        cache = DeploymentCache()
        availability = EvaluationEngine(AvailabilityObjective(), cache=cache)
        cost = EvaluationEngine(CommunicationCostObjective(), cache=cache)
        deployment = dict(tiny_model.deployment)
        a = availability.evaluate(tiny_model, deployment)
        c = cost.evaluate(tiny_model, deployment)
        assert a != c
        assert len(cache) == 2
        assert availability.evaluate(tiny_model, deployment) == a
        assert cost.evaluate(tiny_model, deployment) == c
        assert availability.stats.cache_hits == 1
        assert cost.stats.cache_hits == 1

    def test_overflow_drops_wholesale(self, tiny_model, availability):
        cache = DeploymentCache(max_entries=2)
        engine = EvaluationEngine(availability, cache=cache)
        for c1_host, c2_host in [("hA", "hA"), ("hB", "hA"), ("hB", "hB")]:
            engine.evaluate(tiny_model,
                            {"c1": c1_host, "c2": c2_host, "c3": "hB"})
        assert len(cache) == 1  # third store cleared the full cache first


class TestEvaluationEngine:
    def test_delta_fast_path_is_charged_as_delta(self, tiny_model,
                                                 availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        base = engine.evaluate(tiny_model, deployment)
        delta = engine.move_delta(tiny_model, deployment, "c1", "hB")
        assert engine.stats.delta_evaluations == 1
        assert engine.stats.full_evaluations == 1  # only the base
        moved = dict(deployment, c1="hB")
        assert base + delta == pytest.approx(
            availability.evaluate(tiny_model, moved), abs=1e-9)

    def test_delta_fallback_for_non_delta_objectives(self, tiny_model):
        class FullOnly(Objective):
            name = "full_only"

            def evaluate(self, model, deployment):
                return float(len(set(deployment.values())))

        objective = FullOnly()
        engine = EvaluationEngine(objective)
        deployment = dict(tiny_model.deployment)
        delta = engine.move_delta(tiny_model, deployment, "c1", "hB")
        assert engine.stats.delta_fallbacks == 1
        assert engine.stats.delta_evaluations == 0
        assert engine.stats.full_evaluations == 2  # base + moved, memoized
        moved = dict(deployment, c1="hB")
        assert delta == pytest.approx(
            objective.evaluate(tiny_model, moved)
            - objective.evaluate(tiny_model, deployment), abs=1e-9)

    def test_mixed_weighted_delta_counts_as_fallback(self, tiny_model):
        # Built-in terms are delta-served only by their kernels and the
        # custom term has none, so no WeightedKernel compiles: the mix has
        # no incremental route and must not be counted as one.
        class Spread(Objective):
            name = "spread"
            supports_delta = True

            def evaluate(self, model, deployment):
                return float(len(set(deployment.values())))

            def move_delta(self, model, deployment, component, new_host):
                moved = dict(deployment, **{component: new_host})
                return self.evaluate(model, moved) - self.evaluate(
                    model, deployment)

        assert Spread().supports_delta is True
        mixed = WeightedObjective([(AvailabilityObjective(), 1),
                                   (Spread(), 0.1)])
        assert mixed.supports_delta is False
        engine = EvaluationEngine(mixed)
        deployment = dict(tiny_model.deployment)
        delta = engine.move_delta(tiny_model, deployment, "c1", "hB")
        assert engine.stats.delta_fallbacks == 1
        assert engine.stats.delta_evaluations == 0
        assert engine.stats.full_evaluations == 2  # base + moved, memoized
        moved = dict(deployment, c1="hB")
        assert delta == pytest.approx(
            mixed.evaluate(tiny_model, moved)
            - mixed.evaluate(tiny_model, deployment), abs=1e-12)
        # One route for every term keeps the fast path.
        assert WeightedObjective([(Spread(), 1), (Spread(), 0.1)]
                                 ).supports_delta is True

    def test_evaluation_budget_raises_when_exhausted(self, tiny_model,
                                                     availability):
        engine = EvaluationEngine(availability, max_evaluations=2)
        engine.evaluate(tiny_model, {"c1": "hA", "c2": "hA", "c3": "hA"})
        engine.evaluate(tiny_model, {"c1": "hB", "c2": "hA", "c3": "hA"})
        with pytest.raises(EvaluationBudgetExceeded):
            engine.evaluate(tiny_model, {"c1": "hA", "c2": "hB", "c3": "hA"})
        assert engine.stats.truncated is True
        # Cache hits stay free even after exhaustion.
        assert engine.evaluate(
            tiny_model, {"c1": "hA", "c2": "hA", "c3": "hA"}) is not None

    def test_algorithm_truncates_gracefully(self, medium_model, availability,
                                            memory_constraints):
        algorithm = StochasticAlgorithm(availability, memory_constraints,
                                        seed=7, iterations=200)
        engine = EvaluationEngine(availability, memory_constraints,
                                  max_evaluations=10)
        result = algorithm.run(medium_model.copy(), engine=engine)
        assert result.extra["engine"]["truncated"] is True
        assert result.extra.get("truncated") is True
        assert result.deployment  # degraded to best-seen, not aborted
        counters = result.extra["engine"]
        assert counters["full_evaluations"] <= 10 + 1  # +1 final (uncharged)

    def test_truncated_stochastic_returns_best_encoded_fill(
            self, medium_model, availability, memory_constraints):
        scored = []

        class Recording(EvaluationEngine):
            def evaluate_encoded(self, model, assignment):
                value = super().evaluate_encoded(model, assignment)
                scored.append((value, tuple(assignment)))
                return value

        model = medium_model.copy()
        engine = Recording(availability, memory_constraints,
                           max_evaluations=10)
        result = StochasticAlgorithm(availability, memory_constraints,
                                     seed=7, iterations=200).run(
            model, engine=engine)
        assert result.extra.get("truncated") is True
        best_value, best = scored[0]
        for value, assignment in scored[1:]:
            if availability.is_better(value, best_value):
                best_value, best = value, assignment
        assert isinstance(result.deployment, Deployment)
        assert result.deployment == compiled_model(model).decode(best)
        assert result.value == best_value

    def test_snapshot_reports_budgets(self, tiny_model, availability):
        engine = EvaluationEngine(availability, max_evaluations=50)
        engine.evaluate(tiny_model, tiny_model.deployment)
        snapshot = engine.snapshot()
        assert snapshot["full_evaluations"] == 1
        assert snapshot["max_evaluations"] == 50
        assert snapshot["supports_delta"] is True
        assert "elapsed" not in snapshot  # counters only, no wall clock


class TestPortfolioRunner:
    def _factories(self, availability, memory_constraints):
        return {
            "avala": lambda: AvalaAlgorithm(availability, memory_constraints,
                                            seed=1),
            "stochastic": lambda: StochasticAlgorithm(
                availability, memory_constraints, seed=1, iterations=20),
        }

    def test_all_ok(self, small_model, availability, memory_constraints):
        report = PortfolioRunner().run(
            small_model, self._factories(availability, memory_constraints))
        assert [o.status for o in report.outcomes] == [OK, OK]
        assert set(report.succeeded) == {"avala", "stochastic"}
        assert len(report.results()) == 2

    def test_crashing_member_degrades_to_error(self, small_model,
                                               availability,
                                               memory_constraints):
        factories = self._factories(availability, memory_constraints)
        factories["crashing"] = lambda: CrashingAlgorithm(
            availability, memory_constraints)
        report = PortfolioRunner().run(small_model, factories)
        assert report.outcome("crashing").status == ERROR
        assert "boom" in report.outcome("crashing").error
        assert set(report.succeeded) == {"avala", "stochastic"}

    def test_giving_up_member_degrades_to_skipped(self, small_model,
                                                  availability,
                                                  memory_constraints):
        factories = self._factories(availability, memory_constraints)
        factories["giving_up"] = lambda: GivingUpAlgorithm(
            availability, memory_constraints)
        report = PortfolioRunner().run(small_model, factories)
        assert report.outcome("giving_up").status == SKIPPED
        assert set(report.succeeded) == {"avala", "stochastic"}

    def test_shared_cache_saves_full_evaluations(self, small_model,
                                                 availability,
                                                 memory_constraints):
        factories = {
            "hillclimb": lambda: HillClimbingAlgorithm(
                availability, memory_constraints, seed=3, max_rounds=10),
            "stochastic": lambda: StochasticAlgorithm(
                availability, memory_constraints, seed=3, iterations=20),
            "avala": lambda: AvalaAlgorithm(availability, memory_constraints,
                                            seed=3),
        }
        runner = PortfolioRunner()
        report = runner.run(small_model, factories)
        assert [o.status for o in report.outcomes] == [OK, OK, OK]
        counters = report.counters()
        logical = sum(r.evaluations for r in report.results())
        # The memoized/delta engine pays for measurably fewer full
        # Objective.evaluate calls than the algorithms logically request.
        assert counters["full_evaluations"] < logical
        assert counters["cache_hits"] + counters["delta_evaluations"] > 0
        # The search-engine counters surface through the same report (and
        # from there into repro.obs via the analyzer's promotion loop).
        assert counters["constraint_checks"] > 0
        assert "moves_rescored" in counters and "frontier_hits" in counters

    def test_empty_portfolio(self, small_model):
        report = PortfolioRunner().run(small_model, {})
        assert report.outcomes == []

    def test_no_deadline_starts_no_thread(self, small_model, medium_model,
                                          availability, memory_constraints,
                                          monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("the decision path started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        report = PortfolioRunner().run(
            small_model, self._factories(availability, memory_constraints))
        assert [o.status for o in report.outcomes] == [OK, OK]
        decision = Analyzer(AvailabilityObjective(), seed=5).analyze(
            medium_model)
        assert decision.portfolio.succeeded == (
            "avala", "stochastic", "hillclimb")


class TestAnalyzerResilience:
    def test_crashing_algorithm_does_not_abort_analyze(self, medium_model):
        analyzer = Analyzer(AvailabilityObjective(), seed=5)
        analyzer.registry.register(
            "crashing", lambda: CrashingAlgorithm(analyzer.objective,
                                                  analyzer.constraints),
            tier="thorough")
        decision = analyzer.analyze(medium_model)
        assert decision.action in ("redeploy", "no_action")
        assert decision.portfolio is not None
        assert decision.portfolio.outcome("crashing").status == ERROR
        assert "crashing" in decision.portfolio.degraded

    def test_serial_cycles_have_deterministic_counters(self, medium_model):
        def cycles():
            model = medium_model.copy()
            analyzer = Analyzer(AvailabilityObjective(), seed=5)
            counters = []
            for step in range(4):
                if step == 2:
                    # A parameter change invalidates the memo mid-sequence.
                    host = model.host_ids[0]
                    model.set_host_param(host, "memory",
                                         model.host(host).memory * 1.5)
                decision = analyzer.analyze(model, now=float(step))
                counters.append(decision.portfolio.counters())
            return counters

        first, second = cycles(), cycles()
        assert first == second
        assert all(c["full_evaluations"] + c["cache_hits"] > 0
                   for c in first)


class TestTimingFreeReports:
    """With timing excluded, a report is a pure function of (model, seed)."""

    def test_same_seed_runs_serialize_identically(self, medium_model,
                                                  availability,
                                                  memory_constraints):
        def run():
            algorithm = StochasticAlgorithm(availability, memory_constraints,
                                            seed=11, iterations=30)
            return algorithm.run(medium_model.copy()).to_dict(
                include_timing=False)

        assert run() == run()

    def test_same_seed_portfolios_serialize_identically(self, medium_model,
                                                        availability,
                                                        memory_constraints):
        def run():
            factories = {
                "avala": lambda: AvalaAlgorithm(
                    availability, memory_constraints, seed=11),
                "stochastic": lambda: StochasticAlgorithm(
                    availability, memory_constraints, seed=11,
                    iterations=30),
                "hillclimb": lambda: HillClimbingAlgorithm(
                    availability, memory_constraints, seed=11,
                    max_rounds=10),
            }
            return PortfolioRunner().run(medium_model.copy(),
                                         factories).to_dict(
                include_timing=False)

        assert run() == run()


class TestKernelRouting:
    def test_full_evaluations_served_by_kernel(self, tiny_model,
                                               availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        value = engine.evaluate(tiny_model, deployment)
        assert engine.stats.kernel_evaluations == 1
        # Kernel values are bit-identical to the object path.
        assert value == availability.evaluate(tiny_model, deployment)

    def test_deltas_served_by_kernel(self, tiny_model, availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        base = engine.evaluate(tiny_model, deployment)
        delta = engine.move_delta(tiny_model, deployment, "c1", "hB")
        assert engine.stats.kernel_deltas == 1
        assert engine.stats.delta_evaluations == 1
        moved = dict(deployment, c1="hB")
        assert base + delta == pytest.approx(
            availability.evaluate(tiny_model, moved), abs=1e-9)

    def test_custom_objective_falls_back(self, tiny_model):
        class Custom(Objective):
            name = "custom"

            def evaluate(self, model, deployment):
                return float(len(deployment))

        engine = EvaluationEngine(Custom())
        engine.evaluate(tiny_model, dict(tiny_model.deployment))
        assert engine.stats.full_evaluations == 1
        assert engine.stats.kernel_evaluations == 0

    def test_unknown_host_falls_back_to_object_path(self, tiny_model,
                                                    availability):
        engine = EvaluationEngine(availability)
        deployment = {"c1": "hA", "c2": "hA", "c3": "ghost"}
        value = engine.evaluate(tiny_model, deployment)
        assert engine.stats.kernel_evaluations == 0
        assert value == availability.evaluate(tiny_model, deployment)
        assert engine.evaluate(tiny_model, dict(deployment)) == value
        assert engine.stats.cache_hits == 1
        assert engine.best_seen() == (Deployment(deployment), value)

    def test_move_delta_adapts_to_the_indexed_delta(self, tiny_model,
                                                   availability):
        cm = compiled_model(tiny_model)
        deployment = dict(tiny_model.deployment)
        by_id = EvaluationEngine(availability)
        by_index = EvaluationEngine(availability)
        delta = by_id.move_delta(tiny_model, deployment, "c1", "hB")
        assert delta == by_index.move_delta_indexed(
            tiny_model, cm.encode(deployment), cm.component_index["c1"],
            cm.host_index["hB"])
        assert by_id.snapshot() == by_index.snapshot()
        assert by_id.stats.kernel_deltas == 1

    def test_unknown_host_delta_keeps_object_path(self, tiny_model,
                                                  availability):
        engine = EvaluationEngine(availability)
        deployment = {"c1": "hA", "c2": "hA", "c3": "ghost"}
        delta = engine.move_delta(tiny_model, deployment, "c1", "hB")
        assert engine.stats.delta_evaluations == 1
        assert engine.stats.kernel_deltas == 0
        assert delta == availability.move_delta(tiny_model, deployment,
                                                "c1", "hB")

    def test_custom_objective_receives_callers_mapping(self, tiny_model):
        seen = []

        class Custom(Objective):
            name = "custom"

            def evaluate(self, model, deployment):
                seen.append(deployment)
                return float(len(set(deployment.values())))

        engine = EvaluationEngine(Custom())
        mapping = dict(tiny_model.deployment)
        engine.evaluate(tiny_model, mapping)
        assert seen == [mapping] and seen[0] is mapping
        encoded = compiled_model(tiny_model).encode(
            {c: "hB" for c in tiny_model.component_ids})
        engine.evaluate_encoded(tiny_model, encoded)
        assert seen[1] == {c: "hB" for c in tiny_model.component_ids}
        assert engine.stats.kernel_evaluations == 0

    def test_parameter_change_recompiles_kernel(self, tiny_model,
                                                availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        engine.evaluate(tiny_model, deployment)
        tiny_model.set_physical_link_param("hA", "hB", "reliability", 0.95)
        fresh = engine.evaluate(tiny_model, deployment)
        assert engine.stats.kernel_evaluations == 2
        assert fresh == availability.evaluate(tiny_model, deployment)

    def test_snapshot_reports_kernel_counters(self, tiny_model,
                                              availability):
        engine = EvaluationEngine(availability)
        engine.evaluate(tiny_model, dict(tiny_model.deployment))
        snapshot = engine.snapshot()
        assert snapshot["kernel_evaluations"] == 1
        assert snapshot["kernel_deltas"] == 0


class TestDeploymentHash:
    def test_hash_is_order_independent(self):
        from repro.core.model import Deployment

        items = [(f"c{i}", f"h{i % 7}") for i in range(50)]
        forward = Deployment(dict(items))
        backward = Deployment(dict(reversed(items)))
        assert forward == backward
        assert hash(forward) == hash(backward)
