"""Scale tests: "large-scale, highly distributed systems" (the paper's
stated target).  The approximative algorithms and the middleware must stay
well-behaved far beyond Exact's reach."""

import time

import pytest

from repro.algorithms import (
    AvalaAlgorithm, DecApAlgorithm, EvaluationEngine, StochasticAlgorithm,
)
from repro.core import (
    AvailabilityObjective, ConstraintSet, MemoryConstraint,
)
from repro.desi import Generator, GeneratorConfig
from repro.middleware import DistributedSystem
from repro.scenarios import CrisisConfig, build_crisis_scenario
from repro.sim import SimClock


@pytest.fixture(scope="module")
def big_model():
    """20 hosts x 100 components (2x the paper's largest DeSi screenshots)."""
    config = GeneratorConfig(hosts=20, components=100,
                             physical_density=0.4,
                             host_memory=(40.0, 100.0),
                             memory_headroom=1.3)
    return Generator(config, seed=777).generate("big")


class TestAlgorithmScale:
    def test_avala_scales(self, big_model, availability,
                          memory_constraints):
        start = time.perf_counter()
        result = AvalaAlgorithm(availability, memory_constraints,
                                seed=1).run(big_model)
        elapsed = time.perf_counter() - start
        assert result.valid
        assert result.value > availability.evaluate(big_model,
                                                    big_model.deployment)
        assert elapsed < 10.0  # polynomial, not exponential

    def test_stochastic_scales(self, big_model, availability,
                               memory_constraints):
        result = StochasticAlgorithm(availability, memory_constraints,
                                     seed=1, iterations=10).run(big_model)
        assert result.valid
        assert set(result.deployment) == set(big_model.component_ids)

    def test_decap_scales(self, big_model, availability,
                          memory_constraints):
        start = time.perf_counter()
        result = DecApAlgorithm(availability, memory_constraints, seed=1,
                                max_rounds=10).run(big_model)
        elapsed = time.perf_counter() - start
        assert result.valid
        assert elapsed < 30.0

    def test_incremental_deltas_pay_off(self, big_model, availability):
        """A move delta on a 100-component system must be far cheaper than
        a full evaluation (this is what makes local search viable at
        scale)."""
        engine = EvaluationEngine(availability)
        deployment = dict(big_model.deployment)
        component = big_model.component_ids[0]
        target = big_model.host_ids[-1]
        engine.move_delta(big_model, deployment, component, target)  # compile
        start = time.perf_counter()
        for __ in range(200):
            engine.move_delta(big_model, deployment, component, target)
        delta_time = time.perf_counter() - start
        assert engine.stats.kernel_deltas == 201
        start = time.perf_counter()
        for __ in range(200):
            availability.evaluate(big_model, deployment)
        full_time = time.perf_counter() - start
        assert delta_time < full_time / 5


class TestMiddlewareScale:
    def test_large_crisis_system_runs_and_redeploys(self):
        scenario = build_crisis_scenario(CrisisConfig(
            commanders=4, troops_per_commander=5, seed=31))
        model = scenario.model
        assert len(model.host_ids) == 25
        clock = SimClock()
        system = DistributedSystem(model, clock, master_host=scenario.hq,
                                   seed=32)
        availability = AvailabilityObjective()
        result = AvalaAlgorithm(availability, scenario.constraints,
                                seed=1).run(model)
        assert result.valid
        stats = system.redeploy(dict(result.deployment))
        assert system.actual_deployment() == dict(result.deployment)
        assert stats["moves"] > 0
        # All architect pins survived the bulk migration.
        assert system.actual_deployment()["status_display"] == scenario.hq
