"""Property tests for the Objective incremental-evaluation contract.

Every objective promises that a move delta agrees with two full
evaluations to floating-point tolerance:

    evaluate(moved) == evaluate(base) + delta(base, component, host)

within 1e-9, where the delta is what the evaluation engine serves: the
compiled kernel's incremental delta for the built-in objectives, the
objective's own ``move_delta`` otherwise.  The tests sweep seeded
generated architectures and many random single-component moves per
objective.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.engine import EvaluationEngine
from repro.core.objectives import (
    AvailabilityObjective, CommunicationCostObjective, DurabilityObjective,
    LatencyObjective, Objective, SecurityObjective, ThroughputObjective,
    WeightedObjective,
)
from repro.desi import Generator, GeneratorConfig

OBJECTIVES = {
    "availability": lambda: AvailabilityObjective(),
    "availability_critical": lambda: AvailabilityObjective(
        use_criticality=True),
    "latency": lambda: LatencyObjective(),
    "comm_cost": lambda: CommunicationCostObjective(),
    "security": lambda: SecurityObjective(),
    "throughput": lambda: ThroughputObjective(),
    "durability": lambda: DurabilityObjective(),
    "weighted": lambda: WeightedObjective([
        (AvailabilityObjective(), 0.5),
        (CommunicationCostObjective(), 0.3),
        (SecurityObjective(), 0.2),
    ]),
}


def _model(seed: int):
    model = Generator(GeneratorConfig(hosts=6, components=14),
                      seed=seed).generate(f"proto-{seed}")
    # Security is not part of the generator's vocabulary; paint the links so
    # SecurityObjective sees a non-trivial landscape.
    rng = random.Random(seed * 7 + 1)
    for link in model.physical_links:
        host_a, host_b = link.hosts
        model.set_physical_link_param(host_a, host_b,
                                      "security", rng.random())
    return model


def _moves(model, rng: random.Random, count: int = 12):
    components = list(model.component_ids)
    hosts = list(model.host_ids)
    base = dict(model.deployment)
    moves = []
    for _ in range(count):
        component = rng.choice(components)
        candidates = [h for h in hosts if h != base[component]]
        moves.append((component, rng.choice(candidates)))
    return base, moves


@pytest.mark.parametrize("objective_name", sorted(OBJECTIVES))
@pytest.mark.parametrize("seed", [3, 17, 41])
def test_move_delta_matches_two_full_evaluations(objective_name, seed):
    objective = OBJECTIVES[objective_name]()
    model = _model(seed)
    rng = random.Random(seed * 100 + 9)
    base, moves = _moves(model, rng)
    engine = EvaluationEngine(objective)
    base_value = objective.evaluate(model, base)
    for component, new_host in moves:
        moved = dict(base)
        moved[component] = new_host
        delta = engine.move_delta(model, base, component, new_host)
        assert objective.evaluate(model, moved) == pytest.approx(
            base_value + delta, abs=1e-9), (
            f"{objective_name}: move {component}->{new_host} disagrees")
    assert engine.stats.kernel_deltas == len(moves)


@pytest.mark.parametrize("objective_name", sorted(OBJECTIVES))
def test_evaluate_move_uses_current_value(objective_name, tiny_model):
    objective = OBJECTIVES[objective_name]()
    base = dict(tiny_model.deployment)
    value = objective.evaluate(tiny_model, base)
    after = objective.evaluate_move(tiny_model, base, "c1", "hB", value)
    moved = dict(base, c1="hB")
    assert after == pytest.approx(objective.evaluate(tiny_model, moved),
                                  abs=1e-9)


class TestSupportsDeltaDeclarations:
    """The flag is part of the public contract — the engine trusts it."""

    def test_incremental_objectives_declare_support(self):
        assert AvailabilityObjective.supports_delta is True
        assert LatencyObjective.supports_delta is True
        assert CommunicationCostObjective.supports_delta is True
        assert SecurityObjective.supports_delta is True

    def test_global_aggregations_support_delta(self):
        # Bottleneck (max) and lifetime (min) aggregations localize a move
        # with the kernels' per-host-pair demand / per-host draw
        # accumulators.
        assert ThroughputObjective.supports_delta is True
        assert DurabilityObjective.supports_delta is True

    def test_base_default_is_conservative(self):
        assert Objective.supports_delta is False

    def test_weighted_requires_all_terms(self):
        fast = WeightedObjective([(AvailabilityObjective(), 0.5),
                                  (LatencyObjective(), 0.5)])
        assert fast.supports_delta is True
        mixed = WeightedObjective([(AvailabilityObjective(), 0.5),
                                   (ThroughputObjective(), 0.5)])
        assert mixed.supports_delta is True

        class NonDelta(Objective):
            name = "nondelta"

            def evaluate(self, model, deployment):
                return 0.0

        blocked = WeightedObjective([(AvailabilityObjective(), 0.5),
                                     (NonDelta(), 0.5)])
        assert blocked.supports_delta is False
