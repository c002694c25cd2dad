"""Kernel-vs-object equivalence property tests.

The compiled kernels replicate the object path's arithmetic in the same
accumulation order, so for random generator models and random move
sequences every objective's kernel ``evaluate`` must match the object
``evaluate``, and every kernel ``move_delta`` must match
``evaluate(after) - evaluate(before)``, within 1e-9 — including after
parameter mutations that trigger recompilation.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.compiled import compile_kernel, compiled_model
from repro.algorithms.engine import EvaluationEngine
from repro.core.objectives import (
    AvailabilityObjective, CommunicationCostObjective, DurabilityObjective,
    LatencyObjective, SecurityObjective, ThroughputObjective,
    WeightedObjective,
)
from repro.desi.generator import Generator, GeneratorConfig

TOLERANCE = 1e-9


def paint_extended_params(model, seed):
    """Set the parameters the generator leaves at defaults, so the
    security/durability/criticality landscapes are non-trivial."""
    rng = random.Random(seed)
    for link in model.physical_links:
        model.set_physical_link_param(*link.hosts, "security", rng.random())
    for host in model.hosts:
        if rng.random() < 0.7:  # the rest stay mains-powered (inf battery)
            model.set_host_param(host.id, "battery", rng.uniform(50.0, 500.0))
        model.set_host_param(host.id, "cpu", rng.uniform(1.0, 8.0))
    for component in model.components:
        model.set_component_param(component.id, "cpu",
                                  rng.uniform(0.1, 2.0))
    for link in model.logical_links:
        model.set_logical_link_param(*link.components, "criticality",
                                     rng.uniform(0.5, 2.0))


def build_model(hosts, components, seed):
    model = Generator(GeneratorConfig(hosts=hosts, components=components),
                      seed=seed).generate(f"eq-{seed}")
    paint_extended_params(model, seed * 31 + 1)
    return model


def all_objectives():
    return [
        AvailabilityObjective(),
        AvailabilityObjective(use_criticality=True),
        LatencyObjective(),
        CommunicationCostObjective(),
        SecurityObjective(),
        ThroughputObjective(),
        DurabilityObjective(),
        WeightedObjective(
            [(AvailabilityObjective(), 1.0), (LatencyObjective(), 0.4),
             (ThroughputObjective(), 0.2), (DurabilityObjective(), 0.1)],
            scales=[1.0, 1000.0, 1.0, 100.0]),
    ]


def random_moves(model, rng, count):
    component_ids = model.component_ids
    host_ids = model.host_ids
    return [(rng.choice(component_ids), rng.choice(host_ids))
            for __ in range(count)]


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 41])
    @pytest.mark.parametrize("shape", [(4, 9), (6, 14)])
    def test_evaluate_matches_object_path(self, shape, seed):
        model = build_model(*shape, seed)
        compiled = compiled_model(model)
        deployment = dict(model.deployment)
        assignment = compiled.encode(deployment)
        for objective in all_objectives():
            kernel = compile_kernel(objective, compiled)
            assert kernel.evaluate(assignment) == pytest.approx(
                objective.evaluate(model, deployment), abs=TOLERANCE), \
                objective.name

    @pytest.mark.parametrize("seed", [5, 23])
    def test_move_sequence_matches_object_path(self, seed):
        model = build_model(5, 12, seed)
        compiled = compiled_model(model)
        rng = random.Random(seed * 7)
        deployment = dict(model.deployment)
        objectives = all_objectives()
        kernels = [compile_kernel(o, compiled) for o in objectives]
        for component_id, host_id in random_moves(model, rng, 25):
            assignment = compiled.encode(deployment)
            component_index = compiled.component_index[component_id]
            host_index = compiled.host_index[host_id]
            moved = dict(deployment)
            moved[component_id] = host_id
            for objective, kernel in zip(objectives, kernels, strict=True):
                reference = (objective.evaluate(model, moved)
                             - objective.evaluate(model, deployment))
                kernel_delta = kernel.move_delta(assignment, component_index,
                                                 host_index)
                assert kernel_delta == pytest.approx(
                    reference, abs=TOLERANCE), objective.name
            # Accept the move and keep walking from the new base.
            deployment = moved

    @pytest.mark.parametrize("seed", [11, 29])
    def test_equivalence_survives_recompilation(self, seed):
        model = build_model(5, 10, seed)
        rng = random.Random(seed * 13)
        deployment = dict(model.deployment)
        objectives = all_objectives()
        for round_index in range(3):
            # Mutate parameters of every kind; each bump invalidates the
            # snapshot and the next compiled_model() call recompiles.
            link = model.physical_links[
                rng.randrange(len(model.physical_links))]
            model.set_physical_link_param(*link.hosts, "reliability",
                                          rng.random())
            model.set_physical_link_param(*link.hosts, "bandwidth",
                                          rng.uniform(10.0, 200.0))
            logical = model.logical_links[
                rng.randrange(len(model.logical_links))]
            model.set_logical_link_param(*logical.components, "frequency",
                                         rng.uniform(1.0, 10.0))
            host = model.hosts[rng.randrange(len(model.hosts))]
            model.set_host_param(host.id, "battery", rng.uniform(50.0, 500.0))

            compiled = compiled_model(model)
            assert not compiled.stale
            assignment = compiled.encode(deployment)
            for objective in objectives:
                kernel = compile_kernel(objective, compiled)
                assert kernel.evaluate(assignment) == pytest.approx(
                    objective.evaluate(model, deployment), abs=TOLERANCE), \
                    (objective.name, round_index)
                component_id, host_id = random_moves(model, rng, 1)[0]
                reference = (
                    objective.evaluate(
                        model, dict(deployment, **{component_id: host_id}))
                    - objective.evaluate(model, deployment))
                assert kernel.move_delta(
                    assignment, compiled.component_index[component_id],
                    compiled.host_index[host_id]) == pytest.approx(
                        reference, abs=TOLERANCE), (objective.name,
                                                    round_index)

    def test_stateful_deltas_follow_base_changes(self):
        """Throughput/Durability accumulators must rebuild when queried
        against a different base deployment (and after model mutations)."""
        model = build_model(4, 8, 71)
        deployment = dict(model.deployment)
        for objective in (ThroughputObjective(), DurabilityObjective()):
            compiled = compiled_model(model)
            kernel = compile_kernel(objective, compiled)
            assignment = compiled.encode(deployment)
            first = kernel.move_delta(assignment, 0, 0)
            # Different base: accumulators keyed to the old base must not
            # leak into the new one.
            other = dict(deployment)
            other_component = model.component_ids[-1]
            other_host = model.host_ids[-1]
            other[other_component] = other_host
            other_assignment = compiled.encode(other)
            moved = dict(other)
            moved[model.component_ids[0]] = model.host_ids[0]
            reference = (objective.evaluate(model, moved)
                         - objective.evaluate(model, other))
            assert kernel.move_delta(other_assignment, 0, 0) == \
                pytest.approx(reference, abs=TOLERANCE)
            # And the original base still answers correctly afterwards.
            base_moved = dict(deployment)
            base_moved[model.component_ids[0]] = model.host_ids[0]
            base_reference = (objective.evaluate(model, base_moved)
                              - objective.evaluate(model, deployment))
            assert kernel.move_delta(assignment, 0, 0) == pytest.approx(
                base_reference, abs=TOLERANCE)
            assert first == pytest.approx(base_reference, abs=TOLERANCE)

    def test_engine_kernel_state_invalidates_on_mutation(self):
        """The engine's Throughput/Durability kernels hold per-base
        accumulators; a parameter change must recompile them rather than
        serve stale deltas."""
        model = build_model(4, 8, 83)
        deployment = dict(model.deployment)
        for objective in (ThroughputObjective(), DurabilityObjective()):
            engine = EvaluationEngine(objective)
            component_id = model.component_ids[0]
            host_id = model.host_ids[0]
            engine.move_delta(model, deployment, component_id, host_id)
            # Mutate something the accumulators depend on.
            link = model.physical_links[0]
            model.set_physical_link_param(*link.hosts, "bandwidth", 7.0)
            host = model.hosts[0]
            model.set_host_param(host.id, "battery", 33.0)
            moved = dict(deployment)
            moved[component_id] = host_id
            reference = (objective.evaluate(model, moved)
                         - objective.evaluate(model, deployment))
            assert engine.move_delta(
                model, deployment, component_id, host_id) == pytest.approx(
                    reference, abs=TOLERANCE), objective.name
            assert engine.stats.kernel_deltas == 2


class TestEncodedScoring:
    """``evaluate`` on a mapping and ``evaluate_encoded`` on its encoding
    are one scoring path: same value, one memo entry."""

    @pytest.mark.parametrize("objective", all_objectives(),
                             ids=lambda o: o.name)
    def test_mapping_and_encoding_share_value_and_memo(self, objective):
        model = build_model(5, 12, seed=7)
        compiled = compiled_model(model)
        rng = random.Random(11)
        mapping = {c: rng.choice(model.host_ids) for c in model.component_ids}
        encoded = compiled.encode(mapping)

        engine = EvaluationEngine(objective)
        by_mapping = engine.evaluate(model, mapping)
        assert engine.evaluate_encoded(model, encoded) == by_mapping
        assert (engine.stats.full_evaluations, engine.stats.cache_hits) \
            == (1, 1)

        engine = EvaluationEngine(objective)
        assert engine.evaluate_encoded(model, encoded) == by_mapping
        assert engine.evaluate(model, mapping) == by_mapping
        assert (engine.stats.full_evaluations, engine.stats.cache_hits) \
            == (1, 1)
        assert engine.stats.kernel_evaluations == 1
        assert by_mapping == pytest.approx(
            objective.evaluate(model, mapping), abs=TOLERANCE)
