"""Kernel-vs-object equivalence property tests.

The compiled kernels replicate the object path's arithmetic in the same
accumulation order, so for random generator models every objective's
kernel ``evaluate`` must equal the object ``evaluate`` bit for bit, and
along random move sequences every kernel ``move_delta`` must match
``evaluate(after) - evaluate(before)`` within 1e-9 — including after
parameter mutations that trigger recompilation.  The additive kernels'
``move_delta`` is also pinned bit for bit against a reference loop over
the CSR adjacency layout the kernels once walked.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.compiled import (
    UNDEPLOYED, compile_kernel, compiled_model,
)
from repro.algorithms.engine import EvaluationEngine
from repro.core.objectives import (
    UNREACHABLE_COST, AvailabilityObjective, CommunicationCostObjective,
    DurabilityObjective, LatencyObjective, SecurityObjective,
    ThroughputObjective, WeightedObjective,
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
            assert kernel.evaluate(assignment) == \
                objective.evaluate(model, deployment), objective.name

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


def csr_layout(compiled):
    """``(indptr, neighbor, edge)`` arrays: each component's neighbours
    sorted by index, as a flat compressed-sparse-row adjacency."""
    entries = [[] for __ in range(compiled.n_components)]
    for edge, (a, b) in enumerate(zip(compiled.edge_a, compiled.edge_b,
                                      strict=True)):
        entries[a].append((b, edge))
        entries[b].append((a, edge))
    indptr, neighbor, adj_edge = [0], [], []
    for row in entries:
        for n, e in sorted(row):
            neighbor.append(n)
            adj_edge.append(e)
        indptr.append(len(neighbor))
    return indptr, neighbor, adj_edge


def csr_move_delta(objective, kernel, compiled, assignment, ci, hi):
    """Reference ``move_delta`` of the additive kernels: one walk over the
    CSR slice of *ci*, testing each edge's weight and each neighbour."""
    indptr, neighbor, adj_edge = csr_layout(compiled)
    old_host = assignment[ci]
    if isinstance(objective, (AvailabilityObjective, SecurityObjective)):
        if isinstance(objective, SecurityObjective):
            weights = compiled.edge_frequency
            total = sum(f for f in weights if f > 0.0)
            matrix = compiled.security
        else:
            weights = ([f * c for f, c in zip(compiled.edge_frequency,
                                              compiled.edge_criticality,
                                              strict=True)]
                       if objective.use_criticality
                       else compiled.edge_frequency)
            total = sum(weights)
            matrix = compiled.reliability
        if total == 0.0:
            return 0.0
        delta = 0.0
        for k in range(indptr[ci], indptr[ci + 1]):
            weight = weights[adj_edge[k]]
            if weight <= 0.0:
                continue
            host = assignment[neighbor[k]]
            if host == UNDEPLOYED:
                continue
            old = matrix[old_host][host] if old_host != UNDEPLOYED else 0.0
            delta += weight * (matrix[hi][host] - old)
        return delta / total
    delta = 0.0
    for k in range(indptr[ci], indptr[ci + 1]):
        edge = adj_edge[k]
        host = assignment[neighbor[k]]
        if isinstance(objective, LatencyObjective):
            frequency = compiled.edge_frequency[edge]
            if frequency <= 0.0 or host == UNDEPLOYED:
                continue
            size = compiled.edge_evt_size[edge]
            old = (kernel._pair_cost(old_host, host, size)
                   if old_host != UNDEPLOYED else UNREACHABLE_COST)
            delta += frequency * (kernel._pair_cost(hi, host, size) - old)
        else:
            old_remote = (host == UNDEPLOYED or old_host == UNDEPLOYED
                          or old_host != host)
            new_remote = host == UNDEPLOYED or hi != host
            delta += compiled.edge_volume[edge] * (
                float(new_remote) - float(old_remote))
    return delta


class TestMoveDeltaMatchesCsrLoop:
    @pytest.mark.parametrize("objective", [
        AvailabilityObjective(), AvailabilityObjective(use_criticality=True),
        SecurityObjective(), LatencyObjective(), CommunicationCostObjective(),
    ], ids=lambda o: o.name + ("-criticality" if getattr(
        o, "use_criticality", False) else ""))
    @pytest.mark.parametrize("seed", [2, 13])
    def test_bit_identical(self, objective, seed):
        model = build_model(6, 16, seed)
        rng = random.Random(seed)
        for link in model.logical_links:  # zero-weight edges to skip
            if rng.random() < 0.3:
                model.set_logical_link_param(*link.components,
                                             "criticality", 0.0)
        compiled = compiled_model(model)
        kernel = compile_kernel(objective, compiled)
        undeployed_movers = 0
        for __ in range(60):
            # Undeployed components act as movers and as neighbours.
            assignment = [UNDEPLOYED if rng.random() < 0.2
                          else rng.randrange(compiled.n_hosts)
                          for __ in range(compiled.n_components)]
            ci = rng.randrange(compiled.n_components)
            hi = rng.randrange(compiled.n_hosts)
            undeployed_movers += assignment[ci] == UNDEPLOYED
            assert kernel.move_delta(assignment, ci, hi) == csr_move_delta(
                objective, kernel, compiled, assignment, ci, hi)
        assert undeployed_movers > 0


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


def random_assignment(rng, compiled, undeployed):
    """A host index per component, *undeployed* of them ``UNDEPLOYED``."""
    assignment = [rng.randrange(compiled.n_hosts)
                  for __ in range(compiled.n_components)]
    for ci in rng.sample(range(compiled.n_components), undeployed):
        assignment[ci] = UNDEPLOYED
    return assignment


class TestSwapDelta:
    """``Kernel.swap_delta`` is two sequential ``move_delta`` calls, the
    second with the first component already on the other's host."""

    @pytest.mark.parametrize("objective", all_objectives(),
                             ids=lambda o: o.name + ("-criticality" if getattr(
                                 o, "use_criticality", False) else ""))
    @pytest.mark.parametrize("seed", [4, 19])
    def test_bit_identical_and_restores_assignment(self, objective, seed):
        model = build_model(5, 14, seed)
        compiled = compiled_model(model)
        kernel = compile_kernel(objective, compiled)
        reference_kernel = compile_kernel(objective, compiled)
        rng = random.Random(seed)
        undeployed_sides = 0
        for trial in range(60):
            assignment = random_assignment(rng, compiled, trial % 3)
            ca = rng.randrange(compiled.n_components)
            cb = rng.randrange(compiled.n_components)
            ha, hb = assignment[ca], assignment[cb]
            undeployed_sides += UNDEPLOYED in (ha, hb)
            moved = list(assignment)
            first = reference_kernel.move_delta(moved, ca, hb)
            moved[ca] = hb
            expected = first + reference_kernel.move_delta(moved, cb, ha)
            before = list(assignment)
            assert kernel.swap_delta(assignment, ca, cb) == expected, \
                (objective.name, trial)
            assert assignment == before
        assert undeployed_sides > 0


def edge_order_evaluate(kernel, compiled, assignment):
    """Reference pair-weight ``evaluate``: one loop over the edges in
    order, testing each weight and each endpoint."""
    matrix = (compiled.security if isinstance(kernel.objective,
                                              SecurityObjective)
              else compiled.reliability)
    total = served = 0.0
    for a, b, weight in zip(compiled.edge_a, compiled.edge_b,
                            kernel_edge_weights(kernel, compiled),
                            strict=True):
        if weight <= 0.0:
            continue
        total += weight  # not sum(): 3.12's float sum is compensated
        host_a, host_b = assignment[a], assignment[b]
        if host_a == UNDEPLOYED or host_b == UNDEPLOYED:
            continue
        served += weight * matrix[host_a][host_b]
    return 1.0 if total == 0.0 else served / total


def kernel_edge_weights(kernel, compiled):
    objective = kernel.objective
    if isinstance(objective, AvailabilityObjective) \
            and objective.use_criticality:
        return [f * c for f, c in zip(compiled.edge_frequency,
                                      compiled.edge_criticality, strict=True)]
    return compiled.edge_frequency


class TestPairWeightEvaluate:
    """The run-grouped ``evaluate`` adds the same products in edge order."""

    @pytest.mark.parametrize("objective", [
        AvailabilityObjective(), AvailabilityObjective(use_criticality=True),
        SecurityObjective(),
    ], ids=["availability", "availability-criticality", "security"])
    @pytest.mark.parametrize("seed", [6, 31])
    def test_bit_identical_to_edge_loop(self, objective, seed):
        model = build_model(6, 18, seed)
        rng = random.Random(seed)
        for link in model.logical_links:  # zero-weight edges to skip
            if rng.random() < 0.3:
                model.set_logical_link_param(*link.components,
                                             "criticality", 0.0)
        compiled = compiled_model(model)
        kernel = compile_kernel(objective, compiled)
        for trial in range(40):
            assignment = tuple(random_assignment(rng, compiled, trial % 4))
            assert kernel.evaluate(assignment) == edge_order_evaluate(
                kernel, compiled, assignment), trial
