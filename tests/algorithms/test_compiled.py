"""Tests for the compiled model/deployment views and kernel plumbing."""

from __future__ import annotations

import pytest

from repro.algorithms.compiled import (
    UNDEPLOYED, CompiledModel, compile_kernel, compiled_model, register_kernel,
)
from repro.core.model import DeploymentModel
from repro.core.objectives import (
    AvailabilityObjective, LatencyObjective, Objective, ThroughputObjective,
    WeightedObjective,
)


class TestCompiledModel:
    def test_index_maps_follow_sorted_ids(self, tiny_model):
        compiled = CompiledModel(tiny_model)
        assert compiled.host_ids == tiny_model.host_ids
        assert compiled.component_ids == tiny_model.component_ids
        for index, host_id in enumerate(compiled.host_ids):
            assert compiled.host_index[host_id] == index

    def test_edges_match_interaction_pairs(self, tiny_model):
        compiled = CompiledModel(tiny_model)
        pairs = list(tiny_model.interaction_pairs())
        assert len(compiled.edge_a) == len(pairs)
        for edge, (comp_a, comp_b, link) in enumerate(pairs):
            assert compiled.component_ids[compiled.edge_a[edge]] == comp_a
            assert compiled.component_ids[compiled.edge_b[edge]] == comp_b
            assert compiled.edge_frequency[edge] == link.frequency
            assert compiled.edge_evt_size[edge] == link.evt_size

    def test_csr_adjacency_matches_logical_neighbors(self, small_model):
        compiled = CompiledModel(small_model)
        for index, component_id in enumerate(compiled.component_ids):
            neighbors = tuple(
                compiled.component_ids[compiled.adj_neighbor[k]]
                for k in compiled.neighbors(index))
            assert neighbors == small_model.logical_neighbors(component_id)
            assert compiled.degree(index) == len(neighbors)

    def test_matrices_match_derived_queries(self, tiny_model):
        compiled = CompiledModel(tiny_model)
        for i, host_a in enumerate(compiled.host_ids):
            for j, host_b in enumerate(compiled.host_ids):
                assert compiled.reliability[i][j] == \
                    tiny_model.reliability(host_a, host_b)
                assert compiled.bandwidth[i][j] == \
                    tiny_model.bandwidth(host_a, host_b)
                assert compiled.delay[i][j] == \
                    tiny_model.delay(host_a, host_b)

    def test_disconnected_link_zeroes_reliability_and_bandwidth(self):
        model = DeploymentModel(name="m")
        model.add_host("h1")
        model.add_host("h2")
        model.connect_hosts("h1", "h2", reliability=0.9, bandwidth=10.0,
                            connected=False)
        compiled = CompiledModel(model)
        assert compiled.reliability[0][1] == 0.0
        assert compiled.bandwidth[0][1] == 0.0
        assert compiled.link_up[0][1] is False

    def test_encode_decode_roundtrip(self, tiny_model):
        compiled = CompiledModel(tiny_model)
        mapping = dict(tiny_model.deployment)
        assignment = compiled.encode(mapping)
        assert compiled.decode(assignment) == mapping

    def test_encode_marks_missing_components_undeployed(self, tiny_model):
        compiled = CompiledModel(tiny_model)
        assignment = compiled.encode({"c1": "hA"})
        assert assignment.count(UNDEPLOYED) == len(assignment) - 1

    def test_encode_refuses_unknown_host(self, tiny_model):
        compiled = CompiledModel(tiny_model)
        assert compiled.encode({"c1": "ghost"}) is None


class TestSnapshotCache:
    def test_same_snapshot_until_mutation(self, tiny_model):
        first = compiled_model(tiny_model)
        assert compiled_model(tiny_model) is first

    def test_parameter_change_recompiles(self, tiny_model):
        first = compiled_model(tiny_model)
        tiny_model.set_physical_link_param("hA", "hB", "reliability", 0.9)
        assert first.stale
        second = compiled_model(tiny_model)
        assert second is not first
        assert second.generation == first.generation + 1
        assert second.reliability[0][1] == 0.9

    def test_topology_change_recompiles(self, tiny_model):
        first = compiled_model(tiny_model)
        tiny_model.add_host("hC", memory=10.0)
        second = compiled_model(tiny_model)
        assert second is not first
        assert second.n_hosts == first.n_hosts + 1

    def test_deployment_change_does_not_recompile(self, tiny_model):
        first = compiled_model(tiny_model)
        tiny_model.deploy("c1", "hB")
        assert compiled_model(tiny_model) is first


class TestKernelRegistry:
    def test_all_builtins_compile_with_delta(self, tiny_model):
        from repro.core.objectives import (
            CommunicationCostObjective, DurabilityObjective,
            SecurityObjective,
        )
        compiled = compiled_model(tiny_model)
        for objective in (AvailabilityObjective(), LatencyObjective(),
                          CommunicationCostObjective(), SecurityObjective(),
                          ThroughputObjective(), DurabilityObjective()):
            kernel = compile_kernel(objective, compiled)
            assert kernel is not None, objective.name
            assert kernel.supports_delta is True

    def test_custom_objective_has_no_kernel(self, tiny_model):
        class Custom(Objective):
            name = "custom"

            def evaluate(self, model, deployment):
                return 0.0

        assert compile_kernel(Custom(), compiled_model(tiny_model)) is None

    def test_subclass_does_not_inherit_kernel(self, tiny_model):
        class Tweaked(AvailabilityObjective):
            # No kernel and no move_delta override: moves are scored by
            # full re-evaluation, so the class must not claim deltas.
            supports_delta = False

            def evaluate(self, model, deployment):
                return 0.5

        # Exact-type dispatch: a subclass overriding evaluate must not be
        # silently served by the parent's kernel.
        assert compile_kernel(Tweaked(), compiled_model(tiny_model)) is None

    def test_weighted_composes_term_kernels(self, tiny_model):
        weighted = WeightedObjective([(AvailabilityObjective(), 1.0),
                                      (ThroughputObjective(), 0.5)])
        kernel = compile_kernel(weighted, compiled_model(tiny_model))
        assert kernel is not None
        assert kernel.supports_delta is True

    def test_weighted_with_uncompilable_term_declines(self, tiny_model):
        class Custom(Objective):
            name = "custom"

            def evaluate(self, model, deployment):
                return 0.0

        weighted = WeightedObjective([(AvailabilityObjective(), 1.0),
                                      (Custom(), 0.5)])
        assert compile_kernel(weighted, compiled_model(tiny_model)) is None

    def test_register_kernel_extends_dispatch(self, tiny_model):
        class Constant(Objective):
            name = "constant"

            def evaluate(self, model, deployment):
                return 7.0

        class ConstantKernel:
            supports_delta = False

            def __init__(self, objective, compiled):
                self.objective = objective
                self.cm = compiled

            def evaluate(self, assignment):
                return 7.0

        register_kernel(Constant, ConstantKernel)
        try:
            kernel = compile_kernel(Constant(), compiled_model(tiny_model))
            assert kernel is not None
            assert kernel.evaluate([0, 0, 0]) == 7.0
        finally:
            from repro.algorithms import compiled as compiled_module
            del compiled_module._KERNEL_FACTORIES[Constant]
