"""Tests for the Exact algorithm: optimality, guards, pruning."""

import pytest

from repro.algorithms import ExactAlgorithm
from repro.core import (
    AvailabilityObjective, ConstraintSet, DeploymentModel, MemoryConstraint,
)
from repro.core.constraints import LocationConstraint, fix_component
from repro.core.errors import AlgorithmError, NoValidDeploymentError


class TestOptimality:
    def test_matches_brute_force(self, small_model, availability,
                                 memory_constraints):
        algorithm = ExactAlgorithm(availability, memory_constraints)
        result = algorithm.run(small_model)
        # Independent brute force over the full space.
        best = None
        for deployment in small_model.all_deployments():
            if not memory_constraints.is_satisfied(small_model, deployment):
                continue
            value = availability.evaluate(small_model, deployment)
            if best is None or value > best:
                best = value
        assert result.value == pytest.approx(best)
        assert result.valid

    def test_finds_obvious_collocation(self, tiny_model, availability):
        result = ExactAlgorithm(availability, ConstraintSet()).run(tiny_model)
        # With no constraints, everything on one host is optimal (A = 1).
        assert result.value == pytest.approx(1.0)
        assert len(set(result.deployment.values())) == 1

    def test_respects_memory(self, availability):
        model = DeploymentModel()
        model.add_host("h1", memory=10.0)
        model.add_host("h2", memory=10.0)
        model.connect_hosts("h1", "h2", reliability=0.5)
        model.add_component("a", memory=10.0)
        model.add_component("b", memory=10.0)
        model.connect_components("a", "b", frequency=1.0)
        model.deploy("a", "h1")
        model.deploy("b", "h1")  # invalid start: over memory
        result = ExactAlgorithm(
            availability, ConstraintSet([MemoryConstraint()])).run(model)
        assert result.valid
        assert result.deployment["a"] != result.deployment["b"]
        assert result.value == pytest.approx(0.5)


class TestGuards:
    def test_space_guard_trips(self, availability):
        model = DeploymentModel()
        for index in range(4):
            model.add_host(f"h{index}")
        for index in range(12):
            model.add_component(f"c{index}")
        algorithm = ExactAlgorithm(availability, max_space=1e6)
        with pytest.raises(AlgorithmError, match="search space"):
            algorithm.run(model)

    def test_empty_model_rejected(self, availability):
        model = DeploymentModel()
        model.add_host("h1")
        with pytest.raises(AlgorithmError, match="no components"):
            ExactAlgorithm(availability).run(model)

    def test_unsatisfiable_constraints(self, tiny_model, availability):
        impossible = ConstraintSet([
            LocationConstraint("c1", allowed=[]),  # nowhere legal
        ])
        with pytest.raises(NoValidDeploymentError):
            ExactAlgorithm(availability, impossible).run(tiny_model)


class TestPruning:
    def test_fixed_components_shrink_search(self, small_model, availability):
        """Fixing m components reduces work toward O(k^(n-m)) (§5.1)."""
        free = ExactAlgorithm(availability, ConstraintSet())
        free_result = free.run(small_model)
        pinned_constraints = ConstraintSet([
            fix_component(component, free_result.deployment[component])
            for component in small_model.component_ids[:4]
        ])
        pinned = ExactAlgorithm(availability, pinned_constraints)
        pinned_result = pinned.run(small_model)
        k = len(small_model.host_ids)
        assert pinned_result.extra["visited_leaves"] <= \
            free_result.extra["visited_leaves"] / (k ** 4) * 1.01
        # Pinning to the optimum keeps the optimal value reachable.
        assert pinned_result.value == pytest.approx(free_result.value)

    def test_prune_flag_off_visits_everything(self, tiny_model, availability):
        unpruned = ExactAlgorithm(availability, ConstraintSet(), prune=False)
        result = unpruned.run(tiny_model)
        assert result.extra["visited_leaves"] == 2 ** 3

    def test_pruning_never_loses_optimum(self, small_model, availability,
                                         memory_constraints):
        pruned = ExactAlgorithm(availability, memory_constraints,
                                prune=True).run(small_model)
        unpruned = ExactAlgorithm(availability, memory_constraints,
                                  prune=False).run(small_model)
        assert pruned.value == pytest.approx(unpruned.value)


class TestResultMetadata:
    def test_result_fields(self, tiny_model, availability):
        result = ExactAlgorithm(availability, ConstraintSet()).run(tiny_model)
        assert result.algorithm == "exact"
        assert result.objective == "availability"
        assert result.elapsed >= 0.0
        assert result.evaluations > 0
        assert result.extra["optimal"]
        assert "moves" in result.summary_line()

    def test_moves_counted_from_initial(self, tiny_model, availability):
        result = ExactAlgorithm(availability, ConstraintSet()).run(
            tiny_model, initial={"c1": "hA", "c2": "hA", "c3": "hA"})
        if set(result.deployment.values()) == {"hA"}:
            assert result.moves_from_initial == 0
