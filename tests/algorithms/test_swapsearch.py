"""Tests for the Kernighan-Lin-style swap search."""

import pytest

from repro.algorithms import HillClimbingAlgorithm, SwapSearchAlgorithm
from repro.core import (
    AvailabilityObjective, ConstraintSet, DeploymentModel, MemoryConstraint,
)
from repro.desi import Generator, GeneratorConfig


def memory_locked_model():
    """Two hosts, each exactly full; the optimum requires a SWAP.

    x (on h0) chats with y (on h1); u (on h1) chats with v (on h0).  Both
    pairs straddle a 0.5-reliability link; swapping y and v collocates
    both pairs.  No single move is memory-feasible: every host is full.
    """
    model = DeploymentModel(name="locked")
    model.add_host("h0", memory=20.0)
    model.add_host("h1", memory=20.0)
    model.connect_hosts("h0", "h1", reliability=0.5, bandwidth=100.0)
    for component in ("x", "y", "u", "v"):
        model.add_component(component, memory=10.0)
    model.connect_components("x", "y", frequency=5.0)
    model.connect_components("u", "v", frequency=5.0)
    model.deploy("x", "h0")
    model.deploy("v", "h0")
    model.deploy("y", "h1")
    model.deploy("u", "h1")
    return model


class TestSwapSearch:
    def test_escapes_memory_locked_optimum(self, availability):
        model = memory_locked_model()
        constraints = ConstraintSet([MemoryConstraint()])
        # Hill-climb is stuck: no single move fits.
        stuck = HillClimbingAlgorithm(availability, constraints,
                                      seed=1).run(model)
        assert stuck.value == pytest.approx(0.5)
        assert stuck.moves_from_initial == 0
        # Swap search exchanges y and v: both pairs collocate.
        result = SwapSearchAlgorithm(availability, constraints,
                                     seed=1).run(model)
        assert result.value == pytest.approx(1.0)
        assert result.extra["swaps_taken"] >= 1
        assert MemoryConstraint().is_satisfied(model, result.deployment)

    def test_never_worse_than_hillclimb(self, availability,
                                        memory_constraints):
        """Swap search explores a superset of hill-climb's neighborhood."""
        models = Generator(GeneratorConfig(
            hosts=5, components=12, host_memory=(15.0, 30.0),
            memory_headroom=1.15), seed=91).generate_many(4)
        for model in models:
            single = HillClimbingAlgorithm(availability, memory_constraints,
                                           seed=1).run(model)
            swap = SwapSearchAlgorithm(availability, memory_constraints,
                                       seed=1).run(model)
            assert swap.valid
            assert swap.value >= single.value - 1e-9

    def test_works_for_minimize_objectives(self, memory_constraints,
                                           small_model):
        from repro.core import LatencyObjective
        objective = LatencyObjective()
        initial = objective.evaluate(small_model, small_model.deployment)
        result = SwapSearchAlgorithm(objective, memory_constraints,
                                     seed=1).run(small_model)
        assert result.valid
        assert result.value <= initial + 1e-9

    def test_swap_delta_is_exact(self, availability, small_model):
        from repro.algorithms import SearchState
        from repro.algorithms.engine import EvaluationEngine
        assignment = dict(small_model.deployment)
        components = small_model.component_ids
        comp_a, comp_b = components[0], components[-1]
        if assignment[comp_a] == assignment[comp_b]:
            assignment[comp_b] = next(
                h for h in small_model.host_ids
                if h != assignment[comp_a])
        engine = EvaluationEngine(availability)
        state = SearchState(small_model, ConstraintSet(), engine, assignment)
        before = availability.evaluate(small_model, assignment)
        index = state.cm.component_index
        delta = engine.swap_route(small_model)(
            state.array, index[comp_a], index[comp_b])
        swapped = dict(assignment)
        swapped[comp_a], swapped[comp_b] = swapped[comp_b], swapped[comp_a]
        after = availability.evaluate(small_model, swapped)
        assert delta == pytest.approx(after - before, abs=1e-12)
        # The probe must not have mutated the working state.
        mapping = state.cm.decode(state.array)
        assert mapping == assignment
        assert mapping[comp_a] != mapping[comp_b]

    def test_round_cap(self, availability, memory_constraints, medium_model):
        capped = SwapSearchAlgorithm(availability, memory_constraints,
                                     seed=1, max_rounds=1).run(medium_model)
        assert capped.extra["rounds"] == 1
