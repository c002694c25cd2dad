"""Unit tests for the incremental search frontier (repro.algorithms.search).

The load-bearing invariant: after any sequence of applied moves,
``SearchState.best_move()`` returns exactly what a brute-force scan over all
(component, host) pairs would pick under the canonical selection rule
(max direction-adjusted gain > 1e-12, earliest component then host wins
ties) — while re-scoring only the invalidated slice.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.algorithms import SearchState, greedy_fill_deployment, make_checker
from repro.algorithms.base import random_valid_deployment
from repro.algorithms.compiled import UNDEPLOYED
from repro.algorithms.engine import EvaluationEngine
from repro.algorithms.search import GAIN_EPS
from repro.core.constraints import (
    BandwidthConstraint, CollocationConstraint, ConstraintSet,
    LocationConstraint, MemoryConstraint,
)
from repro.core.errors import EvaluationBudgetExceeded
from repro.core.objectives import (
    AvailabilityObjective, CommunicationCostObjective, LatencyObjective,
    ThroughputObjective,
)
from repro.desi import Generator, GeneratorConfig
from tests.constraint_paths import object_path


def _model(seed=5, hosts=5, components=12):
    config = GeneratorConfig(hosts=hosts, components=components,
                             host_memory=(15.0, 30.0),
                             memory_headroom=1.3,
                             reliability=(0.3, 0.95))
    return Generator(config, seed=seed).generate()


def _rich_constraints(model):
    comps = model.component_ids
    return ConstraintSet([
        MemoryConstraint(),
        BandwidthConstraint(),
        LocationConstraint(comps[0], forbidden=[model.host_ids[0]]),
        CollocationConstraint([comps[1], comps[2]], together=True),
        CollocationConstraint([comps[3], comps[4]], together=False),
    ])


def _brute_force_best(state):
    """Reference implementation of the canonical selection rule."""
    maximize = state.engine.objective.direction == "max"
    best = None
    for ci in range(state.cm.n_components):
        for hi in range(state.cm.n_hosts):
            if hi == state.array[ci]:
                continue
            if not state.checker.allows_index(ci, hi):
                continue
            delta = state.delta(ci, hi)
            gain = delta if maximize else -delta
            if gain > 1e-12 and (best is None or gain > best[0]):
                best = (gain, ci, hi)
    return None if best is None else (best[1], best[2])


@pytest.mark.parametrize("objective_cls", [
    AvailabilityObjective,        # neighbor-local deltas
    CommunicationCostObjective,   # neighbor-local, minimize
    ThroughputObjective,          # bottleneck: full invalidation per move
])
@pytest.mark.parametrize("compiled", [True, False])
def test_best_move_matches_brute_force_along_trajectory(objective_cls,
                                                        compiled):
    model = _model()
    constraints = _rich_constraints(model)
    if not compiled:
        constraints = object_path(constraints)
    objective = objective_cls()
    engine = EvaluationEngine(objective, constraints)
    state = SearchState(model, constraints, engine, model.deployment)
    assert state.checker.compiled is compiled
    reference = SearchState(model, constraints,
                            EvaluationEngine(objective, constraints),
                            model.deployment)
    for step in range(12):
        move = state.best_move()
        expected = _brute_force_best(reference)
        assert (None if move is None else (move[0], move[1])) == expected, \
            f"diverged at step {step}"
        if move is None:
            break
        state.apply(move[0], move[1])
        reference.apply(move[0], move[1])
        assert state.array == reference.array


def test_compiled_and_object_frontiers_take_identical_paths():
    model = _model(seed=11)
    constraints = _rich_constraints(model)
    objective = AvailabilityObjective()
    states = [
        SearchState(model, checked, EvaluationEngine(objective, checked),
                    model.deployment)
        for checked in (constraints, object_path(constraints))
    ]
    assert [s.checker.compiled for s in states] == [True, False]
    while True:
        moves = [s.best_move() for s in states]
        assert moves[0] == moves[1]
        if moves[0] is None:
            break
        for s in states:
            s.apply(moves[0][0], moves[0][1])
    assert states[0].array == states[1].array
    assert states[0].moves == states[1].moves


def test_frontier_reuses_cached_deltas():
    model = _model(seed=7)
    constraints = ConstraintSet([MemoryConstraint()])
    objective = AvailabilityObjective()
    engine = EvaluationEngine(objective, constraints)
    state = SearchState(model, constraints, engine, model.deployment)
    first = state.best_move()
    assert first is not None
    scored_initially = engine.stats.moves_rescored
    assert scored_initially > 0
    state.apply(first[0], first[1])
    state.best_move()
    rescored = engine.stats.moves_rescored - scored_initially
    # Only rows touching the moved component / changed hosts re-score;
    # with 12 components x 5 hosts that must be well under a full rescan.
    assert rescored < scored_initially
    assert engine.stats.frontier_hits > 0
    assert engine.stats.constraint_checks > 0


def test_apply_keeps_checker_and_array_in_sync():
    model = _model(seed=9)
    constraints = _rich_constraints(model)
    objective = AvailabilityObjective()
    for checked in (constraints, object_path(constraints)):
        state = SearchState(model, checked,
                            EvaluationEngine(objective, checked),
                            model.deployment)
        cm = state.cm
        for __ in range(6):
            move = state.best_move()
            if move is None:
                break
            state.apply(move[0], move[1])
            # The checker's array is the state's array: one mutation source.
            assert state.array is state.checker.assignment
            assert state.array[move[0]] == move[1]
            assert state.moves[-1] == (cm.component_ids[move[0]],
                                       cm.host_ids[move[1]])
            mapping = cm.decode(state.array)
            assert state.satisfied() == constraints.is_satisfied(model,
                                                                 mapping)
            if not state.checker.compiled:
                assert state.checker.partial == mapping
        assert len(state.moves) > 0


def test_swap_allowed_permits_exact_fit_exchange():
    """Replicates the memory-locked scenario: no single move fits, but the
    pairwise exchange must be judged feasible with each component
    hypothetically removed from its side."""
    from repro.core.model import DeploymentModel
    model = DeploymentModel(name="locked")
    model.add_host("h0", memory=20.0)
    model.add_host("h1", memory=20.0)
    model.connect_hosts("h0", "h1", reliability=0.5, bandwidth=100.0)
    for component in ("x", "y", "u", "v"):
        model.add_component(component, memory=10.0)
    model.deploy("x", "h0")
    model.deploy("v", "h0")
    model.deploy("y", "h1")
    model.deploy("u", "h1")
    objective = AvailabilityObjective()
    compiled = ConstraintSet([MemoryConstraint()])
    for constraints in (compiled, object_path(compiled)):
        state = SearchState(model, constraints,
                            EvaluationEngine(objective, constraints),
                            model.deployment)
        ya, vb = state.cm.component_index["y"], state.cm.component_index["v"]
        assert state.best_move() is None  # both hosts full: no single move
        assert state.checker.swap_allows(ya, vb)
        state.apply_swap(ya, vb)
        mapping = state.cm.decode(state.array)
        assert mapping["y"] == "h0"
        assert mapping["v"] == "h1"
        assert state.satisfied()


def test_make_checker_falls_back_for_unknown_constraint_types():
    class Odd(MemoryConstraint):
        pass

    model = _model(seed=3, hosts=3, components=5)
    compiled = make_checker(model, ConstraintSet([MemoryConstraint()]))
    fallback = make_checker(model, ConstraintSet([Odd()]))
    assert compiled.compiled
    assert not fallback.compiled
    # Both count their probes, place and undo by index, and expose the
    # same host-index assignment.
    for checker in (compiled, fallback):
        checker.reset({})
        assert checker.allows_index(0, 0)
        assert checker.stats.constraint_checks == 1
        token = checker.place_index(0, 0)
        assert checker.assignment[0] == 0
        checker.undo(token)
        assert checker.assignment == [UNDEPLOYED] * checker.cm.n_components
    assert fallback.partial == {}


@pytest.mark.parametrize("compiled", [True, False])
def test_greedy_fill_charges_one_check_per_probe(compiled):
    model = _model(seed=3, hosts=5, components=14)
    constraints = _rich_constraints(model)
    if not compiled:
        constraints = object_path(constraints)
    checker = make_checker(model, constraints)
    assert checker.compiled is compiled
    probes = []
    probe = checker.probe_index
    checker.probe_index = lambda ci, hi: probes.append(ci) or probe(ci, hi)
    checker.stats.constraint_checks = 0
    hosts = list(range(checker.cm.n_hosts))[::-1]
    components = list(range(checker.cm.n_components))
    assignment = greedy_fill_deployment(checker, hosts, components)
    assert assignment is not None and checker.satisfied()
    assert len(probes) > len(components)  # later hosts were probed too
    assert checker.stats.constraint_checks == len(probes) + 1  # + satisfied
    reference = make_checker(model, _rich_constraints(model))
    assert greedy_fill_deployment(reference, hosts, components) == assignment
    assert reference.stats.constraint_checks == len(probes)


def test_checkers_reset_from_an_index_list():
    model = _model(seed=3, hosts=4, components=8)
    constraints = _rich_constraints(model)
    assignment = make_checker(model, constraints).cm.encode(model.deployment)
    for checker in (make_checker(model, constraints),
                    make_checker(model, object_path(constraints))):
        checker.reset(assignment)
        by_index = checker.violation_count()
        checker.reset(model.deployment)
        assert checker.violation_count() == by_index
        checker.reset(())
        assert checker.violation_count() == 0


def _bound_state(checker):
    if checker.compiled:
        ccs = checker.ccs
        return (list(ccs.assignment), [x.hex() for x in ccs.mem_load],
                dict(ccs.tally), repr(ccs.together), repr(ccs.apart),
                repr(ccs.bandwidth))
    return list(checker.assignment), dict(checker.partial)


def test_violation_count_of_an_index_list_leaves_the_bound_state():
    """Genetic's fitness counts each individual without rebinding: counting
    a list equals ``reset(list)`` then ``violation_count()``, charges one
    check, and leaves the bound state as it was."""
    model = _model(seed=3, hosts=4, components=8)
    constraints = _rich_constraints(model)
    rng = random.Random(7)
    for members in (constraints, object_path(constraints)):
        checker = make_checker(model, members)
        fresh = make_checker(model, members)
        cm = checker.cm
        base = cm.encode(model.deployment)
        checker.reset(base)
        bound = _bound_state(checker)
        hosts = list(range(cm.n_hosts)) + [UNDEPLOYED]
        lists = [base, [UNDEPLOYED] * cm.n_components] + [
            [rng.choice(hosts) for __ in range(cm.n_components)]
            for __ in range(20)]
        counts = []
        for assignment in lists:
            checks = checker.stats.constraint_checks
            count = checker.violation_count(assignment)
            assert checker.stats.constraint_checks == checks + 1
            fresh.reset(assignment)
            assert count == fresh.violation_count()
            assert _bound_state(checker) == bound
            counts.append(count)
        assert min(counts) == 0 and max(counts) > 1


def test_checkers_reject_unknown_hosts():
    model = _model(seed=3, hosts=4, components=8)
    constraints = _rich_constraints(model)
    dangling = dict(model.deployment)
    dangling[model.component_ids[0]] = "ghost"
    for checker in (make_checker(model, constraints),
                    make_checker(model, object_path(constraints))):
        with pytest.raises(ValueError, match="unknown hosts"):
            checker.reset(dangling)
    with pytest.raises(ValueError, match="unknown hosts"):
        SearchState(model, object_path(constraints),
                    EvaluationEngine(AvailabilityObjective()), dangling)


def test_uncompilable_constraints_still_search_correctly():
    """With an unknown constraint type the frontier must stay conservative
    (every row's legality re-derived per move) yet still match brute
    force."""
    class Odd(MemoryConstraint):
        pass

    model = _model(seed=13, hosts=4, components=8)
    constraints = ConstraintSet([Odd()])
    objective = AvailabilityObjective()
    engine = EvaluationEngine(objective, constraints)
    state = SearchState(model, constraints, engine, model.deployment)
    reference = SearchState(model, constraints,
                            EvaluationEngine(objective, constraints),
                            model.deployment)
    assert not state.checker.compiled
    for __ in range(8):
        move = state.best_move()
        expected = _brute_force_best(reference)
        assert (None if move is None else (move[0], move[1])) == expected
        if move is None:
            break
        state.apply(move[0], move[1])
        reference.apply(move[0], move[1])


def _nested_swap_scan(state, threshold):
    """The pair scan SwapSearch ran before ``best_swap``: every pair on
    distinct hosts, probed, then scored as two ``state.delta`` calls with
    the first component temporarily on the other's host."""
    maximize = state.engine.objective.direction == "max"
    array = state.array
    best = None
    n = state.cm.n_components
    for ca in range(n):
        for cb in range(ca + 1, n):
            if (array[ca] == array[cb]
                    or not state.checker.swap_allows(ca, cb)):
                continue
            ha, hb = array[ca], array[cb]
            first = state.delta(ca, hb)
            array[ca] = hb
            second = state.delta(cb, ha)
            array[ca] = ha
            delta = first + second
            gain = delta if maximize else -delta
            if gain > threshold:
                threshold = gain
                best = (ca, cb, delta)
    return best


class _ObjectPathAvailability(AvailabilityObjective):
    """No kernel (dispatch is on the exact type): deltas take the
    engine's object route, two full evaluations each."""

    def move_delta(self, model, deployment, component, new_host):
        # Overridden, as MV015 asks of a supports_delta objective.
        return super().move_delta(model, deployment, component, new_host)


def _swap_rounds(model, constraints, objective, initial, scan, budget,
                 rounds=6):
    """Run SwapSearch's round loop with *scan* as the pair scan; return
    what each round picked, the engine counters, the evaluation count and
    whether the budget ran out."""
    engine = EvaluationEngine(objective, constraints, max_evaluations=budget)
    counted = [0]

    def count(n):
        counted[0] += n

    state = SearchState(model, constraints, engine, initial, count=count)
    maximize = objective.direction == "max"
    picks = []
    truncated = False
    try:
        for __ in range(rounds):
            step = state.best_move()
            threshold = GAIN_EPS if step is None else (
                step[2] if maximize else -step[2])
            swap = scan(state, threshold)
            picks.append((step, swap))
            if swap is not None:
                state.apply_swap(swap[0], swap[1])
            elif step is not None:
                state.apply(step[0], step[1])
            else:
                break
    except EvaluationBudgetExceeded:
        truncated = True
    return picks, dataclasses.asdict(engine.stats), counted[0], truncated


@pytest.mark.parametrize("objective_cls", [
    AvailabilityObjective,        # pair-weight kernel
    LatencyObjective,             # base swap_delta, minimize
    ThroughputObjective,          # base swap_delta over a stateful kernel
    _ObjectPathAvailability,      # no kernel: two object-route deltas
])
@pytest.mark.parametrize("compiled", [True, False])
def test_best_swap_matches_nested_scan(objective_cls, compiled):
    """Same pair, delta, counters and evaluation count as the nested scan,
    round after round, and with budgets that run out anywhere in a scan
    (both parities, so some run out between a pair's two charges)."""
    model = _model(seed=13, hosts=4, components=10)
    constraints = _rich_constraints(model)
    if not compiled:
        constraints = object_path(constraints)
    initial = random_valid_deployment(make_checker(model, constraints),
                                      random.Random(3))
    assert initial is not None
    objective = objective_cls()
    expected = _swap_rounds(model, constraints, objective, initial,
                            _nested_swap_scan, None)
    assert expected == _swap_rounds(model, constraints, objective, initial,
                                    SearchState.best_swap, None)
    assert any(swap is not None for __, swap in expected[0])
    charged = (expected[1]["full_evaluations"]
               + expected[1]["delta_evaluations"])
    rng = random.Random(objective_cls.__name__)
    budgets = sorted(rng.sample(range(1, charged), 12))
    budgets += [budget + 1 for budget in budgets[:4]]
    for budget in budgets:
        truncated = _swap_rounds(model, constraints, objective, initial,
                                 _nested_swap_scan, budget)
        assert truncated[3]
        assert _swap_rounds(model, constraints, objective, initial,
                            SearchState.best_swap, budget) == truncated, \
            budget
