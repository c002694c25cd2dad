"""Property-based tests: every barrier state a planner emits is as safe
under the compiled constraint path as under the object path.

The planner searches orderings with the compiled checker's incremental
place/undo; these properties pin that the states it promises (every
post-wave intermediate deployment, including staged orders — which are
exactly the states barrier rollback restores) are judged identically by
the compiled kernels and the plain object ``ConstraintSet``, and that no
barrier is worse than the deployment the schedule started from.
"""

from hypothesis import given, settings, strategies as st

from repro.algorithms.search import ObjectConstraintChecker, make_checker
from repro.core.constraints import (
    CollocationConstraint, ConstraintSet, LocationConstraint,
    MemoryConstraint,
)
from repro.core.errors import ScheduleError
from repro.core.model import DeploymentModel
from repro.plan import MigrationPlanner


@st.composite
def planner_cases(draw):
    """A connected model, a constraint set, and a feasible-ish target."""
    n_hosts = draw(st.integers(2, 5))
    n_components = draw(st.integers(1, 6))
    hosts = [f"h{i}" for i in range(n_hosts)]
    components = [f"c{i}" for i in range(n_components)]
    model = DeploymentModel(name="hyp-plan")
    capacities = [draw(st.floats(8.0, 60.0)) for __ in hosts]
    for host, capacity in zip(hosts, capacities):
        model.add_host(host, memory=capacity)
    # A ring plus random chords keeps every pair routable (directly or
    # via relays) so reachability never empties the move set.
    linked = set()
    for i in range(n_hosts):
        pair = tuple(sorted((hosts[i], hosts[(i + 1) % n_hosts])))
        if pair in linked:
            continue
        linked.add(pair)
        model.connect_hosts(*pair, reliability=1.0,
                            bandwidth=draw(st.floats(10.0, 200.0)),
                            delay=draw(st.floats(0.001, 0.05)))
    for i in range(n_hosts):
        for j in range(i + 2, n_hosts):
            pair = (hosts[i], hosts[j])
            if pair not in linked and draw(st.booleans()):
                linked.add(pair)
                model.connect_hosts(*pair, reliability=1.0,
                                    bandwidth=draw(st.floats(10.0, 200.0)),
                                    delay=draw(st.floats(0.001, 0.05)))
    for component in components:
        model.add_component(component,
                            memory=draw(st.floats(0.5, 8.0)))
        model.deploy(component, draw(st.sampled_from(hosts)))
    constraints = ConstraintSet([MemoryConstraint()])
    if n_components >= 2 and draw(st.booleans()):
        constraints.add(CollocationConstraint(
            [components[0], components[1]],
            together=draw(st.booleans())))
    if draw(st.booleans()):
        constraints.add(LocationConstraint(
            components[-1], forbidden=[draw(st.sampled_from(hosts))]))
    target = {component: draw(st.sampled_from(hosts))
              for component in components}
    max_wave_moves = draw(st.sampled_from([1, 2, 8]))
    return model, constraints, target, max_wave_moves


@given(planner_cases())
@settings(max_examples=60, deadline=None)
def test_barrier_states_agree_across_constraint_paths(case):
    model, constraints, target, max_wave_moves = case
    planner = MigrationPlanner(model, constraints,
                               max_wave_moves=max_wave_moves)
    try:
        schedule = planner.schedule(target)
    except ScheduleError:
        return  # no safe ordering exists for this draw — nothing to check
    compiled = make_checker(model, constraints)
    objects = ObjectConstraintChecker(model, constraints)
    start = dict(schedule.current)
    compiled.reset(start)
    objects.reset(start)
    baseline_compiled = compiled.violation_count()
    assert baseline_compiled == objects.violation_count()
    states = [schedule.state_after(-1)] + list(schedule.barrier_states())
    for state in states:
        compiled.reset(state)
        objects.reset(state)
        compiled_violations = compiled.violation_count()
        assert compiled_violations == objects.violation_count(), \
            f"compiled and object paths disagree on {state}"
        assert compiled.satisfied() == objects.satisfied()
        # Barrier safety: no intermediate state (these are exactly the
        # states rollback can restore) is worse than the start.
        assert compiled_violations <= baseline_compiled
        # Object-path ground truth: the plain ConstraintSet agrees.
        assert (len(constraints.violations(model, state)) ==
                compiled_violations)


@given(planner_cases())
@settings(max_examples=40, deadline=None)
def test_schedule_reaches_target_except_unreachable(case):
    model, constraints, target, max_wave_moves = case
    planner = MigrationPlanner(model, constraints,
                               max_wave_moves=max_wave_moves)
    try:
        schedule = planner.schedule(target)
    except ScheduleError:
        return
    final = schedule.final_state()
    for component, destination in target.items():
        if component in schedule.unreachable:
            assert final[component] == schedule.current[component]
        else:
            assert final[component] == destination
    # Staged components always complete their journey by the last wave.
    for component in schedule.staged_components:
        assert final[component] == target[component]
