"""Swap feasibility: the compiled set's arithmetic against the probe sequence.

``CompiledConstraintChecker.swap_allows`` answers memory/CPU/location swaps
by arithmetic on the bound state instead of placing, probing and undoing.
SwapSearch's trajectories and its ``constraint_checks`` counter are pinned,
so for every pair of components on distinct hosts the arithmetic must give
the object checker's probe-sequence answer, charge the same checks, and
leave the bound state bit-identical.

Weights are dyadic rationals (multiples of 1/8), so the object path's fresh
sums and the compiled set's incremental loads agree exactly; the
generated-model test then pins the float order against the compiled probe
sequence on arbitrary weights.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import make_checker
from repro.algorithms.search import _probe_swap
from repro.core.constraints import (
    BandwidthConstraint, CollocationConstraint, ConstraintSet, CpuConstraint,
    LocationConstraint, MemoryConstraint,
)
from repro.core.model import DeploymentModel
from repro.desi import Generator, GeneratorConfig
from tests.constraint_paths import object_path

KINDS = {
    "memory": ("memory",),
    "memory+cpu": ("memory", "cpu"),
    "memory+location": ("memory", "location"),
    "memory+cpu+location": ("memory", "cpu", "location"),
    "+collocation": ("memory", "cpu", "location", "collocation"),
    "+bandwidth": ("memory", "cpu", "location", "bandwidth"),
}


def _eighths(rng: random.Random, lo: int, hi: int) -> float:
    return rng.randint(lo, hi) / 8.0


def _world(seed: int, kinds, exact_fit: bool):
    """(model, constraint set, full host-index assignment).

    Host capacities are the assigned loads scaled to slack, exact or
    overloaded.  With *exact_fit*, every host starts within capacity, the
    hosts of components 0 and the first component elsewhere are sized so
    that exchanging the two fits exactly, and in about half the worlds a
    third host is overloaded.  Collocation groups start satisfied.
    """
    rng = random.Random(seed)
    n_hosts, n_components = rng.randint(3, 5), rng.randint(6, 9)
    memory = [_eighths(rng, 8, 64) for __ in range(n_components)]
    cpu = [_eighths(rng, 4, 32) for __ in range(n_components)]
    assignment = [rng.randrange(n_hosts) for __ in range(n_components)]
    if "collocation" in kinds:
        assignment[2] = assignment[1]
        if assignment[4] == assignment[3]:
            assignment[4] = (assignment[3] + 1) % n_hosts

    def loads(weights):
        out = [0.0] * n_hosts
        for ci, hi in enumerate(assignment):
            out[hi] += weights[ci]
        return out

    mem_load, cpu_load = loads(memory), loads(cpu)
    scale = [rng.choice((0.75, 1.0, 1.0, 1.25, 2.0)) for __ in range(n_hosts)]
    mem_cap = [round(load * s * 8) / 8.0 for load, s in zip(mem_load, scale)]
    cpu_cap = [round(load * s * 8) / 8.0 for load, s in zip(cpu_load, scale)]
    if exact_fit:
        mem_cap = [max(cap, load) for cap, load in zip(mem_cap, mem_load)]
        cpu_cap = [max(cap, load) for cap, load in zip(cpu_cap, cpu_load)]
        ca = 0
        cb = next((c for c in range(n_components)
                   if assignment[c] != assignment[ca]), None)
        if cb is not None:
            ha, hb = assignment[ca], assignment[cb]
            for cap, load, need in ((mem_cap, mem_load, memory),
                                    (cpu_cap, cpu_load, cpu)):
                cap[ha] = max(load[ha], load[ha] - need[ca] + need[cb])
                cap[hb] = max(load[hb], load[hb] + need[ca] - need[cb])
            elsewhere = [h for h in range(n_hosts)
                         if h not in (ha, hb) and mem_load[h] > 0]
            if elsewhere and rng.random() < 0.5:
                mem_cap[elsewhere[0]] = mem_load[elsewhere[0]] - 0.125

    model = DeploymentModel(name=f"swap-{seed}")
    hosts = [f"h{i}" for i in range(n_hosts)]
    components = [f"c{i}" for i in range(n_components)]
    for hi, host in enumerate(hosts):
        model.add_host(host, memory=mem_cap[hi], cpu=cpu_cap[hi])
    for ci, component in enumerate(components):
        model.add_component(component, memory=memory[ci], cpu=cpu[ci])
    for i in range(n_hosts):
        for j in range(i + 1, n_hosts):
            model.connect_hosts(hosts[i], hosts[j], reliability=0.5,
                                bandwidth=_eighths(rng, 8, 160))
    for i in range(n_components):
        for j in range(i + 1, n_components):
            if rng.random() < 0.3:
                model.connect_components(components[i], components[j],
                                         frequency=_eighths(rng, 1, 40),
                                         evt_size=_eighths(rng, 1, 16))

    members = []
    if "memory" in kinds:
        members.append(MemoryConstraint())
    if "cpu" in kinds:
        members.append(CpuConstraint())
    if "location" in kinds:
        for component in rng.sample(components, 2):
            members.append(LocationConstraint(
                component, forbidden=rng.sample(hosts, 1)))
        members.append(LocationConstraint(
            components[-1], allowed=rng.sample(hosts, 2)))
    if "collocation" in kinds:
        members.append(CollocationConstraint(components[1:3], together=True))
        members.append(CollocationConstraint(components[3:5], together=False))
    if "bandwidth" in kinds:
        members.append(BandwidthConstraint())
    return model, ConstraintSet(members), assignment


def _state(ccs):
    """The bound state, floats by bit pattern."""
    def exact(value):
        return value.hex() if isinstance(value, float) else value

    return (
        list(ccs.assignment),
        [load.hex() for load in ccs.mem_load],
        [load.hex() for load in ccs.cpu_load],
        dict(ccs.tally),
        [{key: (dict(value) if isinstance(value, dict) else value)
          for key, value in state.items()} for state in ccs.together],
        [{key: (dict(value) if isinstance(value, dict) else value)
          for key, value in state.items()} for state in ccs.apart],
        [({key: exact(v) for key, v in state["demand"].items()},
          dict(state["count"]), state["over"]) for state in ccs.bandwidth],
    )


def _charged(checker, call, ca, cb):
    before = checker.stats.constraint_checks
    answer = call(checker, ca, cb)
    return answer, checker.stats.constraint_checks - before


def _pairs(assignment):
    n = len(assignment)
    return [(ca, cb) for ca in range(n) for cb in range(n)
            if assignment[ca] != assignment[cb]]


@pytest.mark.parametrize("exact_fit", [False, True])
@pytest.mark.parametrize("kinds", sorted(KINDS))
def test_swap_allows_matches_object_probe_sequence(kinds, exact_fit):
    answers, charges = set(), set()
    arithmetic = not {"collocation", "bandwidth"} & set(KINDS[kinds])
    for seed in range(30):
        model, constraints, assignment = _world(seed, KINDS[kinds],
                                                exact_fit)
        compiled = make_checker(model, constraints)
        reference = make_checker(model, object_path(constraints))
        assert compiled.compiled and not reference.compiled
        assert compiled.ccs.swap_by_arithmetic is arithmetic
        compiled.reset(assignment)
        reference.reset(assignment)
        bound = _state(compiled.ccs)
        partial = dict(reference.partial)
        for ca, cb in _pairs(assignment):
            expected = _charged(reference, _probe_swap, ca, cb)
            got = _charged(compiled, type(compiled).swap_allows, ca, cb)
            assert got == expected, (seed, ca, cb)
            assert _state(compiled.ccs) == bound, (seed, ca, cb)
            assert reference.partial == partial
            answers.add(got[0])
            charges.add(got[1])
    # Every outcome of the probe sequence was exercised.
    assert answers == {True, False}
    assert charges == {1, 2}


def test_exact_fit_exchange_beside_an_overloaded_host():
    """x cannot join v on h1 (15 + 12.5 > 17.5), but the x<->v exchange
    fills h1 exactly.  It is allowed while every host fits, and refused
    (after two checks) once a third host is overloaded, since the
    exchanged state is then unsatisfied."""
    for overloaded in (False, True):
        model = DeploymentModel(name="exact-fit")
        model.add_host("h0", memory=20.0, cpu=4.0)
        model.add_host("h1", memory=17.5, cpu=4.0)
        model.add_host("h2", memory=5.0 if overloaded else 10.0, cpu=4.0)
        for component, memory in (("x", 12.5), ("u", 7.5), ("y", 5.0),
                                  ("v", 10.0), ("w", 10.0)):
            model.add_component(component, memory=memory, cpu=1.0)
        constraints = ConstraintSet([MemoryConstraint(), CpuConstraint()])
        compiled = make_checker(model, constraints)
        reference = make_checker(model, object_path(constraints))
        for checker in (compiled, reference):
            checker.reset({"x": "h0", "u": "h0", "y": "h1", "v": "h1",
                           "w": "h2"})
        bound = _state(compiled.ccs)
        x, v = (compiled.cm.component_index[c] for c in ("x", "v"))
        assert _charged(reference, _probe_swap, x, v) == (not overloaded, 2)
        assert _charged(compiled, type(compiled).swap_allows, x, v) \
            == (not overloaded, 2)
        assert _state(compiled.ccs) == bound


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_arithmetic_keeps_the_probe_sequence_float_order(seed):
    """On generated (non-dyadic) weights the arithmetic answers and charges
    exactly what the compiled probe sequence does."""
    config = GeneratorConfig(hosts=6, components=24,
                             host_memory=(20.0, 50.0), memory_headroom=1.05)
    model = Generator(config, seed=seed).generate()
    constraints = ConstraintSet([MemoryConstraint(), CpuConstraint()])
    arithmetic = make_checker(model, constraints)
    probes = make_checker(model, constraints)
    rng = random.Random(seed)
    n_hosts = arithmetic.cm.n_hosts
    bases = [arithmetic.cm.encode(model.deployment)] + [
        [rng.randrange(n_hosts) for __ in range(arithmetic.cm.n_components)]
        for __ in range(3)]
    answers = set()
    for assignment in bases:
        arithmetic.reset(assignment)
        probes.reset(assignment)
        bound = _state(arithmetic.ccs)
        for ca, cb in _pairs(assignment):
            got = _charged(arithmetic, type(arithmetic).swap_allows, ca, cb)
            assert got == _charged(probes, _probe_swap, ca, cb)
            assert _state(arithmetic.ccs) == bound
            answers.add(got)
    assert {(True, 2), (False, 1)} <= answers
