"""Seed-determinism regression guard for the search-engine rewire.

The golden fixture (``data/search_determinism_golden.json``) was generated
by running the portfolio algorithms *before* they were rewired through
``repro.algorithms.search.SearchState`` / the compiled constraint checker.
Each entry also pins the run's value, evaluation count and engine
counters (``extra["engine"]``, including ``constraint_checks``); those
fields were generated before the search layer dropped its id-keyed
checker and state methods.  The tests assert that fixed-seed runs still
produce byte-identical outcomes, and that the compiled fast path and the
object constraint path agree move-for-move.

Regenerate the fixture (only when a deliberate behavioural change is being
made) with::

    PYTHONPATH=src:. python tests/algorithms/test_search_determinism.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.algorithms import (
    AvalaAlgorithm, DecApAlgorithm, GeneticAlgorithm, HillClimbingAlgorithm,
    SimulatedAnnealingAlgorithm, StochasticAlgorithm, SwapSearchAlgorithm,
)
from repro.core.constraints import (
    CollocationConstraint, ConstraintSet, LocationConstraint,
    MemoryConstraint,
)
from repro.core.errors import AlgorithmError, NoValidDeploymentError
from repro.core.objectives import AvailabilityObjective, ThroughputObjective
from repro.desi import Generator, GeneratorConfig
from tests.constraint_paths import object_path

GOLDEN = pathlib.Path(__file__).parent / "data" / "search_determinism_golden.json"

SEED = 421


def _models():
    config = GeneratorConfig(hosts=4, components=8,
                             host_memory=(10.0, 25.0),
                             memory_headroom=1.2,
                             reliability=(0.2, 0.95))
    return Generator(config, seed=77).generate_many(2, "det")


def _constraints(model, rich: bool) -> ConstraintSet:
    constraints = ConstraintSet([MemoryConstraint()])
    if rich:
        comps = model.component_ids
        constraints.add(
            LocationConstraint(comps[0], forbidden=[model.host_ids[0]]))
        constraints.add(
            CollocationConstraint([comps[1], comps[2]], together=True))
        constraints.add(
            CollocationConstraint([comps[3], comps[4]], together=False))
    return constraints


def _algorithms():
    return [
        ("hillclimb", lambda o, c: HillClimbingAlgorithm(o, c, seed=SEED)),
        ("swapsearch", lambda o, c: SwapSearchAlgorithm(o, c, seed=SEED)),
        ("annealing", lambda o, c: SimulatedAnnealingAlgorithm(
            o, c, seed=SEED, steps=1500)),
        ("genetic", lambda o, c: GeneticAlgorithm(
            o, c, seed=SEED, generations=15)),
        ("stochastic", lambda o, c: StochasticAlgorithm(
            o, c, seed=SEED, iterations=30)),
        ("avala", lambda o, c: AvalaAlgorithm(o, c, seed=SEED)),
        ("decap", lambda o, c: DecApAlgorithm(o, c, seed=SEED)),
    ]


def _objectives():
    # One neighbor-local objective and one bottleneck-shaped one, so both
    # SearchState invalidation regimes are pinned.
    return [("availability", AvailabilityObjective),
            ("throughput", ThroughputObjective)]


def run_cases():
    """Every (model, constraint set, objective, algorithm) outcome."""
    out = {}
    for mi, model in enumerate(_models()):
        for flavor, rich in (("mem", False), ("rich", True)):
            for obj_name, obj_factory in _objectives():
                for name, factory in _algorithms():
                    algorithm = factory(obj_factory(),
                                        _constraints(model, rich))
                    key = f"m{mi}/{flavor}/{obj_name}/{name}"
                    try:
                        result = algorithm.run(model)
                    except (AlgorithmError, NoValidDeploymentError) as exc:
                        out[key] = {"error": type(exc).__name__}
                        continue
                    out[key] = {
                        "deployment": dict(sorted(
                            result.deployment.as_dict().items())),
                        "valid": result.valid,
                        "value": result.value,
                        "evaluations": result.evaluations,
                        "engine": result.extra["engine"],
                    }
    return out


def test_fixed_seed_outcomes_match_prerewire_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = run_cases()
    assert current.keys() == golden.keys()
    mismatches = {key: (golden[key], current[key])
                  for key in golden if golden[key] != current[key]}
    assert not mismatches, (
        f"{len(mismatches)} fixed-seed outcomes changed vs the pre-rewire "
        f"golden: {sorted(mismatches)[:5]}")


def test_compiled_and_object_checkers_yield_identical_results():
    """The compiled constraint fast path must not change any trajectory."""
    for mi, model in enumerate(_models()):
        for flavor, rich in (("mem", False), ("rich", True)):
            constraints = _constraints(model, rich)
            for obj_name, obj_factory in _objectives():
                for name, factory in _algorithms():
                    fast = factory(obj_factory(), constraints)
                    slow = factory(obj_factory(), object_path(constraints))
                    try:
                        fast_result = fast.run(model)
                    except (AlgorithmError, NoValidDeploymentError) as exc:
                        with pytest.raises(type(exc)):
                            slow.run(model)
                        continue
                    slow_result = slow.run(model)
                    label = f"m{mi}/{flavor}/{obj_name}/{name}"
                    assert (fast_result.deployment.as_dict()
                            == slow_result.deployment.as_dict()), label
                    assert fast_result.valid == slow_result.valid, label
                    assert (fast_result.extra.get("moves")
                            == slow_result.extra.get("moves")), label


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run_cases(), indent=1, sort_keys=True),
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
