"""E-S — cost of the incremental search engine.

Replays full steepest-ascent trajectories (hill-climb rounds, and
swap-search rounds with the pairwise-exchange neighborhood) through
:class:`repro.algorithms.search.SearchState`: compiled O(1) constraint
checks, cached move deltas with dirty-move invalidation, and the indexed
delta entry point.  Which moves those trajectories take is pinned by the
search golden fixture (``tests/algorithms/data``); this bench times them
and records the engine's work counters (moves rescored, frontier hits,
constraint checks), which show whether the invalidation stays
O(affected).  Each run is replayed and must take the identical
trajectory before its timing counts.

Results go to stdout as paper-style tables and machine-readable to
``BENCH_search.json`` in the repository root (see docs/PERFORMANCE.md).

Two modes:

* full (default): sizes up to 10 hosts x 40 components.
* smoke (``BENCH_SEARCH_SMOKE=1``): one tiny size for CI.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.algorithms.base import random_valid_deployment
from repro.algorithms.engine import EvaluationEngine
from repro.algorithms.search import SearchState, make_checker
from repro.core.constraints import (
    CollocationConstraint, ConstraintSet, LocationConstraint,
    MemoryConstraint,
)
from repro.core.objectives import AvailabilityObjective
from repro.desi.generator import Generator, GeneratorConfig
from conftest import print_table

SMOKE = os.environ.get("BENCH_SEARCH_SMOKE", "") not in ("", "0")
SIZES = [(4, 10)] if SMOKE else [(6, 20), (10, 40)]
#: Smoke runs write an untracked file so they never replace the
#: tracked full-mode results.
OUTPUT = Path(__file__).resolve().parent.parent / (
    "BENCH_search.smoke.json" if SMOKE else "BENCH_search.json")
MAX_ROUNDS = 1000


def build_case(hosts, components, seed):
    config = GeneratorConfig(hosts=hosts, components=components,
                             host_memory=(20.0, 50.0),
                             memory_headroom=1.3,
                             reliability=(0.2, 0.95))
    model = Generator(config, seed=seed).generate(
        f"bench-search-{hosts}x{components}")
    comps = model.component_ids
    constraints = ConstraintSet([
        MemoryConstraint(),
        LocationConstraint(comps[0], forbidden=[model.host_ids[0]]),
        CollocationConstraint([comps[1], comps[2]], together=True),
        CollocationConstraint([comps[3], comps[4]], together=False),
    ])
    initial = random_valid_deployment(make_checker(model, constraints),
                                      random.Random(seed * 13 + 1))
    assert initial is not None, "bench seed must start valid"
    return model, constraints, initial


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def hillclimb(model, constraints, objective, initial):
    engine = EvaluationEngine(objective, constraints)
    state = SearchState(model, constraints, engine, initial)
    for __ in range(MAX_ROUNDS):
        step = state.best_move()
        if step is None:
            break
        state.apply(step[0], step[1])
    return list(state.array), list(state.moves), engine.stats


def swapsearch(model, constraints, objective, initial):
    engine = EvaluationEngine(objective, constraints)
    state = SearchState(model, constraints, engine, initial)
    indices = range(state.cm.n_components)
    array = state.array

    def gain_of(delta):
        return delta if objective.direction == "max" else -delta

    for __ in range(MAX_ROUNDS):
        best_gain = 1e-12
        best_action = None
        step = state.best_move()
        if step is not None:
            best_gain = gain_of(step[2])
            best_action = ("move", step[0], step[1])
        for i, ca in enumerate(indices):
            for cb in indices[i + 1:]:
                if array[ca] == array[cb]:
                    continue
                if not state.swap_allowed(ca, cb):
                    continue
                gain = gain_of(state.swap_delta(ca, cb))
                if gain > best_gain:
                    best_gain = gain
                    best_action = ("swap", ca, cb)
        if best_action is None:
            break
        if best_action[0] == "move":
            state.apply(best_action[1], best_action[2])
        else:
            state.apply_swap(best_action[1], best_action[2])
    return list(state.array), list(state.moves), engine.stats


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def best_time(fn, repeats):
    """Minimum wall time of *repeats* runs (first result returned); every
    run must reproduce the first one's trajectory."""
    result = fn()
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        again = fn()
        best = min(best, time.perf_counter() - start)
        assert again[:2] == result[:2], "trajectory is not deterministic"
    return result, best


def bench_size(hosts, components, seed):
    model, constraints, initial = build_case(hosts, components, seed)
    objective = AvailabilityObjective()
    repeats = 1 if (hosts * components >= 400 and not SMOKE) else 2
    rounds = {}
    for name, search in (("hillclimb-rounds", hillclimb),
                         ("swap-rounds", swapsearch)):
        (__, moves, stats), seconds = best_time(
            lambda search=search: search(model, constraints, objective,
                                         initial), repeats)
        rounds[name] = {
            "neighborhood": name,
            "moves_in_trajectory": len(moves),
            "seconds": seconds,
            "moves_rescored": stats.moves_rescored,
            "frontier_hits": stats.frontier_hits,
            "constraint_checks": stats.constraint_checks,
        }
    return {"hosts": hosts, "components": components,
            "neighborhoods": rounds}


def test_incremental_search_cost():
    results = [bench_size(hosts, components, seed=40 + index)
               for index, (hosts, components) in enumerate(SIZES)]

    for entry in results:
        rows = [(data["neighborhood"], data["moves_in_trajectory"],
                 data["seconds"], data["moves_rescored"],
                 data["frontier_hits"], data["constraint_checks"])
                for data in entry["neighborhoods"].values()]
        print_table(
            f"E-S: incremental search "
            f"({entry['hosts']} hosts x {entry['components']} components)",
            ["neighborhood", "moves", "seconds", "rescored",
             "frontier hits", "constraint checks"], rows)

    payload = {
        "benchmark": "incremental-search",
        "mode": "smoke" if SMOKE else "full",
        "sizes": results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for entry in results:
        for data in entry["neighborhoods"].values():
            assert data["moves_in_trajectory"] > 0
            assert data["seconds"] > 0


def test_bench_json_is_readable():
    """The artifact the CI job uploads must parse and carry the headline."""
    if not OUTPUT.exists():  # bench above writes it; ordering is file-local
        test_incremental_search_cost()
    payload = json.loads(OUTPUT.read_text())
    assert payload["benchmark"] == "incremental-search"
    assert payload["sizes"], "no sizes recorded"
    for entry in payload["sizes"]:
        for data in entry["neighborhoods"].values():
            assert data["seconds"] > 0
