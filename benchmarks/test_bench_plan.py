"""E-P — packed wave schedules vs the naive all-at-once estimate.

Builds a hub-and-spoke migration bottleneck: every component sits on a
source host and must reach one target host, connected by a single
direct link plus several two-hop relay paths whose legs are individually
slower than the direct link.  In isolation the direct link wins for
every transfer, so the naive schedule (:func:`repro.plan.naive_schedule`
— each move on its isolation-best route, duration computed *with*
contention) piles the whole migration onto one link.  The planner's wave
packer prices that contention and spreads transfers across the relay
paths, so its predicted makespan drops by roughly the ratio of aggregate
route capacity to direct-link capacity.

Both schedules move the identical component set to the identical target
(asserted before any timing is trusted), and both makespans come from
the same contention model (:func:`repro.plan.predict_wave_eta` is the
lint-grade recomputation of what the packer records).  Results go to
stdout as paper-style tables and machine-readable to ``BENCH_plan.json``
in the repository root (see docs/PLANNING.md).

Two modes:

* full (default): up to the 10 hosts x 40 components bench size; asserts
  the packed makespan is >= 2x better than naive at the largest size.
* smoke (``BENCH_PLAN_SMOKE=1``): one tiny size for CI; asserts only
  that packing is no worse than naive.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

from repro.core.model import DeploymentModel
from repro.plan import MigrationPlanner, naive_schedule

from conftest import print_table

SMOKE = os.environ.get("BENCH_PLAN_SMOKE", "") not in ("", "0")
#: (relay hosts, components); total hosts = relays + source + target.
SIZES = [(2, 8)] if SMOKE else [(4, 20), (8, 40)]
REQUIRED_RATIO = 1.0 if SMOKE else 2.0
#: Smoke runs write an untracked file so they never replace the
#: tracked full-mode results.
OUTPUT = Path(__file__).resolve().parent.parent / (
    "BENCH_plan.smoke.json" if SMOKE else "BENCH_plan.json")

DIRECT_BW = 100.0
RELAY_BW = 60.0


def build_case(relays, components, seed):
    """Source, target, *relays* relay hosts; all components migrate
    source -> target."""
    model = DeploymentModel()
    model.add_host("src", memory=10000.0)
    model.add_host("dst", memory=10000.0)
    model.connect_hosts("src", "dst", reliability=1.0, bandwidth=DIRECT_BW,
                        delay=0.001)
    for index in range(relays):
        relay = f"relay{index}"
        model.add_host(relay, memory=10000.0)
        model.connect_hosts("src", relay, reliability=1.0,
                            bandwidth=RELAY_BW, delay=0.001)
        model.connect_hosts(relay, "dst", reliability=1.0,
                            bandwidth=RELAY_BW, delay=0.001)
    rng = random.Random(seed)
    target = {}
    for index in range(components):
        component = f"c{index:02d}"
        model.add_component(component, memory=rng.uniform(2.0, 10.0))
        model.deploy(component, "src")
        target[component] = "dst"
    return model, target


def bench_size(relays, components, seed):
    model, target = build_case(relays, components, seed)
    naive = naive_schedule(model, target)
    packed = MigrationPlanner(model, max_wave_moves=None).schedule(target)
    waved = MigrationPlanner(model, max_wave_moves=8).schedule(target)
    # Equivalence before performance: every schedule moves the same
    # components to the same places.
    for schedule in (packed, waved):
        assert schedule.final_state() == naive.final_state(), \
            "schedules disagree on the final deployment"
        assert abs(schedule.total_kb - naive.total_kb) < 1e-6, \
            "schedules disagree on migration volume"
    return {
        "hosts": relays + 2,
        "components": components,
        "total_kb": naive.total_kb,
        "naive_makespan": naive.makespan,
        "packed_makespan": packed.makespan,
        "waved_makespan": waved.makespan,
        "waves": len(waved.waves),
        "ratio": naive.makespan / packed.makespan,
    }


def test_packed_schedule_beats_naive_makespan():
    results = [bench_size(relays, components, seed=70 + index)
               for index, (relays, components) in enumerate(SIZES)]

    print_table(
        "E-P: packed wave schedule vs naive all-at-once prediction",
        ["hosts", "components", "KB", "naive s", "packed s",
         "waved s (8/wave)", "ratio"],
        [(entry["hosts"], entry["components"], entry["total_kb"],
          entry["naive_makespan"], entry["packed_makespan"],
          entry["waved_makespan"], entry["ratio"])
         for entry in results])

    payload = {
        "benchmark": "plan-makespan",
        "mode": "smoke" if SMOKE else "full",
        "required_ratio": REQUIRED_RATIO,
        "sizes": results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    largest = results[-1]
    assert largest["ratio"] >= REQUIRED_RATIO, (
        f"packed makespan only {largest['ratio']:.2f}x better than naive "
        f"at {largest['hosts']}x{largest['components']} "
        f"(need >= {REQUIRED_RATIO}x)")


def test_bench_json_is_readable():
    """The artifact the CI job uploads must parse and carry the headline."""
    if not OUTPUT.exists():  # bench above writes it; ordering is file-local
        test_packed_schedule_beats_naive_makespan()
    payload = json.loads(OUTPUT.read_text())
    assert payload["benchmark"] == "plan-makespan"
    assert payload["sizes"], "no sizes recorded"
    for entry in payload["sizes"]:
        assert entry["ratio"] > 0
        assert entry["packed_makespan"] <= entry["naive_makespan"]
