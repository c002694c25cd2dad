"""E-S — absolute CPU throughput of the simulation core.

Runs a churn-heavy fault campaign (crisis scenario with every
interaction frequency scaled up, random-churn plan, improvement loop
on) through the shipping simulation core: tuple-heap ``SimClock`` with
a ready deque, pooled ``post``/``defer`` primitives and inlined run
loops, vectorized ``send_many`` with per-link batch delivery, connector
message coalescing, route/neighbor/location caches, and the event
wire/size fast paths.

Behaviour is pinned elsewhere — the golden resilience reports
(``tests/faults/data``) hold the exact bytes every campaign must
render, and the clock's firing-order contract is property-tested in
``tests/sim`` — so this bench measures cost only: messages per CPU
second (``time.process_time()``, robust to the tens-of-percent wall
jitter of shared runners) at each size, plus the campaign-suite wall
time serially and with ``run_campaign(workers=2)``.  The serial and
pooled suites must render byte-identically before their timings count.
Each size is also compared with the throughput the previous
``BENCH_sim.json`` recorded for the same rate scale (informational: the
previous figure may come from other hardware).

The size axis is message pressure: every size runs the same campaign
plan over the same simulated duration with the interaction-frequency
multiplier (``rate_scale``) as the size.  Message volume scales
linearly with it, which is the honest axis for a throughput benchmark.

Results go to stdout as paper-style tables and machine-readable to
``BENCH_sim.json`` in the repository root (see docs/PERFORMANCE.md).

Two modes:

* full (default): rate scales up to 200x (roughly 21M messages).
* smoke (``BENCH_SIM_SMOKE=1``): one small rate scale for CI.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.faults import generate_campaign, run_campaign
from repro.scenarios import CrisisConfig, build_crisis_scenario

from conftest import print_table

SMOKE = os.environ.get("BENCH_SIM_SMOKE", "") not in ("", "0")
#: Simulated campaign duration (seconds); fixed across sizes.
DURATION = 6.0 if SMOKE else 8.0
#: Benchmark sizes: interaction-frequency multipliers (message volume
#: scales linearly with the rate scale at fixed duration).
SIZES = [10.0] if SMOKE else [10.0, 40.0, 100.0, 200.0]
SCENARIO_SEED = 3
CAMPAIGN_SEED = 5
#: Smoke runs write an untracked file so they never replace the
#: tracked full-mode results.
OUTPUT = Path(__file__).resolve().parent.parent / (
    "BENCH_sim.smoke.json" if SMOKE else "BENCH_sim.json")


def churn_plan():
    built = build_crisis_scenario(CrisisConfig(seed=SCENARIO_SEED))
    return generate_campaign("random-churn", built.model,
                             duration=DURATION, seed=CAMPAIGN_SEED)


def previous_throughput():
    """rate_scale -> messages per CPU second from the last recorded run."""
    try:
        payload = json.loads(OUTPUT.read_text())
    except (OSError, ValueError):
        return {}
    if payload.get("duration") != DURATION:
        return {}
    return {entry["rate_scale"]: entry["throughput"]
            for entry in payload.get("sizes", ())
            if "throughput" in entry}


def bench_size(rate_scale, previous):
    plan = churn_plan()
    started = time.perf_counter()
    started_cpu = time.process_time()
    report = run_campaign(plan, seed=SCENARIO_SEED, scenario="crisis",
                          duration=DURATION, rate_scale=rate_scale)
    wall = time.perf_counter() - started
    cpu = time.process_time() - started_cpu
    messages = report.events_sent + report.events_received
    throughput = messages / cpu
    before = previous.get(rate_scale)
    return {
        "rate_scale": rate_scale,
        "duration": DURATION,
        "messages": messages,
        "events_sent": report.events_sent,
        "wall": wall,
        "cpu": cpu,
        "throughput": throughput,
        "previous_throughput": before,
        "vs_previous": throughput / before if before else None,
    }


def bench_workers(rate_scale):
    """One (plan x seeds) suite, serially and across two workers.

    The pool speedup is wall-clock by nature; on a single-core runner it
    is ~1, and every additional core multiplies it.
    """
    plan = churn_plan()
    seeds = [CAMPAIGN_SEED, CAMPAIGN_SEED + 1]
    started = time.perf_counter()
    serial = run_campaign(plan, scenario="crisis", duration=DURATION,
                          rate_scale=rate_scale, seeds=seeds, workers=1)
    serial_wall = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_campaign(plan, scenario="crisis", duration=DURATION,
                            rate_scale=rate_scale, seeds=seeds, workers=2)
    parallel_wall = time.perf_counter() - started
    assert serial.render() == parallel.render(), \
        "serial and workers=2 suites diverge"
    messages = sum(r.events_sent + r.events_received for r in serial.runs)
    return {
        "rate_scale": rate_scale,
        "duration": DURATION,
        "seeds": len(seeds),
        "messages": messages,
        "serial_wall": serial_wall,
        "parallel_wall": parallel_wall,
        "speedup": serial_wall / parallel_wall,
    }


def test_simulation_core_throughput():
    previous = previous_throughput()
    results = [bench_size(rate_scale, previous) for rate_scale in SIZES]
    suite = bench_workers(SIZES[0])

    print_table(
        f"E-S: simulation core throughput (churn campaign, "
        f"{DURATION:g} sim s)",
        ["rate x", "messages", "cpu s", "msg / cpu s", "previous",
         "vs previous"],
        [(entry["rate_scale"], entry["messages"], entry["cpu"],
          entry["throughput"],
          "-" if entry["previous_throughput"] is None
          else entry["previous_throughput"],
          "-" if entry["vs_previous"] is None else entry["vs_previous"])
         for entry in results])
    print_table(
        "E-S: campaign suite, serial vs run_campaign(workers=2)",
        ["rate x", "seeds", "serial s", "workers=2 s", "pool speedup"],
        [(suite["rate_scale"], suite["seeds"], suite["serial_wall"],
          suite["parallel_wall"], suite["speedup"])])

    payload = {
        "benchmark": "sim-throughput",
        "mode": "smoke" if SMOKE else "full",
        "duration": DURATION,
        "sizes": results,
        "workers": suite,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for entry in results:
        assert entry["messages"] > 0 and entry["throughput"] > 0


def test_bench_json_is_readable():
    """The artifact the CI job uploads must parse and carry the headline."""
    if not OUTPUT.exists():  # bench above writes it; ordering is file-local
        test_simulation_core_throughput()
    payload = json.loads(OUTPUT.read_text())
    assert payload["benchmark"] == "sim-throughput"
    assert payload["sizes"], "no sizes recorded"
    for entry in payload["sizes"]:
        assert entry["throughput"] > 0
        assert entry["messages"] > 0
    assert payload["workers"]["speedup"] > 0
