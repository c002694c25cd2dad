"""Whole-loop and per-layer CPU benchmark of the reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload churn_msgs --seed 1 --seconds 20 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Progress and diagnostics go to standard error.  The exit code is 0 only
when every output matched the pinned reference (``reference.json``).

``--seed`` orders the items of a round; the items themselves come from
the workload seeds (``--seeds``, the
``default`` set unless told otherwise), whose outputs are pinned.
``--pin FILE`` regenerates that reference instead of measuring.

See README.md for the workloads, the metrics and how calibration works.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: Fresh interpreters whose set-up is timed; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Timed rounds always run, however short ``--seconds`` is.
MIN_ROUNDS = 2
#: Wall-clock limit of one set-up probe.
PROBE_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """The benchmark cannot run: missing program, reference or probe."""


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program,
    refusing an installed copy from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchmarkError(f"imported repro from {repro.__file__}, "
                             f"not from {SRC}")


def _parse_seeds(text: str, seed_sets: Dict[str, Tuple[int, ...]]
                 ) -> Tuple[int, ...]:
    if text in seed_sets:
        return seed_sets[text]
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise BenchmarkError(
            f"--seeds takes {' or '.join(sorted(seed_sets))} or a comma "
            f"list of integers, not {text!r}") from None


class Check:
    """Compares outcomes with the pinned reference; counts attempts."""

    def __init__(self, workload: str, reference: Dict[str, Any],
                 keys: Sequence[str]) -> None:
        pinned = reference.get("workloads", {}).get(workload, {})
        missing = [key for key in keys if key not in pinned]
        if missing:
            raise BenchmarkError(
                f"no pinned reference for {workload} items "
                f"{', '.join(missing)}; regenerate with --pin")
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        _log(f"INCORRECT: {message}")

    def outcome(self, key: str, outcome: Any,
                trace_counts: Optional[Dict[str, int]] = None) -> None:
        """Gate one item: canonical output, end-to-end counts and, from a
        traced pass, the clock's event count."""
        self.attempted += 1
        pinned = self.pinned[key]
        if outcome.digest != pinned["sha256"]:
            self.fail(f"{key}: output differs from the pinned reference")
            return
        if outcome.counts != pinned["counts"]:
            self.fail(f"{key}: counts {outcome.counts} != pinned "
                       f"{pinned['counts']}")
            return
        if outcome.racy != pinned["racy"]:
            _log(f"non-deterministic counts on {key}: {outcome.racy} "
                 f"(pinned {pinned['racy']})")
        if trace_counts is not None:
            events = trace_counts.get("sim.clock.events")
            if events != pinned["trace_counts"].get("sim.clock.events"):
                self.fail(f"{key}: {events} clock events, pinned "
                           f"{pinned['trace_counts'].get('sim.clock.events')}")

    def error(self, key: str, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(f"{key}: raised {type(exc).__name__}: {exc}")

    def nondeterministic(self, key: str,
                         *passes: Dict[str, int]) -> List[str]:
        """Trace counts of *key* that differ between the pinned reference
        and any of the traced *passes*."""
        runs = (self.pinned[key]["trace_counts"],) + passes
        names = set().union(*runs)
        return sorted(name for name in names
                      if len({run.get(name) for run in runs}) > 1)


# -- passes ----------------------------------------------------------------
def traced_pass(workload: Any, order: Sequence[Any], calibrator: Any,
                ) -> Tuple[Dict[str, Any], Dict[str, Dict[str, int]], float,
                           Any]:
    """One pass over *order* with every layer wrapped.

    Returns ``(outcomes, trace counts per item, calibrated CPU of the
    pass, tracer)``.  An outcome that raised is the exception.
    """
    from layers import LayerTracer
    from workloads import close_item, install_layers

    outcomes: Dict[str, Any] = {}
    counts: Dict[str, Dict[str, int]] = {}
    tracer = LayerTracer()
    calibrator.reset()
    calibrated = 0.0
    workload.timer.install()
    install_layers(tracer)
    try:
        for item in order:
            gc.collect()

            def body(item: Any = item) -> Any:
                try:
                    return item.run()
                except Exception as exc:  # reported by the gate
                    return exc

            (result, __), __, cal = calibrator.measure(
                lambda body=body: tracer.run(body))
            outcomes[item.key] = (result if isinstance(result, Exception)
                                  else item.finish(result))
            counts[item.key] = close_item(tracer)
            calibrated += cal
    finally:
        tracer.uninstall()
        workload.timer.uninstall()
    return outcomes, counts, calibrated, tracer


def timed_rounds(workload: Any, order: Sequence[Any], calibrator: Any,
                 check: Check, seconds: float) -> Dict[str, Any]:
    """Untraced rounds over *order*; a new round starts until *seconds*
    of wall time have passed.

    Returns calibrated CPU per item per round, calibrated CPU per
    decision per round (decisions repeat exactly from round to round),
    raw CPU per round and the work units of one round."""
    per_item: Dict[str, List[float]] = {item.key: [] for item in order}
    decisions: Dict[str, List[List[float]]] = {item.key: [] for item in order}
    raw_rounds: List[float] = []
    units = 0
    rounds = 0
    calibrator.reset()
    started = time.perf_counter()
    workload.timer.install()
    try:
        while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
            units = 0
            raw_rounds.append(0.0)
            for item in order:
                gc.collect()
                try:
                    result, raw, cal = calibrator.measure(item.run)
                    outcome = item.finish(result)
                except Exception as exc:  # counted as a failed operation
                    workload.timer.take()
                    check.error(item.key, exc)
                    continue
                check.outcome(item.key, outcome)
                per_item[item.key].append(cal)
                raw_rounds[-1] += raw
                units += outcome.units
                scale = cal / raw if raw else 0.0
                decisions[item.key].append([sample * scale
                                            for sample in outcome.decisions])
            rounds += 1
    finally:
        workload.timer.uninstall()
    return {"per_item": per_item, "decisions": decisions, "units": units,
            "rounds": rounds, "raw_rounds": raw_rounds}


# -- set-up ----------------------------------------------------------------
def set_up(args: argparse.Namespace) -> Tuple[Any, List[Any], Any, float]:
    """Imports, input generation and one warm-up item; returns the
    workload, the item order, the calibrator and the calibrated CPU
    seconds this process used up to the first timed item."""
    _import_program()
    from calib import Calibrator
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; expected "
                             f"one of {', '.join(sorted(WORKLOADS))}")
    cls = WORKLOADS[args.workload]
    workload = cls(_parse_seeds(args.seeds, cls.SEED_SETS))
    order = list(workload.items)
    random.Random(args.seed).shuffle(order)
    # The warm-up item does not depend on --seed, so set-up measures the
    # same work in every run.
    workload.timer.install()
    try:
        warm = workload.items[0].outcome()
    finally:
        workload.timer.uninstall()
    used = time.process_time()
    calibrator = Calibrator()
    calibrator.reference()  # builds the reference's working set, untimed
    for __ in range(3):
        calibrator.sample()
    workload.warm_outcome = warm
    return workload, order, calibrator, used * calibrator.factor()


def probe_setups(args: argparse.Namespace, count: int) -> List[float]:
    """Calibrated set-up CPU of *count* fresh interpreters, one at a time."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seeds", args.seeds, "--probe-setup"]
    values = []
    for __ in range(count):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {done.stderr[-500:]}")
        values.append(json.loads(done.stdout.strip().splitlines()[-1])
                      ["setup_s"])
    return values


# -- metrics ---------------------------------------------------------------
def _percentile(values: Sequence[float], share: float) -> float:
    if not values:
        raise BenchmarkError("the timed rounds made no decisions")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(share * (len(ordered) - 1))))
    return ordered[index]


def decision_medians(per_item: Dict[str, List[List[float]]]) -> List[float]:
    """Each distinct decision's median CPU over the rounds.  Every round
    makes the same decisions in the same order, so the i-th sample of an
    item is the same decision in every round; a burst of load on the
    machine then moves one round's copy, not the percentile."""
    return [statistics.median(copies)
            for rounds in per_item.values() for copies in zip(*rounds)]


def end_to_end(timed: Dict[str, Any], setups: Sequence[float],
               ) -> Dict[str, Dict[str, Any]]:
    work = sum(statistics.median(values)
               for values in timed["per_item"].values())
    decisions = decision_medians(timed["decisions"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "work_cpu_s": {"value": work, "unit": "s"},
        "throughput_per_cpu_s": {"value": timed["units"] / work,
                                 "unit": "1/s"},
        "decision_cpu_ms_p50": {
            "value": 1000.0 * _percentile(decisions, 0.5),
            "unit": "ms"},
        "decision_cpu_ms_p95": {
            "value": 1000.0 * _percentile(decisions, 0.95),
            "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Any, counts: Dict[str, Dict[str, int]],
              traced_work: float, untraced_work: float,
              ) -> Dict[str, Dict[str, Any]]:
    from layers import UNATTRIBUTED
    from workloads import LAYERS

    total = sum(tracer.self_time.values())
    totals: Dict[str, int] = {}
    for item_counts in counts.values():
        for name, value in item_counts.items():
            totals[name] = totals.get(name, 0) + value

    def count(name: str) -> Dict[str, Any]:
        return {"value": totals.get(name, 0), "unit": "count"}

    def ratio(value: float) -> Dict[str, Any]:
        return {"value": value, "unit": "ratio"}

    metrics: Dict[str, Dict[str, Any]] = {}
    for layer in LAYERS + (UNATTRIBUTED,):
        metrics[f"{layer}.self_cpu_pct"] = {
            "value": 100.0 * _ratio(tracer.self_time.get(layer, 0.0), total),
            "unit": "%"}
    metrics["traced_cpu_s"] = {"value": traced_work, "unit": "s"}
    metrics["trace_overhead"] = ratio(_ratio(traced_work, untraced_work))
    for name in ("sim.clock.events", "sim.network.sends",
                 "sim.network.pings", "middleware.runtime.emits",
                 "middleware.connectors.handled",
                 "middleware.monitors.notifies",
                 "middleware.monitors.reports", "middleware.admin.enacts",
                 "middleware.admin.retransmissions",
                 "core.monitoring.windows", "core.monitoring.updates_applied",
                 "core.analyzer.decisions", "core.analyzer.redeploys",
                 "algorithms.full_evaluations", "algorithms.kernel_deltas",
                 "algorithms.constraint_checks", "plan.schedules",
                 "plan.waves", "core.effector.migrations",
                 "core.effector.retries", "lint.verifications",
                 "faults.actions", "desi.models"):
        metrics[name] = count(name)
    metrics["sim.network.delivered_ratio"] = ratio(_ratio(
        totals.get("sim.network.delivered", 0),
        totals.get("sim.network.sent", 0)))
    metrics["middleware.connectors.coalesce_ratio"] = ratio(_ratio(
        totals.get("middleware.connectors.handled", 0),
        totals.get("sim.network.sends", 0)))
    hits = totals.get("algorithms.cache_hits", 0)
    metrics["algorithms.cache_hit_ratio"] = ratio(_ratio(
        hits, hits + totals.get("algorithms.cache_misses", 0)))
    return metrics


def layer_shares(tracer: Any) -> Dict[str, float]:
    total = sum(tracer.self_time.values())
    return {layer: _ratio(value, total)
            for layer, value in tracer.self_time.items()}


# -- modes -----------------------------------------------------------------
def measure(args: argparse.Namespace) -> int:
    workload, order, calibrator, setup = set_up(args)
    if args.probe_setup:
        print(json.dumps({"setup_s": setup}))
        return 0
    reference = json.loads(REFERENCE.read_text())
    check = Check(workload.name, reference, [item.key for item in order])
    check.outcome(workload.items[0].key, workload.warm_outcome)
    setups = [setup] + probe_setups(args, SETUP_SAMPLES - 1)
    _log(f"{workload.name}: {len(order)} items, set-up "
         f"{', '.join(f'{s:.3f}' for s in setups)} s")

    # Gate: one traced pass checks every output before anything is timed.
    outcomes, gate_counts, __, __ = traced_pass(workload, order, calibrator)
    for key, outcome in outcomes.items():
        if isinstance(outcome, Exception):
            check.error(key, outcome)
        else:
            check.outcome(key, outcome, gate_counts[key])
            _log_unstable(check, key, gate_counts[key])
    if check.failed:
        return report(check, {})

    timed = timed_rounds(workload, order, calibrator, check, args.seconds)
    if check.failed:
        return report(check, {})
    metrics = end_to_end(timed, setups)
    _log(f"{timed['rounds']} rounds; raw CPU per round "
         f"{', '.join(f'{r:.3f}' for r in timed['raw_rounds'])} s "
         f"(information only); "
         f"{len(decision_medians(timed['decisions']))} distinct decisions")
    if args.trace:
        outcomes, counts, traced_work, tracer = traced_pass(
            workload, order, calibrator)
        for key, outcome in outcomes.items():
            if isinstance(outcome, Exception):
                check.error(key, outcome)
            else:
                check.outcome(key, outcome, counts[key])
        _check_trace(workload, tracer, check, gate_counts, counts)
        metrics = per_layer(tracer, counts, traced_work,
                            metrics["work_cpu_s"]["value"])
    return report(check, metrics)


def _log_unstable(check: Check, key: str, *passes: Dict[str, int]) -> None:
    unstable = check.nondeterministic(key, *passes)
    if unstable:
        _log(f"non-deterministic counts on {key}: {', '.join(unstable)}")


def _check_trace(workload: Any, tracer: Any, check: Check,
                 first: Dict[str, Dict[str, int]],
                 second: Dict[str, Dict[str, int]]) -> None:
    """Self times must add up; counts must repeat; the workload must
    stress the layers it exists for."""
    total = tracer.total_cpu
    accounted = sum(tracer.self_time.values())
    if abs(accounted - total) > 1e-6 * max(1.0, total):
        check.fail(f"self times add up to {accounted:.6f} s, traced "
                    f"total is {total:.6f} s")
    for key in second:
        _log_unstable(check, key, first[key], second[key])
    shares = layer_shares(tracer)
    stressed, least = workload.stress_share(shares)
    _log("self CPU shares: " + ", ".join(
        f"{layer} {100 * share:.1f}%"
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])))
    if stressed < least:
        check.fail(f"{workload.name} spends {100 * stressed:.1f}% of self "
                    f"CPU in its stressed layers, under {100 * least:.0f}%")


def report(check: Check, metrics: Dict[str, Any]) -> int:
    correct = check.failed == 0 and check.attempted > 0
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0 if correct else 1


def pin(args: argparse.Namespace) -> int:
    """Write the reference: every item of every seed set, from a traced
    pass."""
    _import_program()
    from calib import Calibrator
    from workloads import WORKLOADS

    calibrator = Calibrator()
    pinned: Dict[str, Any] = {}
    for name in sorted(WORKLOADS):
        cls = WORKLOADS[name]
        seeds = sorted({s for group in cls.SEED_SETS.values() for s in group})
        workload = cls(seeds)
        outcomes, counts, __, __ = traced_pass(workload, workload.items,
                                               calibrator)
        pinned[name] = {}
        for key, outcome in outcomes.items():
            if isinstance(outcome, Exception):
                raise BenchmarkError(f"{name} {key} raised {outcome!r}")
            pinned[name][key] = {"sha256": outcome.digest,
                                 "counts": outcome.counts,
                                 "racy": outcome.racy,
                                 "trace_counts": counts[key]}
        _log(f"pinned {name}: {len(outcomes)} items")
    Path(args.pin).write_text(json.dumps(
        {"format": 1, "workloads": pinned}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="churn_msgs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default="default",
                        help="workload seed set (default, heldout) or a "
                             "comma list of pinned workload seeds")
    parser.add_argument("--pin", metavar="FILE",
                        help="write the reference to FILE and exit")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.pin:
            return pin(args)
        return measure(args)
    except (BenchmarkError, ImportError, OSError,
            subprocess.SubprocessError) as exc:
        _log(f"benchmark error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
