"""Self-tests of the benchmark harness; they do not import the program.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from calib import Calibrator, reference_workload  # noqa: E402
from layers import UNATTRIBUTED, LayerTracer  # noqa: E402


class FakeClock:
    """A CPU clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_on_synthetic_call_tree() -> None:
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def leaf() -> None:
        clock.spend(1.0)

    def failing_leaf() -> None:
        clock.spend(0.5)
        raise ValueError("boom")

    def middle() -> None:
        clock.spend(2.0)
        traced_leaf()
        try:
            traced_failing()
        except ValueError:
            pass
        clock.spend(0.25)

    def top() -> None:
        clock.spend(3.0)
        traced_middle()
        traced_leaf()
        traced_top_again()

    def top_again() -> None:  # same layer nested in itself
        clock.spend(0.125)

    traced_leaf = tracer.wrap("leaf", leaf, calls="leaf.calls")
    traced_failing = tracer.wrap("leaf", failing_leaf)
    traced_middle = tracer.wrap("middle", middle)
    traced_top_again = tracer.wrap("top", top_again)
    traced_top = tracer.wrap("top", top)

    def body() -> None:
        clock.spend(0.0625)
        traced_top()

    __, total = tracer.run(body)
    assert tracer.self_time == {
        "leaf": 2.5, "middle": 2.25, "top": 3.125, UNATTRIBUTED: 0.0625}
    assert total == tracer.total_cpu == 7.9375
    assert sum(tracer.self_time.values()) == total
    assert tracer.counts == {"leaf.calls": 2}


def test_hook_sees_result_error_and_enclosing_layers() -> None:
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    seen = []

    def hook(tr, args, result, error):
        seen.append((args, result, type(error).__name__ if error else None,
                     tr.in_layer("outer")))

    def inner(value):
        if value < 0:
            raise KeyError(value)
        return value * 2

    traced_inner = tracer.wrap("inner", inner, hook)
    traced_outer = tracer.wrap("outer", lambda: traced_inner(4))
    assert traced_outer() == 8
    with pytest.raises(KeyError):
        traced_inner(-1)
    assert seen == [((4,), 8, None, True), ((-1,), None, "KeyError", False)]


def test_other_threads_run_untraced_and_charge_the_waiting_caller() -> None:
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def work() -> None:
        clock.spend(1.0)

    traced_work = tracer.wrap("algorithms.thread", work, calls="thread")

    def portfolio() -> None:
        worker = threading.Thread(target=traced_work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.run(tracer.wrap("algorithms", portfolio))
    assert tracer.self_time == {"algorithms": 1.0, UNATTRIBUTED: 0.0}
    assert tracer.counts == {}


def test_patch_and_uninstall_restore_the_original() -> None:
    class Target:
        def method(self) -> str:
            return "original"

    original = Target.__dict__["method"]
    tracer = LayerTracer()
    tracer.patch(Target, "method", "layer", calls="calls")
    assert Target().method() == "original"
    assert Target.__dict__["method"] is not original
    tracer.uninstall()
    assert Target.__dict__["method"] is original
    assert tracer.counts == {"calls": 1}


def test_calibration_scales_a_known_slowdown_out() -> None:
    """A machine that runs everything 1.7x slower reads 1.7x the raw CPU
    but the same calibrated CPU."""
    readings = []
    for slowdown in (1.0, 1.7):
        clock = FakeClock()
        calibrator = Calibrator(
            clock=clock,
            reference=lambda c=clock, s=slowdown: c.spend(0.04 * s),
            nominal=0.04)
        readings.append([
            calibrator.measure(lambda c=clock, s=slowdown, w=work:
                               c.spend(w * s))[1:]
            for work in (0.3, 1.1, 0.05)])
    for (raw_fast, cal_fast), (raw_slow, cal_slow) in zip(*readings):
        assert raw_slow == pytest.approx(1.7 * raw_fast)
        assert cal_slow == pytest.approx(cal_fast)
        assert cal_fast == pytest.approx(raw_fast)


def test_calibration_uses_the_samples_on_both_sides() -> None:
    """A slowdown that starts during an item is split between the sample
    before it and the one after; the next item starts from the latter."""
    clock = FakeClock()
    costs = iter([0.04, 0.08, 0.08])
    calibrator = Calibrator(clock=clock,
                            reference=lambda: clock.spend(next(costs)),
                            nominal=0.04)
    __, raw, cal = calibrator.measure(lambda: clock.spend(0.9))
    assert raw == pytest.approx(0.9)
    assert cal == pytest.approx(0.9 * 0.04 / 0.06)
    __, raw, cal = calibrator.measure(lambda: clock.spend(1.8))
    assert cal == pytest.approx(1.8 * 0.04 / 0.08)
    assert calibrator.samples == pytest.approx([0.04, 0.08, 0.08])
    assert calibrator.factor() == pytest.approx(0.04 * 3 / 0.2)
    calibrator.reset()
    assert calibrator.samples == []


def test_reference_workload_is_deterministic() -> None:
    assert reference_workload() == reference_workload()
