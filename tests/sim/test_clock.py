"""Unit tests for the discrete-event clock."""

import pytest

from repro.sim import SimClock


class TestScheduling:
    def test_events_fire_in_time_order(self):
        clock = SimClock()
        fired = []
        clock.schedule(3.0, lambda: fired.append("late"))
        clock.schedule(1.0, lambda: fired.append("early"))
        clock.schedule(2.0, lambda: fired.append("middle"))
        clock.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_fifo(self):
        clock = SimClock()
        fired = []
        for index in range(5):
            clock.schedule(1.0, fired.append, index)
        clock.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        clock = SimClock()
        times = []
        clock.schedule(2.5, lambda: times.append(clock.now))
        clock.run()
        assert times == [2.5]

    def test_negative_delay_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        clock = SimClock(start=10.0)
        fired = []
        clock.schedule_at(12.0, lambda: fired.append(clock.now))
        clock.run()
        assert fired == [12.0]

    def test_zero_delay_runs_after_current_queue(self):
        clock = SimClock()
        fired = []

        def outer():
            clock.schedule(0.0, lambda: fired.append("inner"))
            fired.append("outer")

        clock.schedule(0.0, outer)
        clock.run()
        assert fired == ["outer", "inner"]

    def test_cancel(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        clock.run()
        assert fired == []
        assert clock.pending == 0


class TestCancelCompaction:
    def test_heap_stays_bounded_under_cancel_heavy_workload(self):
        """Retry/timeout pattern: schedule a far-future timeout, cancel
        it almost immediately, repeat.  The cancelled entries must not
        accumulate until their distant timestamps."""
        clock = SimClock()
        live = 64  # a plausible steady-state of genuinely pending work
        keepers = [clock.schedule(1e6 + i, lambda: None)
                   for i in range(live)]
        high_water = 0
        for round_number in range(200):
            handles = [clock.schedule(1000.0 + i, lambda: None)
                       for i in range(100)]
            for handle in handles:
                handle.cancel()
            high_water = max(high_water, len(clock._heap))
        # 20k cancels passed through; without compaction the heap would
        # hold all of them.  With it, it never exceeds a small multiple
        # of the live set + one uncompacted batch.
        assert high_water < 4 * (live + 100)
        assert clock.pending == live
        for keeper in keepers:
            keeper.cancel()

    def test_ready_deque_cancels_do_not_trigger_compaction(
            self, monkeypatch):
        """Cancelled zero-delay events sit in the ready deque, never in
        the heap, so they must not count toward heap compaction."""
        clock = SimClock()
        compactions = []
        original = clock._compact

        def counting_compact():
            compactions.append(clock.now)
            original()

        monkeypatch.setattr(clock, "_compact", counting_compact)
        fired = []
        for index in range(100):
            clock.schedule(100.0 + index, fired.append, index)

        def churn():
            handles = [clock.schedule(0.0, fired.append, "cancelled")
                       for _ in range(120)]
            for handle in handles:
                handle.cancel()

        for instant in range(1, 11):
            clock.schedule(float(instant), churn)
        clock.run()
        assert compactions == []
        assert fired == list(range(100))
        assert clock.pending == 0
        assert clock.processed == 110
        assert clock._cancelled_heap == 0

    def test_pending_is_exact_under_cancels(self):
        clock = SimClock()
        handles = [clock.schedule(float(i % 7), lambda: None)
                   for i in range(50)]
        for handle in handles[::2]:
            handle.cancel()
        assert clock.pending == 25
        clock.run()
        assert clock.pending == 0
        assert clock.processed == 25

    def test_cancel_after_fire_is_a_noop(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule(1.0, fired.append, "x")
        clock.run()
        handle.cancel()  # must not corrupt the live-event count
        handle.cancel()
        assert fired == ["x"]
        assert clock.pending == 0
        clock.schedule(1.0, fired.append, "y")
        assert clock.pending == 1

    def test_cancel_during_callback_within_same_instant(self):
        clock = SimClock()
        fired = []
        later = clock.schedule(0.0, fired.append, "later")

        def killer():
            fired.append("killer")
            later.cancel()

        # killer was scheduled after `later` but fires first? No —
        # FIFO: later was scheduled first, so it fires first.
        clock.schedule(0.0, killer)
        clock.run()
        assert fired == ["later", "killer"]

        # Now the reverse: the killer is scheduled first and cancels a
        # same-instant successor before it fires.
        clock2 = SimClock()
        fired2 = []
        target = {}

        def killer2():
            fired2.append("killer")
            target["handle"].cancel()

        clock2.schedule(0.0, killer2)
        target["handle"] = clock2.schedule(0.0, fired2.append, "victim")
        clock2.run()
        assert fired2 == ["killer"]


def _ordered(log):
    """True when *log* of (time, schedule order) pairs is sorted."""
    return log == sorted(log)


class TestFiringContract:
    """The firing log is ordered by (time, scheduling order), cancelled
    handles never fire, and every other event due before the horizon
    fires exactly once."""

    def test_interleaved_zero_and_positive_delays(self):
        clock = SimClock()
        scheduled = []  # (due time, scheduling order)
        fired = []

        def schedule(delay, budget):
            seq = len(scheduled)
            scheduled.append((clock.now + delay, seq))
            clock.schedule(delay, cascade, seq, budget)

        def cascade(seq, budget):
            fired.append((clock.now, seq))
            if budget:
                schedule(0.0, budget - 1)
                schedule(0.5, budget - 1)

        schedule(0.0, 3)
        schedule(1.0, 2)
        schedule(1.0, 1)
        clock.run(10.0)
        assert _ordered(fired)
        assert sorted(fired) == sorted(scheduled)
        # Budgets 3, 2 and 1 spawn 1+2+4+8, 1+2+4 and 1+2 events.
        assert clock.processed == len(fired) == 25
        assert clock.now == 10.0

    def test_cancelled_handles_never_fire(self):
        clock = SimClock()
        fired = []
        handles = [clock.schedule(float(i % 3), fired.append, i)
                   for i in range(12)]
        for handle in handles[1::3]:
            handle.cancel()
        clock.run()
        expected = [i for i in range(12) if i % 3 != 1]
        assert sorted(fired) == expected
        assert _ordered([(float(i % 3), i) for i in fired])
        assert clock.processed == len(expected)
        assert clock.pending == 0


class TestRun:
    def test_run_with_duration_stops_at_deadline(self):
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: fired.append(1))
        clock.schedule(5.0, lambda: fired.append(5))
        clock.run(2.0)
        assert fired == [1]
        assert clock.now == 2.0  # time advances to the deadline
        clock.run(10.0)
        assert fired == [1, 5]

    def test_run_until(self):
        clock = SimClock()
        fired = []
        clock.schedule(3.0, lambda: fired.append(3))
        clock.run_until(3.0)
        assert fired == [3]
        with pytest.raises(ValueError):
            clock.run_until(1.0)

    def test_events_scheduled_during_run_fire_within_window(self):
        clock = SimClock()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                clock.schedule(1.0, chain, n + 1)

        clock.schedule(1.0, chain, 0)
        clock.run(10.0)
        assert fired == [0, 1, 2, 3]

    def test_step_returns_false_when_empty(self):
        assert SimClock().step() is False

    def test_processed_counter(self):
        clock = SimClock()
        for __ in range(4):
            clock.schedule(1.0, lambda: None)
        clock.run()
        assert clock.processed == 4

    def test_max_events_guard(self):
        clock = SimClock()

        def forever():
            clock.schedule(0.1, forever)

        clock.schedule(0.1, forever)
        fired = clock.run(1e9, max_events=100)
        assert fired == 100


class TestAdvance:
    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(5.0)
        assert clock.now == 5.0

    def test_advance_cannot_skip_events(self):
        clock = SimClock()
        clock.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="skip"):
            clock.advance(2.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)


class TestPeriodic:
    def test_every_fires_repeatedly(self):
        clock = SimClock()
        ticks = []
        clock.every(1.0, lambda: ticks.append(clock.now))
        clock.run(5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_cancel_stops_future_firings(self):
        clock = SimClock()
        ticks = []
        task = clock.every(1.0, lambda: ticks.append(clock.now))
        clock.run(3.0)
        task.cancel()
        clock.run(5.0)
        assert len(ticks) == 3
        assert task.firings == 3

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            SimClock().every(0.0, lambda: None)
