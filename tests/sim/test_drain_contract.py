"""The clock's drain entry points agree with stepping one event at a time.

``run_while``, ``run_while_pending`` and ``run`` are the loops that fire
almost every event of a campaign.  On generated schedules (cancels,
same-instant ``post``s, ``defer``s and scheduling from inside callbacks)
each must stop exactly where its stepwise definition stops:

* ``run_while(p)`` where ``while p(): clock.step()`` stops;
* ``run_while_pending(c, d)`` where
  ``run_while(lambda: c and clock.now < d)`` stops;
* ``run(duration, max_events)`` after the first ``max_events`` events
  due by the deadline, with ``now`` moved to the deadline.

Twin worlds are built from the same script and compared on the firing
log, ``now``, ``processed`` and ``pending``; both are then drained to
the end, so the events left queued must match as well.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimClock

#: Delays from a small set so same-instant collisions are common, with
#: exact float arithmetic.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0])

#: One admission: how (schedule, post, defer), when, how many follow-ups
#: its callback admits, and which handle (if any) its callback cancels.
OPS = st.tuples(st.sampled_from(["schedule", "post", "defer"]), DELAYS,
                st.integers(0, 2), st.none() | st.integers(0, 10 ** 6))

SCRIPTS = st.lists(OPS, min_size=1, max_size=30)

#: Predicates over a world's observable state, as (kind, parameter).
PREDICATES = st.one_of(
    st.tuples(st.just("fired"), st.integers(0, 40)),
    st.tuples(st.just("before"), st.sampled_from([0.0, 0.5, 1.0, 2.5, 9.0])),
    st.tuples(st.just("pending"), st.integers(0, 6)))


class World:
    """One clock driven by a script.  The first *initial* ops are admitted
    up front; every fired event admits its follow-ups from the rest of
    the script, in firing order, and may cancel an earlier handle."""

    def __init__(self, script, initial, cancels):
        self.clock = SimClock()
        self.script = script
        self.cursor = 0
        self.log = []
        self.handles = []
        self.watched = set()  # the run_while_pending container
        for __ in range(min(initial, len(script))):
            self.admit()
        for pick in cancels:
            if self.handles:
                self.handles[pick % len(self.handles)].cancel()

    def admit(self):
        label = self.cursor
        kind, delay, __, __ = self.script[label]
        self.cursor += 1
        if label % 3 == 0:
            self.watched.add(label)
        if kind == "schedule":
            self.handles.append(self.clock.schedule(delay, self.fire, label))
        elif kind == "post":
            self.clock.post(self.fire, label)
        else:
            self.clock.defer(delay, self.fire, label)

    def fire(self, label):
        self.log.append((self.clock.now, label))
        self.watched.discard(label)
        __, __, fanout, cancel = self.script[label]
        for __ in range(fanout):
            if self.cursor < len(self.script):
                self.admit()
        if cancel is not None and self.handles:
            self.handles[cancel % len(self.handles)].cancel()

    def predicate(self, kind, value):
        clock = self.clock
        if kind == "fired":
            return lambda: len(self.log) < value
        if kind == "before":
            return lambda: clock.now < value
        return lambda: clock.pending > value

    def state(self):
        clock = self.clock
        return list(self.log), clock.now, clock.processed, clock.pending

    def finish(self):
        self.clock.run()
        return self.state()


def twins(script, initial, cancels):
    return World(script, initial, cancels), World(script, initial, cancels)


SETUP = dict(script=SCRIPTS, initial=st.integers(1, 8),
             cancels=st.lists(st.integers(0, 10 ** 6), max_size=4))


class TestDrainContract:
    @settings(max_examples=150, deadline=None)
    @given(predicate=PREDICATES, **SETUP)
    def test_run_while_stops_where_stepping_stops(self, script, initial,
                                                  cancels, predicate):
        drained, stepped = twins(script, initial, cancels)
        fired = drained.clock.run_while(drained.predicate(*predicate))
        keep_going = stepped.predicate(*predicate)
        while keep_going():
            if not stepped.clock.step():
                break
        assert drained.state() == stepped.state()
        assert fired == len(drained.log)
        assert drained.finish() == stepped.finish()

    @settings(max_examples=150, deadline=None)
    @given(deadline=st.sampled_from([0.0, 0.25, 1.0, 1.5, 4.0, 50.0]),
           **SETUP)
    def test_run_while_pending_matches_its_predicate(self, script, initial,
                                                     cancels, deadline):
        pending, generic = twins(script, initial, cancels)
        fired = pending.clock.run_while_pending(pending.watched, deadline)
        clock, watched = generic.clock, generic.watched
        generic.clock.run_while(lambda: watched and clock.now < deadline)
        assert pending.state() == generic.state()
        assert fired == len(pending.log)
        assert pending.finish() == generic.finish()

    @settings(max_examples=150, deadline=None)
    @given(duration=st.sampled_from([0.0, 0.25, 1.0, 2.0, 3.5]),
           max_events=st.integers(1, 40), **SETUP)
    def test_run_fires_the_due_prefix_and_moves_to_the_deadline(
            self, script, initial, cancels, duration, max_events):
        ran, reference = twins(script, initial, cancels)
        fired = ran.clock.run(duration, max_events)
        full = reference.finish()[0]
        due = [entry for entry in full if entry[0] <= duration]
        assert ran.log == due[:max_events]
        assert fired == len(ran.log) == ran.clock.processed
        assert ran.clock.now == duration
        stepped = World(script, initial, cancels)
        for __ in range(fired):
            assert stepped.clock.step()
        assert ran.clock.pending == stepped.clock.pending
        assert ran.finish()[0] == stepped.finish()[0] == full

    @settings(max_examples=60, deadline=None)
    @given(limit=st.integers(0, 10), **SETUP)
    def test_run_while_max_events_caps_the_firings(self, script, initial,
                                                   cancels, limit):
        capped, stepped = twins(script, initial, cancels)
        fired = capped.clock.run_while(lambda: True, max_events=limit)
        for __ in range(limit):
            if not stepped.clock.step():
                break
        assert fired == len(capped.log) <= limit
        assert capped.state() == stepped.state()


def noop():
    pass


class TestBooks:
    """Admission and firing keep ``pending`` and ``processed`` exact."""

    @pytest.mark.parametrize("admit", [
        lambda clock: clock.schedule(-0.5, noop),
        lambda clock: clock.defer(-0.5, noop),
        lambda clock: clock.schedule_at(0.5, noop),
    ], ids=["schedule", "defer", "schedule_at"])
    def test_negative_delay_leaves_the_books_untouched(self, admit):
        clock = SimClock(start=1.0)
        clock.schedule(1.0, noop)
        clock.post(noop)
        before = (clock.pending, list(clock._heap), list(clock._ready),
                  clock._seq_n)
        with pytest.raises(ValueError):
            admit(clock)
        assert (clock.pending, list(clock._heap), list(clock._ready),
                clock._seq_n) == before
        assert clock.run() == 2
        assert clock.pending == 0

    def test_an_event_whose_callback_raised_has_fired(self):
        clock = SimClock()

        def fail():
            raise RuntimeError("boom")

        clock.schedule(1.0, fail)
        handle = clock.schedule(2.0, noop)
        handle.cancel()
        with pytest.raises(RuntimeError):
            clock.run()
        assert (clock.processed, clock.pending) == (1, 0)
