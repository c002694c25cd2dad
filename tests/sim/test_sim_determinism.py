"""Property-based determinism for the batched simulation core.

The clock (tuple-heap plus same-instant ready deque) must honour the
discrete-event contract on randomized schedules: the firing log is
ordered by (time, scheduling order), cancelled handles never fire, and
every other event due before the horizon fires exactly once.  The
vectorized ``send_many`` must reproduce its per-item twin bit-for-bit —
same-instant FIFO ties, lossy links, and callback interleavings
included.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import SimClock, SimulatedNetwork

#: Delays drawn from a small set so same-instant collisions (the FIFO
#: tie-break cases) are common, with exact float arithmetic.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0])

SCHEDULE_SPECS = st.lists(
    st.tuples(DELAYS, st.lists(DELAYS, max_size=3)),
    min_size=1, max_size=25)

HORIZON = 50.0


def _drive(spec, cancel_picks):
    """Replay one randomized schedule; return the firing log of
    (time, scheduling order) pairs, every scheduled (due time, order)
    pair, the cancelled orders, and the clock's final state.  Each
    top-level event may schedule follow-ups from inside its callback
    (exercising mid-run scheduling at the current instant)."""
    clock = SimClock()
    log = []
    scheduled = []

    def fire(seq, followups):
        log.append((clock.now, seq))
        for delay in followups:
            scheduled.append((clock.now + delay, len(scheduled)))
            clock.schedule(delay, fire, scheduled[-1][1], ())

    for delay, __ in spec:
        scheduled.append((delay, len(scheduled)))
    handles = [clock.schedule(delay, fire, i, tuple(follow))
               for i, (delay, follow) in enumerate(spec)]
    cancelled = set()
    for pick in cancel_picks:
        index = pick % len(handles)
        handles[index].cancel()
        cancelled.add(index)
    clock.run(HORIZON)
    return log, scheduled, cancelled, (clock.now, clock.pending)


class TestClockParity:
    @settings(max_examples=60, deadline=None)
    @given(spec=SCHEDULE_SPECS,
           cancel_picks=st.lists(st.integers(0, 10 ** 6), max_size=8))
    def test_firing_log_honours_event_contract(self, spec, cancel_picks):
        log, scheduled, cancelled, (now, pending) = _drive(spec, cancel_picks)
        assert log == sorted(log)
        fired = [seq for __, seq in log]
        assert not cancelled & set(fired)
        due = sorted((time, seq) for time, seq in scheduled
                     if seq not in cancelled and time <= HORIZON)
        assert sorted(log) == due
        assert now == HORIZON
        assert pending == 0


def _run_traffic(batch, seed, reliability, items, disconnect_after):
    """One lossy-link traffic run; returns the full delivery history."""
    clock = SimClock()
    network = SimulatedNetwork(clock, seed=seed)
    network.add_endpoint("a")
    network.add_endpoint("b")
    network.add_link("a", "b", reliability=reliability, bandwidth=100.0,
                     delay=0.05)
    log = []
    network.attach_handler(
        "b", lambda s, p, k: log.append((clock.now, p, k)))
    if disconnect_after is not None:
        clock.schedule(disconnect_after,
                       network.set_connected, "a", "b", False)
    if batch:
        results = network.send_many("a", "b", items)
    else:
        results = [network.send("a", "b", payload, size)
                   for payload, size in items]
    clock.run(30.0)
    stats = network.stats
    return (results, log, stats.sent, stats.delivered, stats.dropped,
            stats.kb_sent, stats.kb_delivered)


class TestNetworkParity:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           reliability=st.floats(0.0, 1.0, allow_nan=False),
           sizes=st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 25.0]),
                          min_size=1, max_size=30))
    def test_send_many_matches_send_loop(self, seed, reliability, sizes):
        items = [(f"m{i}", size) for i, size in enumerate(sizes)]
        batched = _run_traffic(True, seed, reliability, items, None)
        serial = _run_traffic(False, seed, reliability, items, None)
        assert batched == serial

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           count=st.integers(1, 20),
           disconnect_after=st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    def test_partition_mid_flight_matches_serial(self, seed, count,
                                                 disconnect_after):
        # A link cut while batched messages are on the wire must drop
        # exactly the messages the serial path would drop.
        items = [(f"m{i}", 1.0) for i in range(count)]
        batched = _run_traffic(True, seed, 0.9, items, disconnect_after)
        serial = _run_traffic(False, seed, 0.9, items, disconnect_after)
        assert batched == serial
