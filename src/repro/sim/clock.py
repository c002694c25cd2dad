"""Discrete-event simulation clock.

Every time-dependent piece of the substrate — network message delivery,
monitoring windows, parameter fluctuation, auction deadlines — runs against
one :class:`SimClock`.  Substituting simulated time for the paper's
wall-clock intervals is what makes the reproduction deterministic: the
monitor's ε-stability detection and the effector's coordination depend only
on the *ordering* of windows and messages, which the clock preserves
exactly.

Events scheduled for the same instant fire in scheduling order (a strict
FIFO tie-break), so runs are reproducible bit-for-bit given the same seeds.

The scheduler keeps two structures whose merge order is the global
``(time, seq)`` order:

* a binary heap of ``(time, seq, event)`` tuples for future events, so
  sift comparisons (among the hottest work in message-heavy campaigns)
  stay in C; ``seq`` is unique, so the event itself is never compared
  and defines no ordering;
* a FIFO deque for events scheduled *at the current instant* — the
  middleware scaffold turns every local delivery into a zero-delay event,
  so the majority of traffic bypasses the heap entirely.

An event lands in the deque exactly when its computed timestamp equals
``now``, which means its ``seq`` is larger than that of any heap entry
with the same timestamp (those were pushed before time reached it); the
drain loop still compares ``(time, seq)`` pairs across both structures,
so the interleaving is the heap order bit-for-bit, not an approximation.

Cancelled events no longer linger until their timestamp: once enough
cancelled entries accumulate (more than :data:`COMPACT_MIN` and more than
half the heap) the heap is compacted in place, bounding memory under
cancel-heavy retry/timeout workloads.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

#: Compaction threshold: never compact below this many cancelled entries
#: (tiny heaps aren't worth the heapify), and only when cancelled entries
#: outnumber live ones (amortizes compaction to O(1) per cancel).
COMPACT_MIN = 64

#: Free-list bound for recycled post()/defer() events: large enough to
#: cover the in-flight population of a message storm, small enough that
#: an idle clock is not hoarding memory.
POOL_MAX = 4096

#: The drain loop's "no deadline": no event is due after it.
_NEVER = float("inf")


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    Events created through :meth:`SimClock.post`/:meth:`SimClock.defer`
    carry ``pooled=True``: no handle ever escapes to application code,
    so after firing the object is recycled into the clock's free list
    instead of being garbage (message-heavy campaigns allocate millions
    of these, and the alloc/GC churn is measurable).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_clock",
                 "pooled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._clock: Optional["SimClock"] = None
        self.pooled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        clock = self._clock
        if clock is not None:  # still pending: update live/cancelled books
            clock._note_cancel(self)


class PeriodicTask:
    """A self-rescheduling callback created by :meth:`SimClock.every`."""

    def __init__(self, clock: "SimClock", interval: float,
                 callback: Callable[..., Any], args: Tuple[Any, ...]):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.clock = clock
        self.interval = interval
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.firings = 0
        self._handle = clock.schedule(interval, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.callback(*self.args)
        self.firings += 1
        if not self.cancelled:
            self._handle = self.clock.schedule(self.interval, self._fire)

    def cancel(self) -> None:
        self.cancelled = True
        self._handle.cancel()


class SimClock:
    """A minimal, deterministic discrete-event scheduler."""

    def __init__(self, start: float = 0.0):
        self._now = start
        #: Future events as (time, seq, event) so heap sifts compare
        #: tuples in C; seq is unique, so the event never participates.
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        #: Events scheduled for the current instant, in FIFO (seq) order.
        self._ready: Deque[ScheduledEvent] = deque()
        #: Next scheduling sequence number.  A plain int (not
        #: ``itertools.count``): allocation is one attribute store
        #: instead of a builtin call, and it is bumped once per
        #: scheduled event — millions of times per campaign.
        self._seq_n = 0
        self._live = 0            # scheduled, not yet fired or cancelled
        self._cancelled = 0       # cancelled while still pending
        self._cancelled_heap = 0  # cancelled entries still in the heap
        #: Free list of fired post()/defer() events awaiting reuse.
        self._pool: List[ScheduledEvent] = []

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired (and not cancelled) events."""
        return self._live

    @property
    def processed(self) -> int:
        """Total events fired since construction.

        Derived from the admission books (every admitted event is
        pending, cancelled or fired), so the drain loop keeps no counter
        of its own for it.  An event whose callback raised has fired.
        """
        return self._seq_n - self._live - self._cancelled

    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` *delay* time units from now.

        A zero delay schedules for the current instant, after everything
        already queued for this instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq_n
        self._seq_n = seq + 1
        event = ScheduledEvent(time, seq, callback, args)
        event._clock = self
        self._live += 1
        if time == self._now:
            self._ready.append(event)
        else:
            heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute *time*."""
        return self.schedule(time - self._now, callback, *args)

    def post(self, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule` at the current instant.

        No handle is returned (the event cannot be cancelled), which
        lets the clock recycle the event object after it fires.  The
        ``(time, seq)`` position is identical to ``schedule(0.0, ...)``
        — this is the middleware scaffold's dispatch primitive, so it is
        the single most-called entry point in message-heavy campaigns.
        """
        seq = self._seq_n
        self._seq_n = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = self._now
            event.seq = seq
            event.callback = callback
            event.args = args
        else:
            event = ScheduledEvent(self._now, seq, callback, args)
            event.pooled = True
        self._live += 1
        self._ready.append(event)

    def defer(self, delay: float, callback: Callable[..., Any],
              *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: same ``(time, seq)``
        position, no cancellation handle, recycled after firing."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq_n
        self._seq_n = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
        else:
            event = ScheduledEvent(time, seq, callback, args)
            event.pooled = True
        self._live += 1
        if time == self._now:
            self._ready.append(event)
        else:
            heapq.heappush(self._heap, (time, seq, event))

    def every(self, interval: float, callback: Callable[..., Any],
              *args: Any) -> "PeriodicTask":
        """Run ``callback(*args)`` every *interval* units, starting one
        interval from now.  Cancel the returned :class:`PeriodicTask` to
        stop the cycle."""
        return PeriodicTask(self, interval, callback, args)

    # ------------------------------------------------------------------
    def _note_cancel(self, event: ScheduledEvent) -> None:
        """A pending event was cancelled: move it from the live count to
        the cancelled book and compact the heap when it is mostly dead.

        Only heap entries count toward compaction.  A ready-deque entry
        is timed ``now`` with a ``seq`` at or after the deque's head (see
        the module docstring); it drops its clock here, which tells the
        drain loop not to take it off the heap's book when it pops it.
        """
        self._live -= 1
        self._cancelled += 1
        ready = self._ready
        if event.time == self._now and ready and event.seq >= ready[0].seq:
            event._clock = None
            return
        self._cancelled_heap += 1
        if (self._cancelled_heap > COMPACT_MIN
                and self._cancelled_heap * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap, in place.

        In place matters: the drain loop holds a local reference to the
        heap list, so compaction must keep the object identity.  The
        ready deque is left alone — its entries belong to the current
        instant and are popped imminently anyway (the cancelled book
        only counts heap entries for exactly this reason).
        """
        self._heap[:] = [entry for entry in self._heap
                         if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_heap = 0

    # ------------------------------------------------------------------
    def _drain(self, max_events: int, deadline: float = _NEVER,
               container: Any = None, until: float = _NEVER,
               predicate: Optional[Callable[[], Any]] = None) -> int:
        """Pop and fire events in ``(time, seq)`` order; returns how many
        fired.  The one loop behind :meth:`step`, :meth:`run`,
        :meth:`run_while` and :meth:`run_while_pending`.

        Before each pop it stops once *max_events* have fired, when a
        *container* is given and it is empty or ``now`` has reached
        *until*, or when a *predicate* is given and returns falsy; it
        also stops, without popping, when the next event is due after
        *deadline*.  The stop tests are plain local comparisons rather
        than a default predicate: a per-event call here costs measurably
        more across a campaign's millions of events.  Same-timestamp runs
        (zero-delay middleware dispatch above all) drain through the
        ready deque without heap traffic.
        """
        fired = 0
        heap = self._heap
        ready = self._ready
        pool = self._pool
        pop = heapq.heappop
        while fired < max_events:
            if container is not None:
                if not (container and self._now < until):
                    break
            elif predicate is not None and not predicate():
                break
            if ready:
                head = ready[0]
                if heap and heap[0] < (head.time, head.seq):
                    if heap[0][0] > deadline:
                        break
                    event = pop(heap)[2]
                else:
                    if head.time > deadline:
                        break
                    event = ready.popleft()
            elif heap:
                if heap[0][0] > deadline:
                    break
                event = pop(heap)[2]
            else:
                break
            if event.cancelled:
                # Still holding its clock: a cancelled heap entry.
                if event._clock is not None and self._cancelled_heap:
                    event._clock = None
                    self._cancelled_heap -= 1
                continue
            event._clock = None
            self._live -= 1
            self._now = event.time
            event.callback(*event.args)
            fired += 1
            if event.pooled and len(pool) < POOL_MAX:
                event.callback = event.args = None
                pool.append(event)
        return fired

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        return self._drain(1) == 1

    def run(self, duration: Optional[float] = None,
            max_events: int = 1_000_000_000) -> int:
        """Process events until the queue drains, *duration* elapses, or
        *max_events* fire (a runaway guard).  Returns events processed.

        The guard exists to stop a zero-delay livelock, not to bound
        legitimate work: a cap counted in scheduler events fires at
        different points in *virtual time* for batched vs per-event
        delivery (a coalesced run schedules fewer events for the same
        traffic), so a guard tight enough to bind on real campaigns
        would silently break their byte-equivalence.

        With a *duration*, time ends at the deadline even when the queue
        (or the guard) stops the loop earlier.
        """
        if duration is None:
            return self._drain(max_events)
        deadline = self._now + duration
        fired = self._drain(max_events, deadline)
        if self._now < deadline:
            self._now = deadline
        return fired

    def run_while(self, predicate: Callable[[], Any],
                  max_events: Optional[int] = None) -> int:
        """Process events for as long as ``predicate()`` is truthy.

        The predicate is evaluated before each event fires, so the stop
        point is exactly that of the seed idiom ``while predicate():
        clock.step()`` — but without the per-event method-call and
        local-setup overhead, which dominates when a redeployment window
        processes millions of application events.  No deadline filter is
        applied: like ``step()``, the next event fires regardless of its
        timestamp (the predicate itself usually watches ``now``).

        Unbounded by default, like the loop it replaces.  A bound would
        also break the batched-delivery equivalence: coalesced deliveries
        fire fewer scheduler events for the same traffic, so any cap
        counted in scheduler events truncates the two modes at different
        points in virtual time.
        """
        return self._drain(sys.maxsize if max_events is None else max_events,
                           predicate=predicate)

    def run_while_pending(self, container: Any, deadline: float) -> int:
        """Process events while *container* is non-empty and now < *deadline*.

        The common shape of :meth:`run_while` — "drain until this work
        queue empties or time runs out" — with the condition tested
        inline: the generic form pays a lambda call plus a ``now``
        property read per event, which is measurable when a redeployment
        window processes millions of events.  Stop point is identical to
        ``run_while(lambda: container and self.now < deadline)``.
        """
        return self._drain(sys.maxsize, container=container, until=deadline)

    def run_until(self, time: float, max_events: int = 1_000_000_000) -> int:
        """Process events with timestamps <= *time*."""
        if time < self._now:
            raise ValueError("run_until target is in the past")
        return self.run(time - self._now, max_events)

    def advance(self, duration: float) -> None:
        """Move time forward without firing anything (idle time)."""
        if duration < 0:
            raise ValueError("cannot advance backwards")
        live = [e.time for e in self._ready if not e.cancelled]
        live += [t for t, __, e in self._heap if not e.cancelled]
        if live and min(live) < self._now + duration:
            raise ValueError(
                "advance() would skip scheduled events; use run()")
        self._now += duration

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6g}, pending={self.pending})"
