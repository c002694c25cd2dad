"""Calibrated CPU timing.

The machine this benchmark runs on is shared, and its speed drifts: the
same fixed pure-Python loop measured anywhere from 0.46 s to 0.77 s of CPU
over 24 repetitions.  Raw ``process_time`` therefore moves by more than
the regressions the benchmark must catch.

Calibration divides that drift out.  A fixed reference workload, pure
Python and independent of the program under test, is timed right before
and right after every timed item (the sample after one item is the sample
before the next).  The item's raw CPU is divided by the mean of those two
samples and multiplied by :data:`NOMINAL_S`, the reference's fixed nominal
time.  A calibrated second is thus a CPU second on a machine where the
reference takes ``NOMINAL_S``, and a slowdown that stretches the program
and the reference alike cancels out.  Dividing by the item's own
neighbours rather than by a mean over the whole run follows the machine
when its speed changes within a run, which on this machine it does.

The reference mixes three kernels because the program mixes three kinds
of work, and each kind slows differently when the neighbours load the
machine: tight interpreter work on a few small objects, random access
over a working set of several megabytes, and a small discrete-event
simulation (a heap of timed callbacks passing messages between objects).
The cyclic garbage collector is paused during a sample (after collecting
what the program left behind), so a sample never pays for scanning the
program's heap.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Any, Callable, Dict, List, Tuple

#: Nominal CPU seconds of one :func:`reference_workload` call; the constant
#: calibrated figures are scaled to.  Fixed: changing it rescales every
#: calibrated metric.
NOMINAL_S = 0.04


class _Item:
    __slots__ = ("key", "weight", "links")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.links: list = []


def _small_kernel(units: int) -> float:
    """Interpreter-bound work on a few dozen objects."""
    items = [_Item(i, (i * 7919 % 113) / 13.0) for i in range(64)]
    for index, item in enumerate(items):
        item.links = [items[(index * 5 + j) % 64] for j in range(4)]
    table: Dict[int, float] = {}
    heap: list = []
    checksum = 0.0
    for tick in range(units):
        item = items[tick % 64]
        table[item.key] = table.get(item.key, 0.0) + item.weight
        heapq.heappush(heap, (item.weight * tick % 97.0, tick, item.key))
        if len(heap) > 64:
            heapq.heappop(heap)
        for other in item.links:
            checksum += other.weight * 0.5 + table.get(other.key, 1.0)
    return checksum


_TABLE: Dict[int, _Item] = {}
_KEYS: List[int] = []


def _memory_kernel(units: int) -> float:
    """Random access over 100k objects (built once per process)."""
    if not _TABLE:
        for i in range(100_000):
            _TABLE[i * 7 + 3] = _Item(i, i * 0.5)
        _KEYS.extend(_TABLE)
        random.Random(1).shuffle(_KEYS)
    keys = _KEYS
    count = len(keys)
    heap: list = []
    checksum = 0.0
    for tick in range(units):
        item = _TABLE[keys[(tick * 7919) % count]]
        item.weight = item.weight * 0.999 + 1.0
        checksum += item.key
        heapq.heappush(heap, (item.weight, tick))
        if len(heap) > 256:
            heapq.heappop(heap)
        record = {"tick": tick, "item": item}
        checksum += len(record)
    return checksum


class _Message:
    __slots__ = ("source", "size", "hops")

    def __init__(self, source: str, size: float) -> None:
        self.source = source
        self.size = size
        self.hops = 0


class _Node:
    __slots__ = ("name", "seen", "peers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seen: Dict[str, int] = {}
        self.peers: List["_Node"] = []

    def handle(self, sim: "_Sim", message: _Message) -> None:
        self.seen[message.source] = self.seen.get(message.source, 0) + 1
        message.hops += 1
        if message.hops < 4:
            peer = self.peers[(message.hops + len(self.seen))
                              % len(self.peers)]
            sim.send(peer, message)


class _Sim:
    def __init__(self, size: int) -> None:
        self.nodes = [_Node(f"n{i}") for i in range(size)]
        for index, node in enumerate(self.nodes):
            node.peers = [self.nodes[(index * 3 + k) % size]
                          for k in (1, 2, 5)]
        self.heap: List[Tuple[float, int, Any, _Message]] = []
        self.seq = 0
        self.now = 0.0

    def send(self, node: _Node, message: _Message) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + 0.001 * (1 + self.seq % 7),
                                   self.seq, node.handle, message))

    def run(self) -> int:
        processed = 0
        heap = self.heap
        while heap:
            self.now, __, callback, message = heapq.heappop(heap)
            callback(self, message)
            processed += 1
        return processed


def _sim_kernel(units: int) -> float:
    """Discrete-event message passing between 200 nodes."""
    sim = _Sim(200)
    nodes = sim.nodes
    processed = 0
    for i in range(units):
        sim.send(nodes[(i * 13) % 200], _Message(nodes[i % 200].name,
                                                  1.0 + i % 5))
        if i % 50 == 49:
            processed += sim.run()
    return float(processed + sim.run())


def reference_workload() -> float:
    """The fixed reference: about 40 ms of CPU on the machine the
    benchmark was written on.  Returns a checksum so nothing is skipped."""
    return (_small_kernel(3000) + _memory_kernel(7000)
            + _sim_kernel(1600))


class Calibrator:
    """Times items in calibrated CPU seconds.

    Args:
        clock: CPU clock; ``time.process_time`` by default.
        reference: The reference work; :func:`reference_workload` by
            default.
        nominal: Nominal seconds of one *reference* call.
    """

    def __init__(self, clock: Callable[[], float] = time.process_time,
                 reference: Callable[[], Any] = reference_workload,
                 nominal: float = NOMINAL_S) -> None:
        self.clock = clock
        self.reference = reference
        self.nominal = nominal
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time one reference call now and keep the sample.

        The garbage the program left is collected first and the collector
        is paused while the reference runs, so a sample never pays for
        scanning the program's heap."""
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            self.reference()
            elapsed = self.clock() - start
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def measure(self, item: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run *item* between two reference samples; returns ``(result,
        raw CPU seconds, calibrated CPU seconds)``."""
        before = self.samples[-1] if self.samples else self.sample()
        start = self.clock()
        result = item()
        raw = self.clock() - start
        after = self.sample()
        return result, raw, raw * self.nominal / ((before + after) / 2.0)

    def factor(self) -> float:
        """Calibrated seconds per raw second, from the mean of every
        sample so far (used for set-up, which has no sample before it)."""
        if not self.samples:
            self.sample()
        return self.nominal * len(self.samples) / sum(self.samples)

    def reset(self) -> None:
        """Forget the samples so far; the next item samples afresh."""
        self.samples.clear()
