"""Per-layer self-time tracing, installed from outside the program.

:class:`LayerTracer` wraps public functions at each layer boundary of the
program (see :data:`LAYERS` in ``workloads.py``) and keeps a stack of open
calls.  When a wrapped call returns, its duration is charged to its layer
minus the time its wrapped children took, so every CPU second lands on
exactly one layer: the innermost wrapped layer running at that moment.
Time spent outside every wrapper (the benchmark's own glue and whatever
program code no boundary covers) is charged to :data:`UNATTRIBUTED`.

Only the thread that created the tracer is traced.  A wrapped function
called from another thread (the analyzer's portfolio runs algorithms in a
thread pool) runs unwrapped, and its CPU is charged to the enclosing
wrapped call of the traced thread, which waits for it -- ``process_time``
counts every thread of the process.

Counts are recorded at the same boundaries by per-function hooks, see
:meth:`LayerTracer.wrap`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"

#: ``hook(tracer, args, result, error)`` -- called after a wrapped call of
#: the traced thread returns or raises, outside the timed interval.
Hook = Callable[["LayerTracer", tuple, Any, Optional[BaseException]], None]


class LayerTracer:
    """Self-time stack plus counters for one traced pass.

    Args:
        clock: CPU clock; ``time.process_time`` by default.
    """

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.self_time: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        #: Program objects seen at the boundaries, by ``id``; counters are
        #: read off them when an item ends.
        self.seen: Dict[int, Any] = {}
        #: CPU seconds of every :meth:`run` so far, measured around the
        #: root independently of the per-layer charges.
        self.total_cpu = 0.0
        self._stack: List[list] = []  # frames: [child CPU, layer]
        self._thread = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- accounting -----------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def remember(self, obj: Any) -> None:
        self.seen[id(obj)] = obj

    def in_layer(self, layer: str) -> bool:
        """Whether a call of *layer* is open (from a hook: an enclosing
        call, since the hook's own call has already closed)."""
        return any(frame[1] == layer for frame in self._stack)

    def _charge(self, layer: str, seconds: float) -> None:
        self.self_time[layer] = self.self_time.get(layer, 0.0) + seconds

    def wrap(self, layer: str, fn: Callable[..., Any],
             hook: Optional[Hook] = None,
             calls: Optional[str] = None) -> Callable[..., Any]:
        """*fn* with its self time charged to *layer*; each call adds one
        to the count *calls* when given, then runs *hook*."""
        stack = self._stack
        clock = self.clock
        thread = self._thread
        counts = self.counts
        get_ident = threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != thread:
                return fn(*args, **kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self._charge(layer, elapsed - frame[0])
                if stack:
                    stack[-1][0] += elapsed
                if calls is not None:
                    counts[calls] = counts.get(calls, 0) + 1
                if hook is not None:
                    hook(self, args, result, error)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def run(self, body: Callable[[], Any]) -> Tuple[Any, float]:
        """Run *body* as the root of the stack; returns ``(result, total
        CPU seconds)``.  Time outside every wrapper is charged to
        :data:`UNATTRIBUTED`."""
        if self._stack:
            raise RuntimeError("LayerTracer.run does not nest")
        frame = [0.0, UNATTRIBUTED]
        self._stack.append(frame)
        start = self.clock()
        try:
            result = body()
        finally:
            total = self.clock() - start
            self._stack.pop()
            self._charge(UNATTRIBUTED, total - frame[0])
            self.total_cpu += total
        return result, total

    # -- installation ---------------------------------------------------
    def patch(self, owner: Any, name: str, layer: str,
              hook: Optional[Hook] = None,
              calls: Optional[str] = None) -> None:
        """Replace ``owner.name`` (a function defined on that class or
        module itself) by its traced wrapper until :meth:`uninstall`."""
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, hook, calls))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
