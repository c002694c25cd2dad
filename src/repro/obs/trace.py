"""Structured span tracing over simulated time.

A :class:`Span` records one named region of the improvement loop — an
analyzer cycle, an effector redeployment, a monitoring interval — with a
start/end taken from an injected time source (in practice
``lambda: clock.now``, bound via
:meth:`~repro.obs.Observability.bind_clock`).  Spans nest: entering a
span while another is open makes it a child, so one Analyzer improvement
cycle exports as a tree::

    framework.window
    ├── monitoring.interval
    └── analyzer.cycle
        ├── analyzer.portfolio
        └── effector.effect

Because durations are sim-time, traces are deterministic: the same seed
produces a byte-identical capture on any machine.  Wall-clock profiling
stays where it already lives (``elapsed`` fields on reports, benchmark
harnesses); the tracer answers *where the simulated system spent its
time*, not where the host CPU did.

The open-span stack is thread-local: each thread grows its own tree and
finished roots are appended to a shared, lock-protected list.  In
practice only the orchestrating thread opens spans: the portfolio runner
runs its members one after another on that thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _zero_time() -> float:
    return 0.0


def sanitize_value(value: Any) -> Any:
    """Coerce an attribute value to a JSON-exact type.

    Tuples become lists and everything non-primitive becomes ``str`` *at
    record time*, so an exported-then-imported span tree compares equal
    to the original (the round-trip property test relies on this).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [sanitize_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): sanitize_value(v) for k, v in value.items()}
    return str(value)


@dataclass
class Span:
    """One named, timed region with attributes and child spans."""

    name: str
    start: float = 0.0
    end: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; values are sanitized to JSON-exact types."""
        for key, value in attrs.items():
            self.attributes[key] = sanitize_value(value)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (f"Span({self.name!r} [{self.start:g}, {self.end:g}] "
                f"children={len(self.children)})")


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info: Any) -> bool:
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Builds span trees against an injectable time source."""

    enabled = True

    def __init__(self,
                 time_source: Optional[Callable[[], float]] = None) -> None:
        self._time = time_source or _zero_time
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Completed-or-open root spans in start order.
        self.roots: List[Span] = []

    def bind(self, time_source: Callable[[], float]) -> None:
        """Swap the time source (typically ``lambda: clock.now``)."""
        with self._lock:
            self._time = time_source

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        span.start = span.end = self._time()
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate a corrupted stack (a span leaked across an exception
        # boundary) rather than poisoning every later measurement.
        while stack:
            top = stack.pop()
            top.end = self._time()
            if top is span:
                break

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a child span of whatever span is currently active."""
        span = Span(name)
        if attrs:
            span.set(**attrs)
        return _SpanContext(self, span)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def clear(self) -> None:
        with self._lock:
            self.roots = []
            self._local = threading.local()

    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()


class _NullSpan:
    """Shared inert span yielded when tracing is disabled."""

    __slots__ = ()
    name = ""
    start = 0.0
    end = 0.0
    duration = 0.0
    attributes: Dict[str, Any] = {}
    children: List[Span] = []

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def walk(self) -> Iterator["_NullSpan"]:
        return iter(())


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: Any) -> bool:
        return False


NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Tracer stand-in when observability is disabled.

    ``span()`` hands back one shared, reusable context manager — no
    allocation, no time-source call — so disabled span sites cost two
    no-op method calls (``__enter__``/``__exit__``).
    """

    enabled = False
    roots: Tuple[Span, ...] = ()

    def bind(self, time_source: Callable[[], float]) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def current(self) -> None:
        return None

    def clear(self) -> None:
        pass

    def walk(self) -> Iterator[Span]:
        return iter(())


NULL_TRACER = NullTracer()
