"""repro.obs — the framework's unified observability layer.

The paper's framework continuously monitors a *running deployment*;
this package gives the reproduction the same power over *itself*.  One
:class:`Observability` object bundles:

* a :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  fixed-bucket histograms fed by every layer (middleware dispatch, link
  deliveries, monitoring windows, engine memo hits, effector
  migrations, fault actions);
* a :class:`~repro.obs.trace.Tracer` — sim-time span trees over the
  monitor→model→algorithm→effector loop;
* :class:`~repro.obs.capture.Capture` — JSON-lines export/import, text
  rendering, and diffing (surfaced as ``python -m repro obs``).

Observability is **disabled by default**: the process-wide default is a
null object whose instruments are shared no-ops, and the microbenchmark
in ``benchmarks/test_bench_obs.py`` pins the disabled overhead below 2%
on the evaluation hot path.  Enable it either by injection::

    obs = Observability()
    system = DistributedSystem(model, clock, obs=obs)

or process-wide for code you don't construct yourself::

    with observe(Observability()) as obs:
        run_campaign(plan, scenario="crisis")
    obs.capture().save("trace.jsonl")

Instrumented constructors resolve ``obs=None`` to the process default
via :func:`get_observability`, so both styles reach every subsystem.

:func:`fan_out` runs independent jobs (DeSi sweep cells, campaign-suite
runs) inline or over worker processes and brings each job's metrics
home, so both modes report into one bundle identically.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from itertools import repeat
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type,
)

from .capture import Capture
from .metrics import (
    DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry,
    NULL_METRICS, NullMetrics,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Observability", "MetricsRegistry", "NullMetrics", "NULL_METRICS",
    "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS",
    "Tracer", "NullTracer", "NULL_TRACER", "Span", "Capture",
    "get_observability", "set_observability", "observe", "fan_out",
]


class Observability:
    """Bundle of a metrics registry and a tracer, on or off as a unit."""

    __slots__ = ("metrics", "tracer")

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 time_source: Optional[Callable[[], float]] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(time_source)

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.tracer.enabled

    @classmethod
    def disabled(cls) -> "Observability":
        """The shared null bundle (also the process-wide default)."""
        return NULL_OBS

    # -- delegation ------------------------------------------------------
    def counter(self, name: str, **labels: Any):
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any):
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS, **labels: Any):
        return self.metrics.histogram(name, buckets=buckets, **labels)

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    # ------------------------------------------------------------------
    def bind_clock(self, clock: Any) -> "Observability":
        """Point the tracer's time source at *clock*'s sim time."""
        self.tracer.bind(lambda: clock.now)
        return self

    def capture(self, label: str = "") -> Capture:
        """Freeze the current metrics and finished spans into a capture."""
        return Capture.from_obs(self, label)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"Observability({state}, instruments={len(self.metrics)}, "
                f"roots={len(self.tracer.roots)})")


#: The shared disabled bundle.  Instrumented code paths resolve to this
#: when no observability was injected, making instrumentation free by
#: default.
NULL_OBS = Observability(metrics=NULL_METRICS, tracer=NULL_TRACER)

_default: Observability = NULL_OBS


def get_observability() -> Observability:
    """The process-wide default (a null bundle unless one was set)."""
    return _default


def set_observability(obs: Optional[Observability]) -> Observability:
    """Install *obs* as the process default; returns the previous one.

    Passing ``None`` restores the disabled default.
    """
    global _default
    previous = _default
    _default = obs if obs is not None else NULL_OBS
    return previous


@contextmanager
def observe(obs: Optional[Observability] = None) -> Iterator[Observability]:
    """Scope a process-default observability to a ``with`` block."""
    installed = obs if obs is not None else Observability()
    previous = set_observability(installed)
    try:
        yield installed
    finally:
        set_observability(previous)


def fan_out(job: Callable[[Any, Observability], Any], items: Sequence[Any],
            workers: Optional[int], obs: Observability,
            error: Type[Exception]) -> List[Any]:
    """Run ``job(item, job_obs)`` for every item; results in item order.

    ``workers`` of ``None``/1 runs the jobs inline; ``N > 1`` maps them
    over ``N`` worker processes, so *job* must be a module-level function
    and every item must pickle (checked before any process starts; a
    failure raises *error*).  Each job records into a private metrics-only
    bundle (disabled when *obs* collects no metrics) whose lines are
    merged into *obs* in item order, so both modes return equal results
    and leave equal metrics in *obs*.  Spans stay with the caller.
    """
    observed = obs.metrics.enabled
    if workers is not None and workers > 1:
        for index, item in enumerate(items):
            try:
                pickle.dumps(item)
            except Exception as exc:
                raise error(
                    f"workers mode requires picklable jobs, but job {index} "
                    f"cannot be pickled ({exc}); use module-level functions "
                    "or functools.partial instead of lambdas or closures"
                ) from exc
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_job, repeat(job), items,
                                     repeat(observed)))
    else:
        outcomes = [_run_job(job, item, observed) for item in items]
    results = []
    for result, metric_lines in outcomes:
        shipped = MetricsRegistry()
        for line in metric_lines:
            shipped.load_line(line)
        obs.metrics.merge(shipped)
        results.append(result)
    return results


def _run_job(job: Callable[[Any, Observability], Any], item: Any,
             observed: bool) -> Tuple[Any, List[Dict[str, Any]]]:
    """One job with its own bundle; registries never cross the process
    boundary, only their JSON-safe lines do."""
    job_obs = (Observability(metrics=MetricsRegistry(), tracer=NULL_TRACER)
               if observed else NULL_OBS)
    return job(item, job_obs), job_obs.metrics.to_lines()
