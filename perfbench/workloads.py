"""The three workloads, their inputs, and the layer boundaries traced.

Each workload is a fixed list of *items* generated from its workload
seeds.  An item is one call into a public entry point of the program --
``repro.faults.run_campaign`` for the churn workloads, one family of
``repro.desi.batch.ExperimentRunner`` for the sweep -- and yields an
:class:`Outcome`: the canonical rendering the correctness gate hashes,
the user-visible work it did, and its deterministic counts.

See README.md for why each workload exists and what it should move.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.engine import PortfolioRunner
from repro.cli import ALGORITHM_BUILDERS
from repro.core import AvailabilityObjective, ConstraintSet, MemoryConstraint
from repro.core.analyzer import Analyzer
from repro.core.effector import Effector, MiddlewareEffector
from repro.core.monitoring import MonitoringHub
from repro.desi import batch as desi_batch
from repro.desi import xadl
from repro.desi.batch import ExperimentRunner
from repro.desi.generator import Generator, GeneratorConfig
from repro.faults import random_churn, run_campaign
from repro.faults.injector import FaultInjector
from repro.lint import model_rules
from repro.middleware.admin import AdminComponent, DeployerComponent
from repro.middleware.connectors import DistributionConnector
from repro.middleware.monitors import (
    EvtFrequencyMonitor, NetworkReliabilityMonitor,
)
from repro.middleware.runtime import DistributedSystem
from repro.plan.planner import MigrationPlanner
from repro.scenarios import CrisisConfig, build_crisis_scenario
from repro.sim.clock import SimClock
from repro.sim.network import SimulatedNetwork

from layers import LayerTracer

#: Layers, named by module, in report order.
LAYERS = (
    "sim.clock", "sim.network", "middleware.runtime",
    "middleware.connectors", "middleware.monitors", "middleware.admin",
    "core.monitoring", "core.analyzer", "algorithms", "plan",
    "core.effector", "lint", "faults", "desi",
)

#: Engine counters every algorithm run reports (``PortfolioReport.
#: counters()`` keys); summed per item.
ENGINE_COUNTERS = (
    "full_evaluations", "cache_hits", "cache_misses", "delta_evaluations",
    "delta_fallbacks", "kernel_evaluations", "kernel_deltas",
    "constraint_checks", "moves_rescored", "frontier_hits",
)

#: Engine counters that depend on thread timing when the analyzer's
#: portfolio runs its algorithms concurrently: they share one memo cache,
#: so which member pays for a deployment two of them score depends on
#: which gets there first (observed: one cache hit more or less in about
#: one campaign in a few hundred).  Results do not depend on it.  The
#: churn workloads record these without gating on them.
PORTFOLIO_RACY_COUNTERS = ("full_evaluations", "cache_hits",
                           "cache_misses", "kernel_evaluations")

#: The crisis scenario every churn campaign's fault plan is generated on
#: (E12 of EXPERIMENTS.md uses the same one).
CRISIS_SEED = 3
#: The master host; never crashed, as in E12.
MASTER = "hq"
#: Bounded per-migration wait (see README.md, "Why max_wait is bounded").
EFFECTOR_OPTIONS = {"max_wait": 5.0}


@dataclass
class Outcome:
    """What one item produced."""

    canonical: str
    #: User-visible work: app messages emitted (churn) or algorithm runs
    #: (sweep).
    units: int
    #: Deterministic counts, gated exactly against the reference.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Raw CPU seconds of each decision the item made.
    decisions: List[float] = field(default_factory=list)
    #: Counts that may legitimately differ between runs; compared with
    #: the reference and reported, never gated.
    racy: Dict[str, int] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()


@dataclass
class Item:
    """One timed call into the program.  *run* is the timed part; *finish*
    turns its result into an :class:`Outcome` afterwards, untimed."""

    key: str
    run: Callable[[], Any]
    finish: Callable[[Any], Outcome]

    def outcome(self) -> Outcome:
        return self.finish(self.run())


class DecisionTimer:
    """The one wrapper of the end-to-end pass: raw CPU of every decision.

    A decision is one ``Analyzer.analyze`` call on the churn workloads and
    one ``DeploymentAlgorithm.run`` (one algorithm deciding a deployment
    for one model) on the sweep.
    """

    def __init__(self, owner: Any, name: str) -> None:
        self.owner = owner
        self.name = name
        self.original = vars(owner)[name]
        self.samples: List[float] = []
        self.results: List[Any] = []

    def install(self) -> None:
        original = self.original
        samples = self.samples
        results = self.results
        clock = time.process_time

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = original(*args, **kwargs)
            samples.append(clock() - start)
            results.append(result)
            return result

        setattr(self.owner, self.name, timed)

    def uninstall(self) -> None:
        setattr(self.owner, self.name, self.original)

    def take(self) -> Tuple[List[float], List[Any]]:
        """Samples and results recorded since the last call."""
        taken = (list(self.samples), list(self.results))
        self.samples.clear()
        self.results.clear()
        return taken


class Workload:
    """A named, fixed item list built from workload seeds."""

    name = ""
    #: Seed sets: ``default`` is what the benchmark measures; ``heldout``
    #: is kept aside so a change tuned on the default set can be checked
    #: on inputs it was not tuned on.
    SEED_SETS: Dict[str, Tuple[int, ...]] = {}

    def __init__(self, seeds: Sequence[int]) -> None:
        self.seeds = tuple(seeds)
        self.timer = DecisionTimer(*self.timer_target())
        self.items = self.build_items()

    def timer_target(self) -> Tuple[Any, str]:
        raise NotImplementedError

    def build_items(self) -> List[Item]:
        raise NotImplementedError

    def stress_share(self, shares: Dict[str, float]) -> Tuple[float, float]:
        """(share of self CPU in the layers this workload stresses, the
        least share the benchmark requires)."""
        raise NotImplementedError


class ChurnWorkload(Workload):
    """Fault campaigns over the crisis scenario, one item per seed."""

    duration = 0.0
    campaign_options: Dict[str, Any] = {}

    def timer_target(self) -> Tuple[Any, str]:
        return Analyzer, "analyze"

    def build_items(self) -> List[Item]:
        model = build_crisis_scenario(CrisisConfig(seed=CRISIS_SEED)).model
        return [self._item(model, seed) for seed in self.seeds]

    def _item(self, model: Any, seed: int) -> Item:
        plan = random_churn(model, self.duration, seed=seed,
                            exclude_hosts=(MASTER,))

        def run() -> Any:
            return run_campaign(plan, seed=seed,
                                effector_options=dict(EFFECTOR_OPTIONS),
                                **self.campaign_options)

        def finish(report: Any) -> Outcome:
            samples, decisions = self.timer.take()
            counts = dict.fromkeys(ENGINE_COUNTERS, 0)
            for decision in decisions:
                for key, value in decision.portfolio.counters().items():
                    counts[key] = counts.get(key, 0) + value
            counts["decisions"] = len(decisions)
            counts["redeploys"] = sum(1 for d in decisions
                                      if d.will_redeploy)
            counts["events_sent"] = report.events_sent
            racy = {key: counts.pop(key) for key in PORTFOLIO_RACY_COUNTERS}
            return Outcome(report.render(), report.events_sent, counts,
                           samples, racy)

        return Item(f"s{seed}", run, finish)


class ChurnMsgs(ChurnWorkload):
    name = "churn_msgs"
    duration = 10.0
    campaign_options = {"rate_scale": 20.0}
    SEED_SETS = {"default": (1, 2, 3, 4, 5, 6, 7, 8),
                 "heldout": (21, 22, 23, 24, 25, 26, 27, 28)}

    def stress_share(self, shares: Dict[str, float]) -> Tuple[float, float]:
        return (sum(v for k, v in shares.items()
                    if k.startswith(("sim.", "middleware."))), 0.75)


class ChurnDecide(ChurnWorkload):
    name = "churn_decide"
    duration = 20.0
    campaign_options = {"rate_scale": 1.0, "monitor_interval": 0.5,
                        "cycles_per_analysis": 1, "planner": True}
    SEED_SETS = {"default": (1, 2, 3, 4, 5, 6, 7, 8),
                 "heldout": (21, 22, 23, 24, 25, 26, 27, 28)}

    def stress_share(self, shares: Dict[str, float]) -> Tuple[float, float]:
        return (shares.get("algorithms", 0.0)
                + shares.get("core.analyzer", 0.0), 0.50)


class DesiSweep(Workload):
    """DeSi sweeps: one item per (seed, family), every CLI algorithm but
    ``exact``, serial, with preflight verification."""

    name = "desi_sweep"
    SEED_SETS = {"default": (1, 2), "heldout": (11, 12)}
    #: family -> (hosts, components); one generated model per item.
    FAMILIES = {"f10x40": (10, 40), "f12x48": (12, 48)}

    def timer_target(self) -> Tuple[Any, str]:
        return DeploymentAlgorithm, "run"

    def build_items(self) -> List[Item]:
        objective = AvailabilityObjective()
        constraints = ConstraintSet([MemoryConstraint()])
        return [self._item(objective, constraints, seed, family)
                for seed in self.seeds for family in self.FAMILIES]

    def _item(self, objective: Any, constraints: Any, seed: int,
              family: str) -> Item:
        hosts, components = self.FAMILIES[family]
        # The memory shape of the CLI's ``sweep`` verb.
        config = GeneratorConfig(hosts=hosts, components=components,
                                 host_memory=(20.0, 50.0),
                                 memory_headroom=1.2)
        algorithms = {
            name: (lambda name=name: ALGORITHM_BUILDERS[name](
                objective, constraints, seed))
            for name in sorted(ALGORITHM_BUILDERS) if name != "exact"
        }

        def run() -> Any:
            runner = ExperimentRunner(objective, algorithms, replicates=1,
                                      seed=seed, preflight=True)
            return runner.run({family: config})

        def finish(report: Any) -> Outcome:
            samples, __ = self.timer.take()
            counts = dict.fromkeys(ENGINE_COUNTERS, 0)
            counts.update(report.engine_counters())
            counts["algorithm_runs"] = len(samples)
            canonical = (report.render(include_timing=False) + "\n"
                         + json.dumps(report.to_dict(include_timing=False),
                                      sort_keys=True))
            return Outcome(canonical, len(samples), counts, samples)

        return Item(f"s{seed}/{family}", run, finish)

    def stress_share(self, shares: Dict[str, float]) -> Tuple[float, float]:
        return shares.get("algorithms", 0.0), 0.50


WORKLOADS = {cls.name: cls for cls in (ChurnMsgs, ChurnDecide, DesiSweep)}


# -- the traced pass ------------------------------------------------------
def _remember_system(tracer: LayerTracer, args: tuple, result: Any,
                     error: Optional[BaseException]) -> None:
    tracer.remember(args[0])


def _process_interval(tracer: LayerTracer, args: tuple, result: Any,
                      error: Optional[BaseException]) -> None:
    if result is not None:
        tracer.count("core.monitoring.updates_applied", len(result))


def _analyze(tracer: LayerTracer, args: tuple, result: Any,
             error: Optional[BaseException]) -> None:
    if result is not None and result.will_redeploy:
        tracer.count("core.analyzer.redeploys")


def _engine_counts(tracer: LayerTracer, counters: Dict[str, Any]) -> None:
    for key in ENGINE_COUNTERS:
        tracer.count(f"algorithms.{key}", int(counters.get(key, 0)))


def _portfolio(tracer: LayerTracer, args: tuple, result: Any,
               error: Optional[BaseException]) -> None:
    if result is not None:
        _engine_counts(tracer, result.counters())


def _algorithm(tracer: LayerTracer, args: tuple, result: Any,
               error: Optional[BaseException]) -> None:
    # Inside a portfolio the portfolio's report already counts this run.
    if result is not None and not tracer.in_layer("algorithms"):
        _engine_counts(tracer, result.extra.get("engine", {}))


def _schedule(tracer: LayerTracer, args: tuple, result: Any,
              error: Optional[BaseException]) -> None:
    if result is not None:
        tracer.count("plan.waves", len(result.waves))


def _effect(tracer: LayerTracer, args: tuple, result: Any,
            error: Optional[BaseException]) -> None:
    report = result if result is not None else getattr(error, "report",
                                                       None)
    if report is not None:
        tracer.count("core.effector.retries", report.retries)


def _arm(tracer: LayerTracer, args: tuple, result: Any,
         error: Optional[BaseException]) -> None:
    if result is not None:
        tracer.count("faults.actions", result)


def install_layers(tracer: LayerTracer) -> None:
    """Wrap every layer boundary (README.md, "Layers")."""
    patch = tracer.patch
    for name in ("run", "run_while", "run_while_pending", "run_until"):
        patch(SimClock, name, "sim.clock")
    patch(SimulatedNetwork, "send", "sim.network", calls="sim.network.sends")
    patch(SimulatedNetwork, "send_many", "sim.network",
          calls="sim.network.sends")
    patch(SimulatedNetwork, "ping", "sim.network", calls="sim.network.pings")
    patch(DistributedSystem, "emit", "middleware.runtime", _remember_system,
          calls="middleware.runtime.emits")
    patch(DistributionConnector, "handle", "middleware.connectors",
          calls="middleware.connectors.handled")
    for monitor in (EvtFrequencyMonitor, NetworkReliabilityMonitor):
        patch(monitor, "notify", "middleware.monitors",
              calls="middleware.monitors.notifies")
    patch(NetworkReliabilityMonitor, "probe", "middleware.monitors")
    patch(AdminComponent, "collect_report", "middleware.monitors",
          calls="middleware.monitors.reports")
    patch(AdminComponent, "handle", "middleware.admin")
    patch(DeployerComponent, "handle", "middleware.admin")
    patch(DeployerComponent, "enact", "middleware.admin",
          calls="middleware.admin.enacts")
    patch(MonitoringHub, "ingest", "core.monitoring")
    patch(MonitoringHub, "process_interval", "core.monitoring",
          _process_interval, calls="core.monitoring.windows")
    patch(Analyzer, "analyze", "core.analyzer", _analyze,
          calls="core.analyzer.decisions")
    patch(PortfolioRunner, "run", "algorithms", _portfolio)
    patch(DeploymentAlgorithm, "run", "algorithms", _algorithm)
    patch(MigrationPlanner, "schedule", "plan", _schedule,
          calls="plan.schedules")
    patch(MiddlewareEffector, "effect", "core.effector", _effect,
          calls="core.effector.migrations")
    patch(Effector, "preflight", "lint")
    for owner in (model_rules, desi_batch):
        patch(owner, "verify_deployment", "lint",
              calls="lint.verifications")
    patch(FaultInjector, "arm", "faults", _arm)
    patch(Generator, "generate", "desi", calls="desi.models")
    for owner in (xadl, desi_batch):
        patch(owner, "to_xml", "desi")
        patch(owner, "from_xml", "desi")


def close_item(tracer: LayerTracer) -> Dict[str, int]:
    """The trace counts of the item that just ran; resets them."""
    counts = dict(tracer.counts)
    tracer.counts.clear()
    systems = list(tracer.seen.values())
    tracer.seen.clear()
    counts["sim.clock.events"] = sum(s.clock.processed for s in systems)
    counts["sim.network.sent"] = sum(s.network.stats.sent for s in systems)
    counts["sim.network.delivered"] = sum(s.network.stats.delivered
                                          for s in systems)
    counts["middleware.admin.retransmissions"] = sum(
        admin.retransmissions for s in systems for admin in s.admins.values())
    return counts
