"""Deterministic execution of fault plans on the simulated network.

The :class:`FaultInjector` turns a validated
:class:`~repro.faults.plan.FaultPlan` into scheduled callbacks on the
network's :class:`~repro.sim.clock.SimClock`.  It owns **no randomness**:
every action fires at its declared simulated time and mutates links only
through the network's notifying setters (:meth:`set_connected`,
:meth:`set_reliability`, :meth:`set_bandwidth`), so the middleware's
offline-queue and monitoring machinery observes injected faults exactly
like organic ones, and the same (plan, network seed) pair replays
bit-for-bit.

Host crashes are modeled as severing every link that touches the host —
the paper's system model only sees a host through its links, so a crashed
host and a fully unreachable host are indistinguishable to every other
node.  The injector remembers each link's pre-fault connectivity and
restores precisely that on ``host_restart`` / ``heal``, which keeps
crash/partition effects strictly scoped: a link that was already down
stays down after recovery.

Nothing here touches the network's send path, so an unarmed (or absent)
injector costs nothing — the zero-overhead guarantee is structural, and
the guard test in ``tests/faults/test_overhead.py`` holds it.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.errors import FaultPlanError
from repro.core.model import DeploymentModel
from repro.faults.plan import FaultAction, FaultPlan
from repro.obs import Observability, get_observability
from repro.sim.network import SimulatedNetwork


class FaultInjector:
    """Schedules a :class:`FaultPlan`'s actions on a live network.

    Args:
        network: The network to inject into.
        plan: The campaign to execute.
        model: Optional deployment model; when given, :meth:`arm` also
            validates every host/link reference in the plan against it.
    """

    def __init__(self, network: SimulatedNetwork, plan: FaultPlan,
                 model: Optional[DeploymentModel] = None,
                 obs: Optional[Observability] = None):
        self.obs = obs if obs is not None else get_observability()
        self.network = network
        self.plan = plan
        self.model = model
        self.armed = False
        #: Applied injections: dicts with time/kind/target/detail.
        self.log: List[Dict[str, Any]] = []
        #: Completed outage intervals (kind, target, start, end).
        self.outages: List[Tuple[str, Tuple[str, ...], float, float]] = []
        self.actions_applied = 0
        self._handles: List[Any] = []
        # Saved link states, keyed by crash host / partition group.
        self._crashed: Dict[str, Dict[Tuple[str, str], bool]] = {}
        self._partitions: Dict[FrozenSet[str],
                               Dict[Tuple[str, str], bool]] = {}
        self._outage_starts: Dict[Tuple[str, Tuple[str, ...]], float] = {}

    @property
    def clock(self):
        return self.network.clock

    # ------------------------------------------------------------------
    def arm(self) -> int:
        """Validate the plan, then schedule every action.  Returns the
        number of scheduled callbacks."""
        if self.armed:
            raise FaultPlanError(
                f"injector for plan {self.plan.name!r} is already armed")
        self.plan.validate(self.model)
        for endpoint in self._referenced_endpoints():
            if endpoint not in self.network.endpoints:
                raise FaultPlanError(
                    f"plan {self.plan.name!r} references endpoint "
                    f"{endpoint!r} absent from the network")
        clock = self.clock
        for action in self.plan.actions:
            self._handles.append(clock.schedule_at(
                action.time, self._fire, action.kind, action.target,
                action.param_map))
        self.armed = True
        return len(self._handles)

    def disarm(self) -> int:
        """Cancel every not-yet-fired action.  Returns how many were
        cancelled."""
        cancelled = 0
        for handle in self._handles:
            if not handle.cancelled:
                handle.cancel()
                cancelled += 1
        self._handles.clear()
        self.armed = False
        return cancelled

    def _referenced_endpoints(self) -> Tuple[str, ...]:
        seen = []
        for action in self.plan.actions:
            for endpoint in action.target:
                if endpoint not in seen:
                    seen.append(endpoint)
        return tuple(seen)

    # ------------------------------------------------------------------
    def _schedule(self, time: float, kind: str, target: Tuple[str, ...],
                  params: Dict[str, Any]) -> None:
        handle = self.clock.schedule_at(
            time, self._fire, kind, target, params)
        self._handles.append(handle)

    def _fire(self, kind: str, target: Tuple[str, ...],
              params: Dict[str, Any]) -> None:
        detail = getattr(self, f"_do_{kind}")(target, params)
        self.actions_applied += 1
        self.obs.counter("faults.actions", kind=kind).inc()
        self.log.append({"time": self.clock.now, "kind": kind,
                         "target": list(target), "detail": detail})

    # -- outage bookkeeping --------------------------------------------
    def _outage_begin(self, kind: str, target: Tuple[str, ...]) -> None:
        self._outage_starts.setdefault((kind, target), self.clock.now)

    def _outage_end(self, kind: str, target: Tuple[str, ...]) -> None:
        start = self._outage_starts.pop((kind, target), None)
        if start is not None:
            self.outages.append((kind, target, start, self.clock.now))

    def open_outages(self) -> Tuple[Tuple[str, Tuple[str, ...], float], ...]:
        """Outages injected but never healed (still open at campaign end)."""
        return tuple((kind, target, start) for (kind, target), start
                     in sorted(self._outage_starts.items()))

    # -- action implementations ----------------------------------------
    def _links_touching(self, host: str):
        return [link for link in self.network.links if host in link.ends]

    def _do_host_crash(self, target: Tuple[str, ...],
                       params: Dict[str, Any]) -> Dict[str, Any]:
        host, = target
        if host in self._crashed:  # duplicate crash: no-op, keep first save
            return {"severed": 0, "duplicate": True}
        saved: Dict[Tuple[str, str], bool] = {}
        for link in self._links_touching(host):
            saved[link.ends] = link.connected
            self.network.set_connected(*link.ends, False)
        self._crashed[host] = saved
        self._outage_begin("host_crash", target)
        duration = params.get("duration")
        if duration is not None:
            self._schedule(self.clock.now + float(duration),
                           "host_restart", target, {})
        return {"severed": sum(saved.values())}

    def _do_host_restart(self, target: Tuple[str, ...],
                         params: Dict[str, Any]) -> Dict[str, Any]:
        host, = target
        saved = self._crashed.pop(host, None)
        if saved is None:
            return {"restored": 0, "not_crashed": True}
        restored = 0
        for ends, was_connected in saved.items():
            if was_connected:
                self.network.set_connected(*ends, True)
                restored += 1
        self._outage_end("host_crash", target)
        return {"restored": restored}

    def _do_link_down(self, target: Tuple[str, ...],
                      params: Dict[str, Any]) -> Dict[str, Any]:
        self.network.set_connected(*target, False)
        self._outage_begin("link_down", target)
        return {}

    def _do_link_up(self, target: Tuple[str, ...],
                    params: Dict[str, Any]) -> Dict[str, Any]:
        self.network.set_connected(*target, True)
        self._outage_end("link_down", target)
        return {}

    def _do_set_reliability(self, target: Tuple[str, ...],
                            params: Dict[str, Any]) -> Dict[str, Any]:
        old = self.network.require_link(*target).reliability
        self.network.set_reliability(*target, float(params["value"]))
        return {"old": old,
                "new": self.network.require_link(*target).reliability}

    def _do_set_bandwidth(self, target: Tuple[str, ...],
                          params: Dict[str, Any]) -> Dict[str, Any]:
        old = self.network.require_link(*target).bandwidth
        self.network.set_bandwidth(*target, float(params["value"]))
        return {"old": old,
                "new": self.network.require_link(*target).bandwidth}

    def _do_loss_burst(self, target: Tuple[str, ...],
                       params: Dict[str, Any]) -> Dict[str, Any]:
        link = self.network.require_link(*target)
        previous = link.reliability
        self.network.set_reliability(*target, float(params["value"]))
        self._schedule(self.clock.now + float(params["duration"]),
                       "set_reliability", target, {"value": previous})
        return {"old": previous, "new": link.reliability,
                "until": self.clock.now + float(params["duration"])}

    def _do_flap(self, target: Tuple[str, ...],
                 params: Dict[str, Any]) -> Dict[str, Any]:
        period = float(params.get("period", 1.0))
        count = int(params.get("count", 1))
        # One cycle = down at t, up at t + period/2; first down fires now.
        self._schedule(self.clock.now, "link_down", target, {})
        self._schedule(self.clock.now + period / 2.0, "link_up", target, {})
        for cycle in range(1, count):
            base = self.clock.now + cycle * period
            self._schedule(base, "link_down", target, {})
            self._schedule(base + period / 2.0, "link_up", target, {})
        return {"period": period, "count": count}

    def _do_partition(self, target: Tuple[str, ...],
                      params: Dict[str, Any]) -> Dict[str, Any]:
        group = frozenset(target)
        if group in self._partitions:
            return {"severed": 0, "duplicate": True}
        saved: Dict[Tuple[str, str], bool] = {}
        for link in self.network.links:
            a, b = link.ends
            if (a in group) != (b in group):  # crosses the cut
                saved[link.ends] = link.connected
                self.network.set_connected(a, b, False)
        self._partitions[group] = saved
        self._outage_begin("partition", tuple(sorted(group)))
        duration = params.get("duration")
        if duration is not None:
            self._schedule(self.clock.now + float(duration),
                           "heal", target, {})
        return {"severed": sum(saved.values())}

    def _do_heal(self, target: Tuple[str, ...],
                 params: Dict[str, Any]) -> Dict[str, Any]:
        group = frozenset(target)
        saved = self._partitions.pop(group, None)
        if saved is None:
            return {"restored": 0, "not_partitioned": True}
        restored = 0
        for ends, was_connected in saved.items():
            if was_connected:
                self.network.set_connected(*ends, True)
                restored += 1
        self._outage_end("partition", tuple(sorted(group)))
        return {"restored": restored}
