"""Cross-address-space routing — Prism-MW's DistributionConnector.

"A distributed application is implemented as a set of interacting
Architecture objects, communicating via DistributionConnectors across
process or machine boundaries." (Section 4.2)

A :class:`DistributionConnector` binds its architecture to one endpoint of
the :class:`~repro.sim.network.SimulatedNetwork`.  It keeps a *location
table* mapping component ids to host addresses — the middleware's knowledge
of the current deployment — and serializes events onto the network when
their target is not local.  The table is maintained by the Admin/Deployer
components as migrations happen.

Routing policy (single-hop network, as in the deployment model):

* target local → deliver locally;
* target's host directly linked → send over that link;
* otherwise → relay via the deployer host, realizing "if devices that need
  to exchange components are not directly connected, the relevant request
  events are sent to the DeployerComponent, which then mediates their
  interaction" (Section 4.3).

Control traffic (``admin.*`` events) rides a retransmitting transport
(``reliable=True``); application events take their chances against the
link's reliability, which is exactly what the availability objective scores.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.errors import MiddlewareError
from repro.middleware.bricks import Connector
from repro.middleware.events import Event
from repro.obs import Observability, get_observability
from repro.sim.network import SimulatedNetwork


class DistributionConnector(Connector):
    """Connector spanning architectures through the simulated network."""

    is_distribution = True

    def __init__(self, connector_id: str, network: SimulatedNetwork,
                 host: str, deployer_host: Optional[str] = None,
                 queue_when_disconnected: bool = False,
                 offline_queue_limit: int = 1000,
                 obs: Optional[Observability] = None):
        super().__init__(connector_id)
        obs = obs if obs is not None else get_observability()
        self._c_sent = obs.counter("middleware.connector.sent_remote")
        self._c_received = obs.counter(
            "middleware.connector.received_remote")
        self._c_relayed = obs.counter("middleware.connector.relayed")
        self._c_flushed = obs.counter(
            "middleware.connector.offline_flushed")
        self._c_undeliverable = obs.counter(
            "middleware.connector.undeliverable")
        self._g_offline = obs.gauge("middleware.connector.offline_queue")
        self.network = network
        self.host = host
        self.deployer_host = deployer_host
        #: Section 6 future work, implemented: "queuing of remote calls".
        #: When enabled, events that cannot currently reach their
        #: destination are held in an outbox and retransmitted when a link
        #: comes (back) up, instead of being dropped as undeliverable.
        self.queue_when_disconnected = queue_when_disconnected
        self.offline_queue_limit = offline_queue_limit
        #: (destination, event) pairs awaiting connectivity.
        self.offline_queue: list = []
        self.offline_flushed = 0
        #: Callables consulted (in order) when a destination is unreachable;
        #: the first to return True takes ownership of the event.  This is
        #: the hook the §6 caching/hoarding service plugs into.
        self.unreachable_handlers: list = []
        #: Per-destination sequence counters stamped on loss-subject
        #: (application) events so receivers can infer losses from gaps.
        self._seq_out: Dict[str, int] = {}
        if queue_when_disconnected:
            network.observers.append(self._on_network_event)
        #: component id -> host address; the connector's deployment view.
        self.locations: Dict[str, str] = {}
        #: Events held back for components currently migrating away from
        #: this host (Section 3.1, Effector: "buffering, hoarding, or
        #: relaying of the exchanged events during component redeployment").
        self.buffering: Dict[str, list] = {}
        #: Events that could not be routed off-host.
        self.undeliverable: list = []
        self.sent_remote = 0
        self.received_remote = 0
        self.relayed = 0
        network.attach_handler(host, self._on_network_receive)

    # ------------------------------------------------------------------
    # Location table
    # ------------------------------------------------------------------
    def set_location(self, component_id: str, host: str) -> None:
        self.locations[component_id] = host

    def forget_location(self, component_id: str) -> None:
        self.locations.pop(component_id, None)

    def update_locations(self, mapping: Dict[str, str]) -> None:
        self.locations.update(mapping)

    def lookup(self, component_id: str) -> Optional[str]:
        if (self.architecture is not None
                and self.architecture.has_component(component_id)):
            return self.host
        return self.locations.get(component_id)

    # ------------------------------------------------------------------
    # Migration buffering
    # ------------------------------------------------------------------
    def begin_buffering(self, component_id: str) -> None:
        """Hold events for *component_id* until its new location is known."""
        self.buffering.setdefault(component_id, [])

    def end_buffering(self, component_id: str, new_host: str) -> None:
        """Release buffered events toward the component's new home."""
        held = self.buffering.pop(component_id, [])
        self.set_location(component_id, new_host)
        if new_host == self.host:
            for event in held:
                self.architecture.deliver_local(event)
        elif held:
            self._transmit_many(new_host, held)

    def _maybe_buffer(self, event: Event) -> bool:
        if event.target is not None and event.target in self.buffering:
            self.buffering[event.target].append(event)
            return True
        return False

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def handle(self, event: Event) -> None:
        """Route an event that reached the distribution connector."""
        if event.target is None:
            raise MiddlewareError(
                "distribution connector cannot broadcast untargeted events")
        if (self.architecture is not None
                and self.architecture.has_component(event.target)):
            self.architecture.deliver_local(event)
            return
        if self._maybe_buffer(event):
            return
        self._send_remote(event)

    def _send_remote(self, event: Event) -> None:
        destination = self.lookup(event.target)
        if destination is None or destination == self.host:
            # Unknown location (or stale self-reference): fall back to the
            # deployer host, which has the authoritative view.
            destination = self.deployer_host
        if destination is None or destination == self.host:
            self.undeliverable.append(event)
            self._c_undeliverable.inc()
            return
        self._transmit(destination, event)

    #: Maximum relay hops before an event is dropped (routing-loop guard).
    MAX_RELAY_HOPS = 8

    def _transmit(self, destination: str, event: Event) -> None:
        """Put *event* on the wire toward *destination*, relaying if the
        direct link is absent or down.

        Relay preference order: the deployer host (the paper's mediated
        path, §4.3), then any mutual neighbor of us and the destination
        (deterministically the lexicographically first).  Each relay hop
        decrements a TTL so partitioned or miswired systems dead-letter
        instead of looping.
        """
        my_neighbors = self.network.neighbors(self.host)
        if destination not in my_neighbors:
            relay = self._pick_relay(destination, my_neighbors)
            if relay is None:
                self._fail_or_queue(destination, event)
                return
            ttl = event.headers.get("ttl", self.MAX_RELAY_HOPS)
            if ttl <= 0:
                self.undeliverable.append(event)
                self._c_undeliverable.inc()
                return
            event.headers["ttl"] = ttl - 1
            event.headers["relay_to"] = destination
            destination = relay
        self._stamp(destination, event)
        wire = event.to_wire()
        self.sent_remote += 1
        self._c_sent.inc()
        self.network.send(self.host, destination, wire,
                          size_kb=event.size_kb,
                          reliable=event.is_admin)

    def _stamp(self, destination: str, event: Event) -> None:
        """Stamp the headers an event carries on its hop toward the direct
        neighbor *destination*: the origin host and, for application
        events not yet sequenced, the per-destination ``seq``."""
        headers = event.headers
        headers.setdefault("origin_host", self.host)
        if not event.is_admin and "seq" not in headers:
            # Sequence application events per direct destination: the
            # receiving monitor infers losses from sequence gaps (an
            # unbiased passive reliability estimate; see
            # NetworkReliabilityMonitor.notify).
            seq = self._seq_out.get(destination, 0) + 1
            self._seq_out[destination] = seq
            headers["seq"] = seq
            headers["seq_link"] = self.host

    def _transmit_many(self, destination: str, events: list) -> None:
        """Transmit an adjacent run of events toward one destination,
        coalescing the direct-link case into framed network batches.

        Exactly equivalent to calling :meth:`_transmit` per event in
        order: headers are stamped per event by :meth:`_stamp` before its
        wire frame joins the batch, loss trials consume the seeded RNG
        stream in the same order inside
        :meth:`~repro.sim.network.SimulatedNetwork.send_many`, and runs
        are broken wherever the transport differs (admin events ride the
        reliable transport, application events do not).  Relay and
        unreachable cases fall back to the per-event path — only the
        direct-neighbor fast path is coalesced, and within one simulated
        instant the neighbor set cannot change under us (nothing in the
        batched path runs user callbacks).
        """
        if len(events) < 2 \
                or destination not in self.network.neighbors(self.host):
            for event in events:
                self._transmit(destination, event)
            return
        send_many = self.network.send_many
        run: list = []          # (wire, size_kb) frames for one transport
        run_reliable = False
        for event in events:
            self._stamp(destination, event)
            reliable = event.is_admin
            if run and reliable != run_reliable:
                send_many(self.host, destination, run,
                          reliable=run_reliable)
                run = []
            run_reliable = reliable
            run.append((event.to_wire(), event.size_kb))
            self.sent_remote += 1
            self._c_sent.inc()
        if run:
            send_many(self.host, destination, run, reliable=run_reliable)

    def _fail_or_queue(self, destination: str, event: Event) -> None:
        """Destination unreachable right now: let a registered handler take
        the event (e.g. a cached-reply service), else queue (if enabled),
        else fail."""
        for handler in self.unreachable_handlers:
            if handler(destination, event):
                return
        if self.queue_when_disconnected \
                and len(self.offline_queue) < self.offline_queue_limit:
            self.offline_queue.append((destination, event))
            self._g_offline.set(len(self.offline_queue))
        else:
            self.undeliverable.append(event)
            self._c_undeliverable.inc()

    def _on_network_event(self, name: str, payload: Any) -> None:
        """A link came up: retry everything waiting for connectivity.

        Adjacent queue entries bound for the same now-reachable direct
        neighbor flush as one coalesced run (they cannot re-queue, so
        they all count as flushed); everything else takes the per-event
        path with its requeue/undeliverable accounting.
        """
        if name != "link_up" or not self.offline_queue:
            return
        pending = self.offline_queue
        self.offline_queue = []
        index = 0
        total = len(pending)
        while index < total:
            destination, event = pending[index]
            if destination in self.network.neighbors(self.host):
                run = [event]
                index += 1
                while index < total and pending[index][0] == destination:
                    run.append(pending[index][1])
                    index += 1
                self._transmit_many(destination, run)
                self.offline_flushed += len(run)
                self._c_flushed.inc(len(run))
                continue
            before = len(self.offline_queue) + len(self.undeliverable)
            self._transmit(destination, event)
            after = len(self.offline_queue) + len(self.undeliverable)
            if after == before:
                self.offline_flushed += 1
                self._c_flushed.inc()
            index += 1
        self._g_offline.set(len(self.offline_queue))

    def _pick_relay(self, destination: str,
                    my_neighbors: Tuple[str, ...]) -> Optional[str]:
        deployer = self.deployer_host
        if deployer is not None and deployer != self.host \
                and deployer != destination and deployer in my_neighbors:
            return deployer
        mutual = sorted(set(my_neighbors)
                        & set(self.network.neighbors(destination)))
        return mutual[0] if mutual else None

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def _on_network_receive(self, source: str, payload: Any,
                            size_kb: float) -> None:
        event = Event.from_wire(payload)
        self.received_remote += 1
        self._c_received.inc()
        event.headers["arrived_from"] = source
        # Network arrivals bypass the scaffold, so probe the monitors here
        # (reliability piggyback, reply hoarding) before routing.
        self.notify_monitors(event, "deliver")
        relay_to = event.headers.pop("relay_to", None)
        if relay_to is not None and relay_to != self.host:
            # We are the mediator: pass it along toward the true target.
            self.relayed += 1
            self._c_relayed.inc()
            self._transmit(relay_to, event)
            return
        if (self.architecture is not None and event.target is not None
                and self.architecture.has_component(event.target)):
            self.architecture.deliver_local(event)
            return
        if self._maybe_buffer(event):
            return
        # Target is not here.  If we know where it lives now (it may have
        # migrated), forward; otherwise dead-letter it.
        if event.target is not None:
            known = self.locations.get(event.target)
            if known is not None and known != self.host \
                    and event.headers.get("forwarded") is None:
                event.headers["forwarded"] = self.host
                self._transmit(known, event)
                return
        self.undeliverable.append(event)
        self._c_undeliverable.inc()

    # ------------------------------------------------------------------
    def neighbors(self) -> Tuple[str, ...]:
        """Hosts currently reachable over a direct, up link."""
        return self.network.neighbors(self.host)

    def __repr__(self) -> str:
        return (f"DistributionConnector({self.id!r}, host={self.host!r}, "
                f"known={len(self.locations)})")
