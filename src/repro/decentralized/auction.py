"""Message-level DecAp: auctions between per-host agents over the middleware.

This is the protocol realization of Section 5.2 — where
:class:`repro.algorithms.decap.DecApAlgorithm` simulates the auction's
*decisions* directly against a model, this module runs the actual message
exchange: agents announce auctions with events, bids travel over (reliable)
control channels, deadlines close auctions on the simulation clock, and
winning bids trigger real component migrations through the host Admins.

"Each host's agent initiates an auction for the redeployment of its local
components, assuming none of its neighboring (i.e., connected) hosts is
already conducting an auction.  The auction initiation is done by sending to
all the neighboring hosts a message that carries information about a
component to be redeployed ... The agents receiving this message have a
limited time to enter a bid on the component before the auction closes."

Bids are computed from each agent's *local knowledge base* (its synced
partial model), preserving DecAp's information locality.  Auctions close
with :func:`repro.algorithms.decap.settle_auction`, the rule the algorithm
uses too; ``tests/decentralized/test_decap_equivalence.py`` checks that both
reach the same decisions from the same knowledge.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.algorithms.decap import settle_auction
from repro.core.errors import AuctionError
from repro.decentralized.sync import KnowledgeBase
from repro.middleware.admin import AdminComponent, ExtensibleComponent, admin_id
from repro.middleware.events import Event
from repro.sim.clock import SimClock


def agent_id(host: str) -> str:
    """Canonical component id of the auction agent on *host*."""
    return f"agent@{host}"


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def interaction_volume(kb: KnowledgeBase, comp_a: str, comp_b: str) -> float:
    """frequency * evt_size between two components, per *kb*'s knowledge."""
    key = _pair(comp_a, comp_b)
    if not kb.knows("logical_link", key):
        return 0.0
    frequency = kb.get("logical_link", key, "frequency", 0.0)
    size = kb.get("logical_link", key, "evt_size", 1.0)
    return frequency * size


def local_components_of(kb: KnowledgeBase, host: str) -> Tuple[str, ...]:
    """Components *kb* believes are deployed on *host*."""
    out = []
    for fact in kb.facts():
        category, entity, attribute = fact.key
        if category == "deployment" and attribute == "host" \
                and fact.value == host:
            out.append(entity)
    return tuple(sorted(out))


def can_fit(kb: KnowledgeBase, host: str, component: str) -> bool:
    """Memory-constraint check against *kb*'s knowledge of *host*."""
    capacity = kb.get("host", host, "memory", float("inf"))
    used = sum(
        kb.get("component", local, "memory", 0.0)
        for local in local_components_of(kb, host)
    )
    need = kb.get("component", component, "memory", 0.0)
    return used + need <= capacity


def link_reliability(kb: KnowledgeBase, host_a: str, host_b: str) -> float:
    if host_a == host_b:
        return 1.0
    key = _pair(host_a, host_b)
    if not kb.knows("physical_link", key):
        return 0.0
    if not kb.get("physical_link", key, "connected", True):
        return 0.0
    return kb.get("physical_link", key, "reliability", 1.0)


@dataclass
class AuctionRecord:
    """Bookkeeping for one auction conducted by an agent."""

    auction_id: str
    component: str
    auctioneer: str
    invited: Tuple[str, ...]
    bids: Dict[str, float] = field(default_factory=dict)
    winner: Optional[str] = None
    moved: bool = False
    closed: bool = False


class AuctionAgentComponent(ExtensibleComponent):
    """The Decentralized Algorithm component of Figure 3, as an agent.

    Args:
        host: Host this agent lives on.
        clock: Simulation clock (for bid deadlines).
        kb: The host's knowledge base (local, partial model).
        neighbors: Awareness set — hosts whose agents hear our auctions.
        bid_timeout: Simulated seconds an auction stays open.
    """

    def __init__(self, host: str, clock: SimClock, kb: KnowledgeBase,
                 neighbors: Tuple[str, ...], bid_timeout: float = 0.5):
        super().__init__(agent_id(host))
        self.host = host
        self.clock = clock
        self.kb = kb
        self.neighbors = tuple(sorted(neighbors))
        self.bid_timeout = bid_timeout
        self._auction_counter = itertools.count(1)
        #: Our currently open auction, if any.
        self.active: Optional[AuctionRecord] = None
        #: Hosts we believe are currently auctioning.
        self.busy_neighbors: Set[str] = set()
        self.completed: List[AuctionRecord] = []
        self.bids_submitted = 0
        self.moves_won = 0

    # ------------------------------------------------------------------
    @property
    def local_admin(self) -> AdminComponent:
        return self.local_architecture.component(admin_id(self.host))

    def _send_agent(self, host: str, name: str,
                    payload: Dict[str, Any]) -> None:
        self.send(Event(name, payload, source=self.id,
                        target=agent_id(host)))

    def observe_local(self) -> None:
        """Refresh the KB's view of what is deployed here (Local Monitor)."""
        for component_id in self.local_architecture.component_ids:
            if component_id.startswith(("admin@", "agent@")):
                continue
            self.kb.observe("deployment", component_id, "host", self.host)

    # ------------------------------------------------------------------
    # Auction initiation (auctioneer role)
    # ------------------------------------------------------------------
    def local_app_components(self) -> Tuple[str, ...]:
        return tuple(
            c for c in self.local_architecture.component_ids
            if not c.startswith(("admin@", "agent@"))
        )

    def may_initiate(self) -> bool:
        return self.active is None and not self.busy_neighbors

    def try_initiate(self) -> bool:
        """Open an auction for one local component, if permitted.

        Components are auctioned round-robin (lowest id first among those
        not auctioned recently); returns True when an auction opened.
        """
        if not self.may_initiate():
            return False
        candidates = self.local_app_components()
        if not candidates:
            return False
        recently = {record.component for record in self.completed[-len(candidates):]}
        fresh = [c for c in candidates if c not in recently]
        component = (fresh or list(candidates))[0]
        return self.initiate_auction(component)

    def initiate_auction(self, component: str) -> bool:
        if not self.may_initiate():
            return False
        if component not in self.local_app_components():
            raise AuctionError(
                f"{self.id}: cannot auction non-local component {component!r}")
        reachable = [
            h for h in self.neighbors
            if h in self.connector_neighbors()
        ]
        if not reachable:
            return False
        auction_id = f"{self.host}#{next(self._auction_counter)}"
        record = AuctionRecord(auction_id, component, self.host,
                               tuple(reachable))
        self.active = record
        payload = {
            "auction_id": auction_id,
            "component": component,
            "auctioneer_host": self.host,
            "memory": self.kb.get("component", component, "memory", 0.0),
        }
        for host in reachable:
            self._send_agent(host, "admin.auction_announce", payload)
        self.clock.schedule(self.bid_timeout, self._close_auction, auction_id)
        return True

    def connector_neighbors(self) -> Tuple[str, ...]:
        dist = self.local_architecture.distribution_connector
        return dist.neighbors() if dist is not None else ()

    def _close_auction(self, auction_id: str) -> None:
        record = self.active
        if record is None or record.auction_id != auction_id:
            return
        record.closed = True
        self.active = None
        winner, final_bid, keep = self._settle(record)
        record.winner = winner
        if winner is not None and winner != self.host \
                and final_bid > keep + 1e-12:
            record.moved = True
            self.local_admin.migrate_out(record.component, winner)
            self.kb.observe("deployment", record.component, "host", winner)
        self.completed.append(record)
        result = {"auction_id": auction_id,
                  "winner": record.winner if record.moved else self.host}
        for host in record.invited:
            self._send_agent(host, "admin.auction_result", result)

    def _settle(self, record: AuctionRecord,
                ) -> Tuple[Optional[str], float, float]:
        """``(winner, best, keep)`` by :func:`settle_auction`, priced with
        this host's knowledge: the retained volume with the components
        staying here, and the link reliabilities the KB knows."""
        component = record.component
        retained = sum(
            interaction_volume(self.kb, component, other)
            for other in self.local_app_components() if other != component
        )
        return settle_auction(record.bids, retained,
                              functools.partial(link_reliability, self.kb),
                              self.host)

    # ------------------------------------------------------------------
    # Bidding (participant role)
    # ------------------------------------------------------------------
    def _compute_bid(self, component: str,
                     component_memory: float) -> Optional[float]:
        self.kb.observe("component", component, "memory", component_memory)
        if not can_fit(self.kb, self.host, component):
            return None
        return sum(
            interaction_volume(self.kb, component, local)
            for local in self.local_app_components()
        )

    # ------------------------------------------------------------------
    def handle(self, event: Event) -> None:
        if event.name == "admin.auction_announce":
            auctioneer = event.payload["auctioneer_host"]
            self.busy_neighbors.add(auctioneer)
            bid = self._compute_bid(event.payload["component"],
                                    event.payload.get("memory", 0.0))
            if bid is not None:
                self.bids_submitted += 1
                self._send_agent(auctioneer, "admin.auction_bid", {
                    "auction_id": event.payload["auction_id"],
                    "bidder_host": self.host,
                    "bid": bid,
                })
        elif event.name == "admin.auction_bid":
            record = self.active
            if record is not None \
                    and record.auction_id == event.payload["auction_id"]:
                record.bids[event.payload["bidder_host"]] = \
                    event.payload["bid"]
        elif event.name == "admin.auction_result":
            # The auctioneer is free again.
            auction_id = event.payload["auction_id"]
            auctioneer = auction_id.split("#", 1)[0]
            self.busy_neighbors.discard(auctioneer)
            winner = event.payload.get("winner")
            if winner == self.host:
                self.moves_won += 1
