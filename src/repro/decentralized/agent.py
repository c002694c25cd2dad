"""Per-host agents and the decentralized framework instantiation (Figure 3).

Each host runs the full stack locally: a Local Monitor (its AdminComponent's
monitors), a Decentralized Model (a :class:`~repro.decentralized.sync.KnowledgeBase`
synchronized with aware peers), a Decentralized Algorithm (the
:class:`~repro.decentralized.auction.AuctionAgentComponent`), a Decentralized
Analyzer (:class:`DecentralizedAnalyzer`, which coordinates with its remote
counterparts through voting/polling), and a Local Effector (its Admin's
migrate-out machinery).

:class:`DecentralizedFramework` drives the whole thing in rounds:

1. every host observes its local state and monitoring data into its KB;
2. KBs synchronize one (or more) awareness-hops;
3. the analyzers poll on whether to act now;
4. if so, agents run an auction wave — staggered so that "none of its
   neighboring hosts is already conducting an auction" — and winning bids
   migrate components host-to-host with no central coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import MiddlewareError
from repro.core.model import DeploymentModel
from repro.core.objectives import AvailabilityObjective, Objective
from repro.core.report import ReportBase
from repro.decentralized.auction import AuctionAgentComponent, agent_id
from repro.decentralized.awareness import AwarenessGraph, from_connectivity
from repro.decentralized.sync import KnowledgeBase, ModelSynchronizer
from repro.decentralized.voting import PollingProtocol, Voter, VotingProtocol
from repro.middleware.runtime import DistributedSystem


class DecentralizedAnalyzer(Voter):
    """One host's analyzer: judges proposals from its partial view.

    Votes/preferences are computed against the availability its local KB
    predicts — a host fully satisfied with what it can see prefers to
    defer, a host seeing degraded interactions wants a redeployment round.

    With ``preferences`` set (a :class:`~repro.core.utility.UserPreferences`),
    the host judges by *its user's satisfaction* instead of raw
    availability — §6's "modelling user preferences for multiple desired
    system characteristics in a decentralized environment".
    """

    def __init__(self, host: str, kb: KnowledgeBase,
                 objective: Optional[Objective] = None,
                 availability_goal: float = 0.95,
                 preferences: Optional[Any] = None):
        self._host = host
        self.kb = kb
        self.objective = objective if objective is not None \
            else AvailabilityObjective()
        self.availability_goal = availability_goal
        self.preferences = preferences
        self.local_estimates: List[float] = []

    @property
    def host(self) -> str:
        return self._host

    def local_estimate(self) -> float:
        """Objective value (or user satisfaction) of the deployment as this
        host's KB sees it."""
        view = self.kb.materialize()
        if not view.component_ids:
            return 1.0
        if self.preferences is not None:
            estimate = self.preferences.satisfaction(view, view.deployment)
        else:
            estimate = self.objective.evaluate(view, view.deployment)
        self.local_estimates.append(estimate)
        return estimate

    # -- Voter ---------------------------------------------------------------
    def vote(self, proposal: Mapping[str, Any]) -> bool:
        kind = proposal.get("type")
        if kind == "auction_round":
            return self.local_estimate() < self.availability_goal
        if kind == "accept_move":
            # A move that the proposer predicts improves things; accept
            # unless our view contradicts a gain.
            return proposal.get("expected_gain", 0.0) > 0.0
        return False

    def preference(self, options: Sequence[str],
                   context: Mapping[str, Any]) -> str:
        wants_action = self.local_estimate() < self.availability_goal
        for option in options:
            if wants_action and option == "redeploy_now":
                return option
            if not wants_action and option == "defer":
                return option
        return options[0]


@dataclass
class RoundReport(ReportBase):
    """What one decentralized improvement round did."""

    index: int
    time: float
    facts_synced: int
    decision: str
    auctions: int
    moves: int
    availability_before: float
    availability_after: float

    def summary_line(self) -> str:
        return (f"round {self.index} t={self.time:.1f}: {self.decision}; "
                f"{self.auctions} auctions, {self.moves} moves; "
                f"availability {self.availability_before:.4f} -> "
                f"{self.availability_after:.4f}")

    def to_dict(self, **opts: Any) -> Dict[str, Any]:
        return {
            "index": self.index,
            "time": self.time,
            "facts_synced": self.facts_synced,
            "decision": self.decision,
            "auctions": self.auctions,
            "moves": self.moves,
            "availability_before": self.availability_before,
            "availability_after": self.availability_after,
        }

    def render(self, **opts: Any) -> str:
        return self.summary_line()


class DecentralizedFramework:
    """Figure 3's instantiation over a deployer-less distributed system.

    Args:
        system: A :class:`DistributedSystem` built with
            ``decentralized=True``.
        objective: Used for ground-truth reporting and local estimates.
        awareness: Which hosts exchange knowledge/auctions; defaults to
            physical connectivity (the paper's notion).
        bid_timeout: How long auctions stay open (simulated seconds).
        sync_rounds_per_cycle: Awareness-hops of knowledge propagation per
            improvement round.
        use_polling: Coordinate the go/no-go decision by polling; set False
            to use majority voting instead (both protocols from §5.2).
        availability_goal: Per-host satisfaction threshold for analyzers.
        preferences: Optional per-host
            :class:`~repro.core.utility.UserPreferences`; a host with
            preferences judges rounds by its user's satisfaction instead of
            raw availability (§6).
    """

    def __init__(self, system: DistributedSystem,
                 objective: Optional[Objective] = None,
                 awareness: Optional[AwarenessGraph] = None,
                 bid_timeout: float = 0.5,
                 sync_rounds_per_cycle: int = 1,
                 use_polling: bool = True,
                 availability_goal: float = 0.95,
                 preferences: Optional[Mapping[str, Any]] = None):
        if not system.decentralized:
            raise MiddlewareError(
                "DecentralizedFramework requires a DistributedSystem built "
                "with decentralized=True")
        self.system = system
        self.model = system.model  # ground truth, used for reporting only
        self.clock = system.clock
        self.objective = objective if objective is not None \
            else AvailabilityObjective()
        self.awareness = awareness if awareness is not None \
            else from_connectivity(system.model)
        self.synchronizer = ModelSynchronizer(self.awareness)
        self.synchronizer.seed_from_model(system.model)
        self.bid_timeout = bid_timeout
        self.sync_rounds_per_cycle = sync_rounds_per_cycle
        self.use_polling = use_polling
        self.agents: Dict[str, AuctionAgentComponent] = {}
        self.analyzers: Dict[str, DecentralizedAnalyzer] = {}
        self.polling = PollingProtocol(self.awareness)
        self.voting = VotingProtocol(self.awareness)
        self.rounds: List[RoundReport] = []
        self.preferences = dict(preferences or {})
        self._install_agents(availability_goal)

    # ------------------------------------------------------------------
    def _install_agents(self, availability_goal: float) -> None:
        agent_locations = {
            agent_id(host): host for host in self.model.host_ids
        }
        for host in self.model.host_ids:
            kb = self.synchronizer.base(host)
            agent = AuctionAgentComponent(
                host, self.clock, kb,
                neighbors=self.awareness.aware_of(host),
                bid_timeout=self.bid_timeout)
            self.system.architecture(host).add_component(agent)
            self.agents[host] = agent
            self.analyzers[host] = DecentralizedAnalyzer(
                host, kb, self.objective, availability_goal,
                preferences=self.preferences.get(host))
        for host in self.model.host_ids:
            dist = self.system.architecture(host).distribution_connector
            dist.update_locations(agent_locations)

    # ------------------------------------------------------------------
    def _ingest_monitoring(self) -> None:
        """Local Monitor -> Decentralized Model, per host."""
        for host in self.model.host_ids:
            admin = self.system.admin(host)
            kb = self.synchronizer.base(host)
            report = admin.collect_report(reset=False)
            for peer, estimate in (report.get("reliability") or {}).items():
                key = (host, peer) if host <= peer else (peer, host)
                kb.observe("physical_link", key, "exists", True)
                kb.observe("physical_link", key, "reliability", estimate)
            for pair, rate in (report.get("evt_frequency") or {}).items():
                src, __, dst = pair.partition("|")
                key = (src, dst) if src <= dst else (dst, src)
                kb.observe("logical_link", key, "exists", True)
                # Directed rate; the undirected frequency is at least this.
                previous = kb.get("logical_link", key, "frequency", 0.0)
                kb.observe("logical_link", key, "frequency",
                           max(previous, rate))
            self.agents[host].observe_local()

    def _decide(self) -> str:
        """Poll (or vote) the analyzers on acting now."""
        initiator_host = self.model.host_ids[0]
        initiator = self.analyzers[initiator_host]
        participants = dict(self.analyzers)
        if self.use_polling:
            outcome = self.polling.conduct(
                initiator, participants, ["redeploy_now", "defer"])
            return outcome.winner
        vote = self.voting.conduct(
            initiator, participants, {"type": "auction_round"})
        return "redeploy_now" if vote.passed else "defer"

    def _auction_wave(self) -> Tuple[int, int]:
        """Stagger one initiation attempt per host; returns (auctions, moves).

        Hosts attempt in sorted order with small offsets; the busy-neighbor
        rule inside the agents serializes adjacent auctions.
        """
        before = {host: len(agent.completed)
                  for host, agent in self.agents.items()}
        offset = 0.0
        for host in self.model.host_ids:
            self.clock.schedule(offset, self.agents[host].try_initiate)
            offset += self.bid_timeout * 1.5
        # Let every auction open, close, and migrate.
        self.clock.run(offset + self.bid_timeout * 3)
        auctions = 0
        moves = 0
        for host, agent in self.agents.items():
            new_records = agent.completed[before[host]:]
            auctions += len(new_records)
            moves += sum(1 for record in new_records if record.moved)
        return auctions, moves

    # ------------------------------------------------------------------
    def improvement_round(self) -> RoundReport:
        """One full decentralized cycle: observe, sync, decide, auction."""
        index = len(self.rounds) + 1
        before = self.ground_truth_availability()
        self._ingest_monitoring()
        synced = 0
        for __ in range(self.sync_rounds_per_cycle):
            synced += self.synchronizer.sync_round()
        decision = self._decide()
        auctions = moves = 0
        if decision == "redeploy_now":
            auctions, moves = self._auction_wave()
            self._refresh_ground_truth()
        after = self.ground_truth_availability()
        report = RoundReport(index, self.clock.now, synced, decision,
                             auctions, moves, before, after)
        self.rounds.append(report)
        return report

    def run(self, rounds: int) -> List[RoundReport]:
        return [self.improvement_round() for __ in range(rounds)]

    # ------------------------------------------------------------------
    def _refresh_ground_truth(self) -> None:
        """Mirror actual (post-migration) placement into the ground-truth
        model, for honest reporting."""
        for component_id, host in self.system.actual_deployment().items():
            if self.model.has_component(component_id):
                self.model.deploy(component_id, host)

    def ground_truth_availability(self) -> float:
        self._refresh_ground_truth()
        return self.objective.evaluate(self.model, self.model.deployment)

    def status(self) -> Dict[str, Any]:
        return {
            "rounds": len(self.rounds),
            "availability": self.ground_truth_availability(),
            "awareness_fraction": self.awareness.awareness_fraction(),
            "auctions": sum(len(a.completed) for a in self.agents.values()),
            "moves": sum(
                1 for a in self.agents.values()
                for record in a.completed if record.moved),
        }
