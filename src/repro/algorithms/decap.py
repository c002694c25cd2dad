"""DecAp — the decentralized auction-based algorithm (Section 5.2, [10]).

"In DecAp, each Decentralized Algorithm component acts as an agent and may
conduct or participate in auctions.  Each host's agent initiates an auction
for the redeployment of its local components, assuming none of its
neighboring (i.e., connected) hosts is already conducting an auction.  The
auction initiation is done by sending to all the neighboring hosts a message
that carries information about a component to be redeployed ... The bidding
agent on a given host calculates an initial bid for the auctioned component,
by considering the frequency and volume of interaction between components on
its host and the auctioned component.  Once the auctioneer has received all
the bids, it calculates the final bid based on the received information.
The host with the highest bid is selected as the winner and the component is
redeployed to it.  The complexity of this algorithm is O(k*n^3)."

This module is the *algorithmic* DecAp: it simulates the auction rounds
directly against the model under an explicit awareness relation, so it can
be compared head-to-head with the centralized algorithms (bench E5).  The
message-level protocol — real auction events flowing between per-host agents
over the middleware — lives in :mod:`repro.decentralized.auction` and
produces the same decisions.

Information locality is what distinguishes DecAp from the centralized
algorithms: a bidder only knows about the components deployed on *its own*
host, and the auctioneer combines the bids only with knowledge of *its*
local components and its link qualities.  Interactions with components on
third hosts are invisible to the auction, which is exactly why DecAp's
solutions improve with greater awareness but stay below the centralized
optimum (E5's expected shape).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.algorithms.base import DeploymentAlgorithm
from repro.core.model import DeploymentModel


AwarenessMap = Dict[str, Set[str]]


def connectivity_awareness(model: DeploymentModel) -> AwarenessMap:
    """Awareness induced by direct, currently-connected physical links.

    This is the paper's default: each host synchronizes "with the remote
    hosts of which it is aware (i.e., to which it is directly connected)".
    """
    return {
        host: set(model.connected_neighbors(host))
        for host in model.host_ids
    }


class DecApAlgorithm(DeploymentAlgorithm):
    """Auction-based decentralized redeployment.

    Args:
        objective: Used for final scoring/reporting only — the auction's
            bids are availability-shaped by construction, matching DecAp's
            original target of "significantly improving the system's
            overall availability".
        awareness: Per-host sets of hosts whose agents can hear its
            auctions.  ``None`` derives awareness from physical
            connectivity.
        max_rounds: Upper bound on system-wide auction rounds.
    """

    name = "decap"
    decentralized = True

    def __init__(self, objective, constraints=None, seed=None,
                 awareness: Optional[AwarenessMap] = None,
                 max_rounds: int = 10, symmetric_bids: bool = True):
        super().__init__(objective, constraints, seed)
        self.awareness = awareness
        self.max_rounds = max_rounds
        #: Include bidder-to-bidder link terms in final bids so keep/move
        #: comparisons are information-symmetric.  Disable to measure the
        #: keep-biased naive formulation (ablation bench E11).
        self.symmetric_bids = symmetric_bids

    # ------------------------------------------------------------------
    def _local_bid(self, model: DeploymentModel, assignment: Mapping[str, str],
                   component: str, bidder: str) -> float:
        """The bidder's initial bid: interaction volume between *component*
        and the components currently deployed on *bidder*'s host.

        Uses ``frequency * evt_size`` — "the frequency and volume of
        interaction" — which becomes fully local (perfectly reliable) if the
        bidder wins.
        """
        bid = 0.0
        for other, host in assignment.items():
            if host == bidder and other != component:
                link = model.logical_link(component, other)
                if link is not None:
                    bid += link.frequency * link.evt_size
        return bid

    def _final_bid(self, model: DeploymentModel, assignment: Mapping[str, str],
                   component: str, auctioneer: str, bidder: str,
                   bids: Mapping[str, float]) -> float:
        """Auctioneer's final bid for placing the component on *bidder*.

        Combines three terms computable from the auction's information set:
        the bidder's own (now-local, perfectly reliable) interaction volume;
        traffic with components staying on the auctioneer's host, riding the
        auctioneer-bidder link; and traffic with the *other* bidders'
        components, riding the bidder-to-bidder links whose qualities the
        bidders piggyback on their bid messages.  This keeps the final bid
        information-symmetric with :meth:`_keep_value`, so comparisons are
        unbiased.
        """
        retained = 0.0
        for other, host in assignment.items():
            if host == auctioneer and other != component:
                link = model.logical_link(component, other)
                if link is not None:
                    retained += link.frequency * link.evt_size
        value = bids[bidder] \
            + retained * model.reliability(auctioneer, bidder)
        if self.symmetric_bids:
            for other_bidder, other_bid in bids.items():
                if other_bidder != bidder:
                    value += other_bid * model.reliability(bidder,
                                                           other_bidder)
        return value

    def _keep_value(self, model: DeploymentModel,
                    assignment: Mapping[str, str], component: str,
                    auctioneer: str, bids: Mapping[str, float]) -> float:
        """Value of leaving the component where it is, computed from the
        same information set the auction gathered: local interactions stay
        perfect, each bidder's reported local interaction volume rides the
        auctioneer-bidder link."""
        value = 0.0
        for other, host in assignment.items():
            if host == auctioneer and other != component:
                link = model.logical_link(component, other)
                if link is not None:
                    value += link.frequency * link.evt_size
        for bidder, local_bid in bids.items():
            value += local_bid * model.reliability(auctioneer, bidder)
        return value

    # ------------------------------------------------------------------
    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        awareness = (self.awareness if self.awareness is not None
                     else connectivity_awareness(model))
        assignment: Dict[str, str] = dict(initial)
        checker = self._checker(model)
        checker.reset(assignment)
        cm = checker.cm
        # DecAp improves an existing deployment; components not yet deployed
        # start on an arbitrary allowed host.
        for ci, component in enumerate(cm.component_ids):
            if component not in assignment:
                for hi, host in enumerate(cm.host_ids):
                    if checker.allows_index(ci, hi):
                        assignment[component] = host
                        checker.place_index(ci, hi)
                        break
        if len(assignment) < len(model.component_ids):
            return None, {"reason": "could not seed initial deployment"}

        total_auctions = 0
        total_moves = 0
        rounds_run = 0
        dry_rounds = 0
        for rounds_run in range(1, self.max_rounds + 1):
            moves_this_round = 0
            # "assuming none of its neighboring hosts is already conducting
            # an auction": hosts auction in rounds; within a round a host is
            # skipped if a neighbor already auctioned this round.  The order
            # rotates each round so every host — not just one fixed maximal
            # independent set — eventually gets to auction.
            rotation = rounds_run % max(len(model.host_ids), 1)
            host_order = (model.host_ids[rotation:]
                          + model.host_ids[:rotation])
            auctioned_this_round: Set[str] = set()
            for auctioneer in host_order:
                neighbors = awareness.get(auctioneer, set())
                if neighbors & auctioned_this_round:
                    continue
                auctioned_this_round.add(auctioneer)
                local_components = [
                    c for c, h in assignment.items() if h == auctioneer
                ]
                for component in local_components:
                    total_auctions += 1
                    ci = cm.component_index[component]
                    bids: Dict[str, float] = {}
                    for bidder in sorted(neighbors):
                        if not model.has_host(bidder):
                            continue
                        if not checker.allows_index(ci,
                                                    cm.host_index[bidder]):
                            continue  # bidder cannot take the component
                        bids[bidder] = self._local_bid(
                            model, assignment, component, bidder)
                    if not bids:
                        continue
                    final_bids = {
                        bidder: self._final_bid(
                            model, assignment, component, auctioneer,
                            bidder, bids)
                        for bidder in bids
                    }
                    self._count_evaluation(len(final_bids))
                    keep = self._keep_value(model, assignment, component,
                                            auctioneer, bids)
                    winner = max(sorted(final_bids), key=final_bids.get)
                    if final_bids[winner] > keep + 1e-12:
                        assignment[component] = winner
                        checker.place_index(ci, cm.host_index[winner])
                        moves_this_round += 1
            total_moves += moves_this_round
            if moves_this_round == 0:
                dry_rounds += 1
                # Converged only once several consecutive rotations found no
                # beneficial trade (one dry round may just mean the rotation
                # gave the turn to already-settled hosts).
                if dry_rounds >= 3:
                    break
            else:
                dry_rounds = 0

        extra = {
            "rounds": rounds_run,
            "auctions": total_auctions,
            "moves": total_moves,
            "awareness_degree": (
                sum(len(v) for v in awareness.values()) / max(len(awareness), 1)),
        }
        return assignment, extra
