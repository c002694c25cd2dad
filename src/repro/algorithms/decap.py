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
over the middleware — lives in :mod:`repro.decentralized.auction`.  Both
close their auctions with :func:`settle_auction`;
``tests/decentralized/test_decap_equivalence.py`` checks that, given the
same knowledge, they reach the same decision auction by auction.

Information locality is what distinguishes DecAp from the centralized
algorithms: a bidder only knows about the components deployed on *its own*
host, and the auctioneer combines the bids only with knowledge of *its*
local components and its link qualities.  Interactions with components on
third hosts are invisible to the auction, which is exactly why DecAp's
solutions improve with greater awareness but stay below the centralized
optimum (E5's expected shape).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Set, Tuple

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


def settle_auction(bids: Mapping[str, float], retained: float,
                   reliability: Callable[[str, str], float],
                   auctioneer: str, symmetric: bool = True,
                   ) -> Tuple[Optional[str], float, float]:
    """Close one DecAp auction; the one copy of its settlement rule.

    Both :class:`DecApAlgorithm` (over the model) and the agents of
    :mod:`repro.decentralized.auction` (over their knowledge bases) call it.
    *bids* maps each bidder host to its local bid, the auctioned component's
    interaction volume with the components on that host; *retained* is its
    volume with the components staying on *auctioneer*; *reliability* gives
    a host pair's link reliability as the caller knows it.

    A final bid is the bidder's own bid (perfectly reliable once local),
    plus *retained* over the auctioneer-bidder link, plus, when *symmetric*,
    every other bid over the bidder-to-bidder link, which keeps final bids
    information-symmetric with the keep-value: *retained* plus every bid
    over the auctioneer-bidder link.  ``symmetric=False`` is the keep-biased
    naive formulation (ablation bench E11a).  Sums run in sorted bidder
    order, so bid arrival order cannot change the result.

    Returns ``(winner, best, keep)``: the first bidder in sorted order with
    the highest final bid, that bid, and the keep-value (``(None, -inf,
    retained)`` without bids).  The component moves only when
    ``best > keep + 1e-12``.
    """
    bidders = sorted(bids)
    keep = retained
    for bidder in bidders:
        keep += bids[bidder] * reliability(auctioneer, bidder)
    winner: Optional[str] = None
    best = float("-inf")
    for bidder in bidders:
        final = bids[bidder] + retained * reliability(auctioneer, bidder)
        if symmetric:
            for other in bidders:
                if other != bidder:
                    final += bids[other] * reliability(bidder, other)
        if final > best:
            winner, best = bidder, final
    return winner, best, keep


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
        symmetric_bids: :func:`settle_auction`'s ``symmetric``; ``False``
            measures the keep-biased naive final bids (ablation bench E11).
    """

    name = "decap"
    decentralized = True

    def __init__(self, objective, constraints=None, seed=None,
                 awareness: Optional[AwarenessMap] = None,
                 max_rounds: int = 10, symmetric_bids: bool = True):
        super().__init__(objective, constraints, seed)
        self.awareness = awareness
        self.max_rounds = max_rounds
        self.symmetric_bids = symmetric_bids

    # ------------------------------------------------------------------
    def auction(self, model: DeploymentModel, checker, component: str,
                auctioneer: str, bidders: Iterable[str],
                ) -> Tuple[Dict[str, float], Optional[str], float, float]:
        """One auction of *component*, held by its host *auctioneer*.

        *checker* (:func:`repro.algorithms.search.make_checker`) is bound to
        the current deployment with every component placed.  One pass over
        the component's compiled neighbours sums its interaction volume with
        each host: the auctioneer's sum is the retained volume, and each
        bidder's is its bid.  Bidders that are not hosts of *model*, or that
        the constraints bar, do not bid.  Returns ``(bids, winner, best,
        keep)``, the last three from :func:`settle_auction`.
        """
        cm = checker.cm
        ci = cm.component_index[component]
        hosts = checker.assignment
        volume = [0.0] * cm.n_hosts
        for neighbor, edge in cm.adjacency[ci]:
            volume[hosts[neighbor]] += cm.edge_volume[edge]
        bids: Dict[str, float] = {}
        for bidder in sorted(bidders):
            hi = cm.host_index.get(bidder)
            if hi is not None and checker.allows_index(ci, hi):
                bids[bidder] = volume[hi]
        winner, best, keep = settle_auction(
            bids, volume[cm.host_index[auctioneer]], model.reliability,
            auctioneer, self.symmetric_bids)
        return bids, winner, best, keep

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
                    bids, winner, best, keep = self.auction(
                        model, checker, component, auctioneer, neighbors)
                    self._count_evaluation(len(bids))
                    if best > keep + 1e-12:
                        assignment[component] = winner
                        checker.place_index(cm.component_index[component],
                                            cm.host_index[winner])
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
