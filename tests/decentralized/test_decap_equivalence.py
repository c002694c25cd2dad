"""Differential test: the model-level DecAp and the message-level auction
agents decide every auction alike when they know the same things (§5.2).

The algorithm side is :meth:`DecApAlgorithm.auction` over the model.  The
protocol side is each bidder agent's ``_compute_bid`` over its knowledge
base, then the auctioneer agent's ``_settle`` and ``_close_auction``.  The
knowledge bases are seeded from the model and synced until quiet, so every
agent knows what the model says about its neighbourhood.
"""

import pytest

from repro.algorithms import DecApAlgorithm, make_checker
from repro.core import (
    AvailabilityObjective, ConstraintSet, DeploymentModel, MemoryConstraint,
)
from repro.decentralized import DecentralizedFramework
from repro.decentralized.auction import AuctionRecord
from repro.desi import Generator, GeneratorConfig
from repro.middleware import DistributedSystem
from repro.sim import SimClock


CONFIG = GeneratorConfig(hosts=6, components=16, physical_density=0.5,
                         reliability=(0.2, 0.95), host_memory=(30.0, 60.0),
                         memory_headroom=1.2)
SEEDS = (1, 2, 3, 4)


def synced_framework(model):
    system = DistributedSystem(model, SimClock(), decentralized=True, seed=1)
    framework = DecentralizedFramework(system, AvailabilityObjective())
    framework.synchronizer.sync_until_quiet()
    return framework


def bidder_sets(neighbors):
    """The full awareness set, and each set with one bid lost."""
    yield neighbors
    if len(neighbors) > 1:
        for lost in neighbors:
            yield tuple(h for h in neighbors if h != lost)


def auctions(model):
    """Every (auctioneer, local component, bidder set) of *model*."""
    framework = synced_framework(model)
    for auctioneer, agent in sorted(framework.agents.items()):
        for component in agent.local_app_components():
            for bidders in bidder_sets(agent.neighbors):
                yield auctioneer, component, bidders


def algorithm_decision(model, auctioneer, component, bidders):
    algorithm = DecApAlgorithm(AvailabilityObjective(),
                               ConstraintSet([MemoryConstraint()]))
    checker = make_checker(model, algorithm.constraints)
    checker.reset(model.deployment)
    bids, winner, best, keep = algorithm.auction(
        model, checker, component, auctioneer, bidders)
    return bids, (winner, best, keep), best > keep + 1e-12


def protocol_decision(model, auctioneer, component, bidders):
    # A fresh system per auction: closing one migrates the component.
    agents = synced_framework(model).agents
    auctioneer_agent = agents[auctioneer]
    memory = auctioneer_agent.kb.get("component", component, "memory", 0.0)
    record = AuctionRecord(f"{auctioneer}#1", component, auctioneer,
                           tuple(bidders))
    for bidder in bidders:
        bid = agents[bidder]._compute_bid(component, memory)
        if bid is not None:
            record.bids[bidder] = bid
    settled = auctioneer_agent._settle(record)
    auctioneer_agent.active = record
    auctioneer_agent._close_auction(record.auction_id)
    return dict(record.bids), settled, record.moved


@pytest.mark.parametrize("seed", SEEDS)
def test_algorithm_and_protocol_decide_alike(seed):
    model = Generator(CONFIG, seed=seed).generate()
    decided = 0
    for auctioneer, component, bidders in auctions(model):
        expected = algorithm_decision(model, auctioneer, component, bidders)
        got = protocol_decision(model, auctioneer, component, bidders)
        assert got == expected, (auctioneer, component, bidders)
        decided += 1
    assert decided >= len(model.component_ids)


def test_the_generated_auctions_cover_moves_keeps_and_barred_bidders():
    """The models above are not degenerate: some auctions move, some keep,
    and some bidders are barred by memory."""
    verdicts = set()
    barred = 0
    for seed in SEEDS:
        model = Generator(CONFIG, seed=seed).generate()
        for auctioneer, component, bidders in auctions(model):
            bids, __, moves = algorithm_decision(model, auctioneer,
                                                 component, bidders)
            verdicts.add(moves)
            barred += len(bidders) - len(bids)
    assert verdicts == {True, False}
    assert barred > 0


def test_settlement_ignores_bid_arrival_order():
    """Bids summed in arrival order could differ in the last bit
    ((0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1); sorted order cannot."""
    model = DeploymentModel()
    for host in ("h0", "h1", "h2", "h3"):
        model.add_host(host, memory=100.0)
    for peer in ("h1", "h2", "h3"):
        model.connect_hosts("h0", peer, reliability=1.0, bandwidth=100.0)
    model.add_component("c", memory=1.0)
    model.deploy("c", "h0")
    agent = synced_framework(model).agents["h0"]
    bids = {"h1": 0.1, "h2": 0.2, "h3": 0.3}
    forward = AuctionRecord("h0#1", "c", "h0", tuple(bids), dict(bids))
    backward = AuctionRecord("h0#2", "c", "h0", tuple(bids),
                             dict(reversed(list(bids.items()))))
    assert list(backward.bids) == ["h3", "h2", "h1"]
    assert agent._settle(forward) == agent._settle(backward)

