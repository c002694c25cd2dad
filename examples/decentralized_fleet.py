#!/usr/bin/env python
"""Decentralized sensor field: auctions instead of a master host.

A 3x3 grid of battery-powered nodes, linked only to grid neighbors, runs
sampler/aggregator/sink components.  No host has global knowledge: each
node gossips its partial model to the neighbors it is aware of, the
analyzers poll on whether to act, and components migrate via DecAp-style
auctions — all over real middleware messages.

Run:  python examples/decentralized_fleet.py
"""

from repro.core import AvailabilityObjective
from repro.decentralized import DecentralizedFramework, from_connectivity
from repro.middleware import DistributedSystem
from repro.scenarios import build_sensor_field
from repro.sim import InteractionWorkload, SimClock


def main() -> None:
    scenario = build_sensor_field(rows=3, cols=3, aggregators=3, seed=5)
    model = scenario.model
    print(f"scenario: {model}")

    clock = SimClock()
    system = DistributedSystem(model, clock, decentralized=True, seed=6)
    print(f"master host: {system.master_host} (decentralized: none)")

    # Warm up monitoring so each node's knowledge base has real data.
    system.install_monitoring(ping_interval=0.5, pings_per_round=5)
    workload = InteractionWorkload(model, clock, system.emit, seed=8).start()
    clock.run(10.0)

    awareness = from_connectivity(model)
    framework = DecentralizedFramework(
        system, AvailabilityObjective(), awareness=awareness,
        bid_timeout=0.3, availability_goal=0.99)
    print(f"awareness fraction (connectivity-derived): "
          f"{awareness.awareness_fraction():.2f}")
    print(f"initial availability: "
          f"{framework.ground_truth_availability():.4f}\n")

    for report in framework.run(6):
        print(f"  {report.summary_line()}")
    workload.stop()

    status = framework.status()
    print(f"\ntotal auctions: {status['auctions']}, "
          f"migrations won: {status['moves']}")
    print("final placement:")
    for component, host in sorted(system.actual_deployment().items()):
        print(f"  {component:<14s} -> {host}")

    # Show one node's partial world view (the Decentralized Model).
    kb = framework.synchronizer.base(model.host_ids[0])
    view = kb.materialize()
    print(f"\n{model.host_ids[0]}'s knowledge after gossip: "
          f"{len(view.host_ids)} hosts, "
          f"{len(view.component_ids)} components "
          f"(of {len(model.host_ids)}/{len(model.component_ids)} global)")


if __name__ == "__main__":
    main()
