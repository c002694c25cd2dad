#!/usr/bin/env python
"""Crisis response: the paper's Section-1 scenario, end to end.

Headquarters, commander PDAs, and troop PDAs run a live (simulated)
distributed application over Prism-MW-style middleware.  The centralized
framework monitors it, and when a commander's uplink degrades mid-mission,
redeploys components to restore availability — while the architect's
constraints (the status display stays at HQ, coordinators stay in the
field) hold throughout.

Run:  python examples/crisis_response.py
"""

from repro.core import AvailabilityObjective, LatencyObjective
from repro.core.framework import CentralizedFramework
from repro.middleware import DistributedSystem
from repro.scenarios import CrisisConfig, build_crisis_scenario
from repro.sim import InteractionWorkload, SimClock, StepChange


def main() -> None:
    scenario = build_crisis_scenario(CrisisConfig(
        commanders=2, troops_per_commander=3, seed=7))
    model = scenario.model
    print(f"scenario: {model}")
    print(f"  hq={scenario.hq} commanders={scenario.commanders} "
          f"troops={len(scenario.troops)}")

    clock = SimClock()
    system = DistributedSystem(model, clock, master_host=scenario.hq,
                               seed=11)
    framework = CentralizedFramework(
        system, AvailabilityObjective(), scenario.constraints,
        latency_guard=LatencyObjective(),
        user_input=scenario.user_input,
        monitor_interval=2.0, seed=13)
    workload = InteractionWorkload(model, clock, system.emit, seed=17)

    # The incident: commander 0's HQ uplink degrades badly at t=40.
    StepChange(system.network, scenario.hq, scenario.commanders[0],
               at=40.0, attribute="reliability", value=0.25).start()

    print(f"\nt=0    modeled availability "
          f"{framework.modeled_availability():.4f}")
    framework.start(cycles_per_analysis=2)
    workload.start()
    for checkpoint in (20.0, 40.0, 60.0, 80.0):
        clock.run(checkpoint - clock.now)
        print(f"t={checkpoint:<5.0f}modeled availability "
              f"{framework.modeled_availability():.4f}   "
              f"delivery ratio {framework.app_delivery_ratio():.4f}")
    framework.stop()
    workload.stop()

    print("\nimprovement cycles:")
    for cycle in framework.cycles:
        print(f"  {cycle.summary_line()}")

    print("\nfinal placement:")
    for component, host in sorted(system.actual_deployment().items()):
        print(f"  {component:<16s} -> {host}")
    print("\narchitect constraints held:")
    print(f"  status_display on hq: "
          f"{model.deployment['status_display'] == scenario.hq}")
    print(f"  coordinators off hq:  "
          f"{all(model.deployment[f'coordinator{i}'] != scenario.hq for i in range(2))}")


if __name__ == "__main__":
    main()
