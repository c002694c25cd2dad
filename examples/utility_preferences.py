#!/usr/bin/env python
"""Utility-based multi-stakeholder deployment (the §6 future work, live).

Three stakeholders judge the same crisis-response system differently:

* the **HQ analyst** wants the status picture available and fresh
  (availability-heavy, some latency);
* the **field commander** wants responsiveness on the field net
  (latency-heavy);
* the **logistics officer** worries about PDA batteries lasting the
  mission (durability).

Each stakeholder's preferences are utility curves; their mean satisfaction
becomes a single pluggable objective that the stock algorithms optimize —
"a deployment architecture that maximizes the users' overall satisfaction".

Run:  python examples/utility_preferences.py
"""

from repro.algorithms import HillClimbingAlgorithm, StochasticAlgorithm
from repro.core import (
    AvailabilityObjective, ConstraintSet, DurabilityObjective,
    LatencyObjective, MemoryConstraint, SatisfactionObjective,
    UserPreferences, UtilityFunction,
)
from repro.scenarios import CrisisConfig, build_crisis_scenario


def main() -> None:
    scenario = build_crisis_scenario(CrisisConfig(
        commanders=2, troops_per_commander=2, seed=3))
    model = scenario.model
    # Field PDAs run on batteries; HQ is mains-powered.
    for host in scenario.commanders + scenario.troops:
        model.set_host_param(host, "battery", 800.0)

    availability = AvailabilityObjective()
    latency = LatencyObjective()
    durability = DurabilityObjective()
    latency_now = latency.evaluate(model, model.deployment)

    analyst = (UserPreferences("hq-analyst")
               .add(UtilityFunction(availability,
                                    [(0.6, 0.0), (0.95, 1.0)]), weight=3.0)
               .add(UtilityFunction(latency,
                                    [(0.0, 1.0), (latency_now * 2, 0.0)]),
                    weight=1.0))
    commander = (UserPreferences("field-commander")
                 .add(UtilityFunction(latency,
                                      [(0.0, 1.0), (latency_now, 0.0)]),
                      weight=3.0)
                 .add(UtilityFunction(availability,
                                      [(0.5, 0.0), (0.9, 1.0)]), weight=1.0))
    logistics = (UserPreferences("logistics")
                 .add(UtilityFunction(durability,
                                      [(50.0, 0.0), (400.0, 1.0)])))

    users = [analyst, commander, logistics]
    objective = SatisfactionObjective(users)
    constraints = ConstraintSet([MemoryConstraint()])
    for constraint in scenario.constraints:
        constraints.add(constraint)

    def report(label, deployment):
        print(f"{label}:")
        print(f"  overall satisfaction "
              f"{objective.evaluate(model, deployment):.4f}")
        for user in users:
            print(f"    {user.name:<16s} "
                  f"{user.satisfaction(model, deployment):.4f}  "
                  f"{ {k: round(v, 3) for k, v in user.breakdown(model, deployment).items()} }")
        name, score = objective.least_satisfied(model, deployment)
        print(f"  least satisfied: {name} ({score:.4f})")

    report("initial deployment", model.deployment)

    print("\noptimizing overall satisfaction...")
    best = None
    for algorithm in (
        HillClimbingAlgorithm(objective, constraints, seed=1),
        StochasticAlgorithm(objective, constraints, seed=1, iterations=150),
    ):
        result = algorithm.run(model)
        print(f"  {result.summary_line()}")
        if best is None or result.value > best.value:
            best = result
    model.set_deployment(best.deployment)
    print()
    report(f"after {best.algorithm}", model.deployment)


if __name__ == "__main__":
    main()
