#!/usr/bin/env python
"""Quickstart: generate an architecture, improve its deployment, compare
algorithms — the 60-second tour of the public API.

Run:  python examples/quickstart.py
"""

from repro.algorithms import (
    AvalaAlgorithm, ExactAlgorithm, StochasticAlgorithm,
)
from repro.core import (
    AvailabilityObjective, ConstraintSet, LatencyObjective, MemoryConstraint,
)
from repro.core.objectives import evaluate_all
from repro.desi import DeSiModel, Generator, GeneratorConfig, GraphView


def main() -> None:
    # 1. Generate a random-but-feasible deployment architecture, the way
    #    DeSi's Generator does: 4 hosts, 10 components, tight memory.
    config = GeneratorConfig(hosts=4, components=10,
                             host_memory=(20.0, 40.0),
                             memory_headroom=1.3,
                             reliability=(0.3, 0.95))
    model = Generator(config, seed=42).generate("quickstart")
    print(f"generated: {model}")

    # 2. Score the random initial deployment.
    objective = AvailabilityObjective()
    constraints = ConstraintSet([MemoryConstraint()])
    initial = model.deployment
    print(f"initial availability: "
          f"{objective.evaluate(model, initial):.4f}")

    # 3. Run the paper's three centralized algorithms and compare.
    results = [
        algorithm.run(model) for algorithm in (
            ExactAlgorithm(objective, constraints),
            AvalaAlgorithm(objective, constraints, seed=1),
            StochasticAlgorithm(objective, constraints, seed=1,
                                iterations=50),
        )
    ]
    for result in results:
        print(f"  {result.summary_line()}")

    # 4. Adopt the optimal (exact) deployment and look at the trade-offs.
    best = results[0]
    model.set_deployment(best.deployment)
    scores = evaluate_all(
        [AvailabilityObjective(), LatencyObjective()], model,
        model.deployment)
    print(f"adopted exact deployment: {scores}")

    # 5. Render the deployment the way DeSi's graph view shows it.
    desi = DeSiModel(model)
    print()
    print(GraphView(desi).render_text())


if __name__ == "__main__":
    main()
