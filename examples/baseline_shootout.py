#!/usr/bin/env python
"""Baseline shootout: the framework's algorithms vs the related work.

Pits the paper's pluggable algorithm suite against the two Section-2
baselines on their home turf and away from it:

* Coign-style min-cut on the two-host client-server app it was built for;
* I5-style BIP on small systems, where it is optimal for communication
  volume but blind to availability;
* and shows both baselines failing structurally where the framework's
  algorithms keep working (more hosts, different objectives).

Run:  python examples/baseline_shootout.py
"""

from repro.algorithms import (
    AvalaAlgorithm, BIPAlgorithm, ExactAlgorithm, MinCutAlgorithm,
)
from repro.core import (
    AvailabilityObjective, ConstraintSet, MemoryConstraint,
)
from repro.core.constraints import LocationConstraint
from repro.core.errors import AlgorithmError
from repro.core.objectives import CommunicationCostObjective
from repro.desi import Generator, GeneratorConfig
from repro.scenarios import build_client_server


def main() -> None:
    # -- Round 1: Coign's home turf -----------------------------------------
    scenario = build_client_server(middle_components=8, seed=33)
    pins = ConstraintSet([c for c in scenario.constraints
                          if isinstance(c, LocationConstraint)])
    comm = CommunicationCostObjective()
    print("Round 1 - two-host client/server, minimize remote traffic:")
    initial = comm.evaluate(scenario.model, scenario.model.deployment)
    print(f"  initial remote volume: {initial:.1f} KB/s")
    for algorithm in (MinCutAlgorithm(pins), BIPAlgorithm(pins),
                      ExactAlgorithm(comm, pins)):
        result = algorithm.run(scenario.model)
        print(f"  {result.summary_line()}")

    # -- Round 2: availability, where single-criterion baselines lose -------
    print("\nRound 2 - availability on a small system:")
    model = Generator(GeneratorConfig(
        hosts=4, components=8, host_memory=(10.0, 25.0),
        memory_headroom=1.2, reliability=(0.2, 0.95)), seed=34).generate()
    availability = AvailabilityObjective()
    constraints = ConstraintSet([MemoryConstraint()])
    bip = BIPAlgorithm(constraints).run(model)
    print(f"  BIP (optimal for volume): availability of its solution = "
          f"{availability.evaluate(model, bip.deployment):.4f}")
    exact = ExactAlgorithm(availability, constraints).run(model)
    print(f"  Exact (availability objective): {exact.value:.4f}")
    avala = AvalaAlgorithm(availability, constraints, seed=1).run(model)
    print(f"  Avala (availability objective): {avala.value:.4f}")

    # -- Round 3: structural limits ------------------------------------------
    print("\nRound 3 - structural limits of the baselines:")
    three_host = Generator(GeneratorConfig(hosts=3, components=6),
                           seed=35).generate()
    try:
        MinCutAlgorithm(ConstraintSet()).run(three_host)
    except AlgorithmError as error:
        print(f"  mincut on 3 hosts: {error}")
    big = Generator(GeneratorConfig(hosts=6, components=40),
                    seed=36).generate()
    try:
        BIPAlgorithm(ConstraintSet(), max_space=1e6).run(big)
    except AlgorithmError as error:
        print(f"  BIP on 6x40: {error}")
    result = AvalaAlgorithm(availability,
                            ConstraintSet([MemoryConstraint()]),
                            seed=1).run(big)
    print(f"  Avala on the same 6x40 system: {result.summary_line()}")


if __name__ == "__main__":
    main()
