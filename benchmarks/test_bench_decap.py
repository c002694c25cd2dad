"""E5 — DecAp: decentralized availability improvement vs awareness (§5.2).

The paper's decentralized claim: the auction-based DecAp "significantly
improves the system's overall availability" using only locally-maintained
information, and (from the companion report [10]) solution quality grows
with each host's awareness of the system, approaching the centralized
algorithms at full awareness.

The bench sweeps the awareness fraction from connectivity-only to full and
compares against the initial deployment, the centralized Avala, and a
hill-climb-refined upper reference.
"""

import statistics

import pytest

from repro.algorithms import (
    AvalaAlgorithm, DecApAlgorithm, HillClimbingAlgorithm,
)
from repro.core import AvailabilityObjective, ConstraintSet, MemoryConstraint
from repro.decentralized import from_connectivity, random_awareness
from repro.desi import Generator, GeneratorConfig
from conftest import print_table


def sparse_architectures(count=4, seed=4000):
    """Sparse, unreliable networks — the decentralized habitat."""
    config = GeneratorConfig(hosts=8, components=20,
                             physical_density=0.35,
                             reliability=(0.2, 0.95),
                             host_memory=(40.0, 80.0),
                             memory_headroom=1.4)
    return Generator(config, seed=seed).generate_many(count, "sparse")


def awareness_sweep(availability, memory_constraints, models):
    """DecAp's availability on each model at each awareness step.

    Returns ``{label: [value per model]}``.  The first label,
    ``connectivity (f)``, is awareness from physical links, with ``f``
    its mean measured awareness fraction; the others are the random
    awareness fractions 0.6, 0.8 and 1.0.  There is no 0.4 step:
    connectivity alone already gives about half of full awareness on
    these architectures, so ``random_awareness(model, 0.4)`` adds at most
    one edge (on one of E5c's 32 architectures) and its row repeats the
    connectivity row.
    """
    graphs = [from_connectivity(model) for model in models]
    measured = statistics.mean(g.awareness_fraction() for g in graphs)
    steps = [(f"connectivity ({measured:.2f})",
              [graph.as_map() for graph in graphs])]
    steps += [(f"{fraction:.1f}",
               [random_awareness(model, fraction, seed=index).as_map()
                for index, model in enumerate(models)])
              for fraction in (0.6, 0.8, 1.0)]
    return {
        label: [DecApAlgorithm(availability, memory_constraints, seed=1,
                               awareness=awareness,
                               max_rounds=15).run(model).value
                for model, awareness in zip(models, maps, strict=True)]
        for label, maps in steps}


def test_e5_awareness_sweep(availability, memory_constraints, benchmark):
    models = sparse_architectures()
    sweep = {label: statistics.mean(values) for label, values in
             awareness_sweep(availability, memory_constraints,
                             models).items()}

    initial = statistics.mean(
        availability.evaluate(m, m.deployment) for m in models)
    avala = statistics.mean(
        AvalaAlgorithm(availability, memory_constraints, seed=1).run(m).value
        for m in models)
    refined = statistics.mean(
        HillClimbingAlgorithm(availability, memory_constraints,
                              seed=1).run(m).value
        for m in models)

    rows = [("initial (random)", initial)]
    rows += [(f"DecAp awareness={label}", value)
             for label, value in sweep.items()]
    rows += [("Avala (centralized)", avala),
             ("hill-climb (centralized)", refined)]
    print_table("E5: availability vs awareness "
                "(8 hosts x 20 components, sparse links, mean of 4)",
                ["configuration", "availability"], rows)

    # Shape assertions:
    # 1. DecAp improves on the initial deployment at every awareness level.
    for label, value in sweep.items():
        assert value > initial, f"awareness {label} failed to improve"
    # 2. Full awareness is at least as good as connectivity-only awareness
    #    (the first row).
    assert sweep["1.0"] >= next(iter(sweep.values())) - 0.01
    # 3. Centralized search with global knowledge is the ceiling:
    #    decentralized quality does not exceed it by more than noise.
    assert sweep["1.0"] <= max(avala, refined) + 0.05

    model = models[0]
    benchmark(lambda: DecApAlgorithm(
        availability, memory_constraints, seed=1,
        awareness=from_connectivity(model).as_map(),
        max_rounds=5).run(model))


def test_e5_decap_convergence_rounds(availability, memory_constraints,
                                     benchmark):
    """DecAp converges in a handful of system-wide auction rounds."""
    rows = []
    for model in sparse_architectures(count=3, seed=4100):
        result = DecApAlgorithm(availability, memory_constraints, seed=1,
                                max_rounds=50).run(model)
        rows.append((model.name, result.extra["rounds"],
                     result.extra["auctions"], result.extra["moves"],
                     result.value))
        assert result.extra["rounds"] < 50
    print_table("E5b: DecAp convergence",
                ["architecture", "rounds", "auctions", "moves",
                 "availability"], rows)
    model = sparse_architectures(count=1, seed=4100)[0]
    benchmark(lambda: DecApAlgorithm(
        availability, memory_constraints, seed=1,
        max_rounds=50).run(model))


def test_e5c_awareness_sweep_error_bars(availability, memory_constraints):
    """E5 over 32 architectures, with the standard error of each mean.

    Says whether E5's non-monotone step (awareness 0.8 above 1.0 on the
    4-architecture mean) is noise: the step is compared with twice the
    standard error of the paired per-architecture difference.
    """
    models = sparse_architectures(count=32)
    sweep = awareness_sweep(availability, memory_constraints, models)
    initial = [availability.evaluate(m, m.deployment) for m in models]

    def mean_se(values):
        return (statistics.mean(values),
                statistics.stdev(values) / len(values) ** 0.5)

    rows = [("initial (random)", *mean_se(initial))]
    rows += [(f"DecAp awareness={label}", *mean_se(values))
             for label, values in sweep.items()]
    step = [full - high for full, high
            in zip(sweep["1.0"], sweep["0.8"], strict=True)]
    rows.append(("step 0.8 -> 1.0 (paired)", *mean_se(step)))
    print_table("E5c: availability vs awareness "
                "(8 hosts x 20 components, sparse links, 32 architectures)",
                ["configuration", "mean", "std error"], rows)
    step_mean, step_se = mean_se(step)
    print(f"  step 0.8 -> 1.0 within two standard errors of zero: "
          f"{abs(step_mean) <= 2 * step_se}")

    # Shape: DecAp improves on the initial deployment at every awareness
    # step, and full awareness is not worse than connectivity-only.
    for label, values in sweep.items():
        assert statistics.mean(values) > statistics.mean(initial), label
    assert statistics.mean(sweep["1.0"]) >= \
        statistics.mean(next(iter(sweep.values()))) - 0.01
