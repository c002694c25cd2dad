"""E1 — Algorithm suite comparison (Section 5.1's three centralized
algorithms, plus the extension suite, on DeSi-generated architectures).

Reproduces the shape of the companion report's comparison table: on
exact-feasible systems, Exact finds the optimum, Avala lands close behind,
Stochastic (with modest iterations) trails, and everything beats the random
initial deployment.  On large systems Exact is inapplicable and the
approximative algorithms' ordering persists.
"""

import statistics

import pytest

from repro.algorithms import (
    AvalaAlgorithm, ExactAlgorithm, GeneticAlgorithm, HillClimbingAlgorithm,
    SimulatedAnnealingAlgorithm, StochasticAlgorithm,
)
from conftest import large_architectures, print_table, small_architectures


def run_suite(models, availability, constraints, include_exact):
    factories = {
        "initial": None,
        "stochastic": lambda: StochasticAlgorithm(
            availability, constraints, seed=1, iterations=30),
        "avala": lambda: AvalaAlgorithm(availability, constraints, seed=1),
        "hillclimb": lambda: HillClimbingAlgorithm(
            availability, constraints, seed=1),
        "annealing": lambda: SimulatedAnnealingAlgorithm(
            availability, constraints, seed=1, steps=3000),
        "genetic": lambda: GeneticAlgorithm(
            availability, constraints, seed=1, population_size=24,
            generations=25),
    }
    if include_exact:
        factories["exact"] = lambda: ExactAlgorithm(availability, constraints)
    table = {}
    for name, factory in factories.items():
        values, elapsed, moves = [], [], []
        for model in models:
            if factory is None:
                values.append(availability.evaluate(model, model.deployment))
                elapsed.append(0.0)
                moves.append(0)
                continue
            result = factory().run(model)
            assert result.valid, f"{name} invalid on {model.name}"
            values.append(result.value)
            elapsed.append(result.elapsed)
            moves.append(result.moves_from_initial)
        table[name] = {
            "availability": statistics.mean(values),
            "time_ms": statistics.mean(elapsed) * 1000.0,
            "moves": statistics.mean(moves),
        }
    return table


def test_e1_small_systems(availability, memory_constraints, benchmark):
    models = small_architectures(count=4)
    table = run_suite(models, availability, memory_constraints,
                      include_exact=True)
    print_table(
        "E1a: availability by algorithm (4 hosts x 8 components, mean of 4)",
        ["algorithm", "availability", "time (ms)", "moves"],
        [(name, row["availability"], row["time_ms"], row["moves"])
         for name, row in sorted(table.items(),
                                 key=lambda kv: -kv[1]["availability"])])
    # Paper shape: Exact optimal, Avala close, everything beats initial.
    assert table["exact"]["availability"] >= \
        table["avala"]["availability"] - 1e-9
    assert table["exact"]["availability"] >= \
        table["stochastic"]["availability"] - 1e-9
    assert table["avala"]["availability"] >= \
        table["initial"]["availability"]
    assert table["stochastic"]["availability"] >= \
        table["initial"]["availability"]
    # Avala within 10% of optimal (the companion report's headline).
    assert table["avala"]["availability"] >= \
        table["exact"]["availability"] - 0.10
    # Exact is orders of magnitude slower than the approximative suite.
    assert table["exact"]["time_ms"] > 10 * table["avala"]["time_ms"]

    benchmark(lambda: AvalaAlgorithm(availability, memory_constraints,
                                     seed=1).run(models[0]))


def test_e1_large_systems(availability, memory_constraints, benchmark):
    models = large_architectures(count=3)
    table = run_suite(models, availability, memory_constraints,
                      include_exact=False)
    print_table(
        "E1b: availability by algorithm (10 hosts x 40 components, mean of 3)",
        ["algorithm", "availability", "time (ms)", "moves"],
        [(name, row["availability"], row["time_ms"], row["moves"])
         for name, row in sorted(table.items(),
                                 key=lambda kv: -kv[1]["availability"])])
    assert table["avala"]["availability"] > table["initial"]["availability"]
    assert table["stochastic"]["availability"] > \
        table["initial"]["availability"]
    # Greedy beats blind random restarts at scale under memory pressure —
    # the Avala claim — despite stochastic spending ~6x its runtime here.
    assert table["avala"]["availability"] >= \
        table["stochastic"]["availability"]
    assert table["avala"]["time_ms"] < table["stochastic"]["time_ms"]

    benchmark(lambda: AvalaAlgorithm(availability, memory_constraints,
                                     seed=1).run(models[0]))


def test_e1_portfolio_evaluation_savings(availability, memory_constraints,
                                         benchmark):
    """E1c — the memoized portfolio engine pays for measurably fewer full
    ``Objective.evaluate`` calls than the sequential seed path.

    Three accountings of the same three-algorithm suite:

    * *logical* — evaluations the algorithms request (the seed path paid one
      full evaluation for each of these);
    * *isolated* — full evaluations with one private engine per algorithm
      (delta fast path + per-run memo, no sharing);
    * *portfolio* — full evaluations with the engines sharing one
      :class:`DeploymentCache` across the portfolio.
    """
    from repro.algorithms.engine import PortfolioRunner

    model = large_architectures(count=1)[0]
    factories = {
        "stochastic": lambda: StochasticAlgorithm(
            availability, memory_constraints, seed=1, iterations=30),
        "avala": lambda: AvalaAlgorithm(availability, memory_constraints,
                                        seed=1),
        "hillclimb": lambda: HillClimbingAlgorithm(
            availability, memory_constraints, seed=1),
    }

    isolated = {name: factory().run(model.copy())
                for name, factory in factories.items()}
    logical = sum(r.evaluations for r in isolated.values())
    isolated_full = sum(r.extra["engine"]["full_evaluations"]
                        for r in isolated.values())

    runner = PortfolioRunner()
    report = runner.run(model.copy(), factories)
    counters = report.counters()

    print_table(
        "E1c: full Objective.evaluate calls by accounting (10x40 system)",
        ["accounting", "full evaluations"],
        [("logical (seed path)", logical),
         ("isolated engines", isolated_full),
         ("shared-cache portfolio", counters["full_evaluations"])])

    assert set(report.succeeded) == set(factories)
    # Memoization + delta fast path beat the pay-full-price seed path...
    assert counters["full_evaluations"] < logical
    assert isolated_full < logical
    # ...and sharing the cache across the portfolio saves further.
    assert counters["full_evaluations"] <= isolated_full
    assert counters["cache_hits"] > 0
    # The portfolio decision is identical to the sequential seed path's.
    for name, result in isolated.items():
        assert report.outcome(name).result.value == \
            pytest.approx(result.value)

    benchmark(lambda: PortfolioRunner().run(model.copy(), factories))


def test_e1_exact_infeasible_at_scale(availability, memory_constraints,
                                      benchmark):
    """Exact aborts on large architectures — its O(k^n) guard trips."""
    from repro.core.errors import AlgorithmError
    model = large_architectures(count=1)[0]
    with pytest.raises(AlgorithmError):
        ExactAlgorithm(availability, memory_constraints).run(model)
    benchmark(lambda: StochasticAlgorithm(
        availability, memory_constraints, seed=1, iterations=5).run(model))
