"""Tests for the extension algorithms: hill-climb, annealing, genetic.

These validate the framework's algorithm-pluggability claim: three new main
bodies reuse the same Objective/ConstraintSet plug points untouched.
"""

import pytest

from repro.algorithms import (
    ExactAlgorithm, GeneticAlgorithm, HillClimbingAlgorithm,
    SimulatedAnnealingAlgorithm,
)
from repro.algorithms.base import random_valid_deployment
from repro.core import (
    AvailabilityObjective, ConstraintSet, DeploymentModel, LatencyObjective,
    MemoryConstraint,
)
from repro.core.constraints import CollocationConstraint, LocationConstraint
from repro.desi import Generator, GeneratorConfig

ALL_EXTENSIONS = [
    lambda obj, cons: HillClimbingAlgorithm(obj, cons, seed=1),
    lambda obj, cons: SimulatedAnnealingAlgorithm(obj, cons, seed=1,
                                                  steps=2000),
    lambda obj, cons: GeneticAlgorithm(obj, cons, seed=1,
                                       population_size=20, generations=20),
]


@pytest.mark.parametrize("factory", ALL_EXTENSIONS,
                         ids=["hillclimb", "annealing", "genetic"])
class TestCommonContract:
    def test_valid_and_complete(self, factory, medium_model, availability,
                                memory_constraints):
        result = factory(availability, memory_constraints).run(medium_model)
        assert result.valid
        assert set(result.deployment) == set(medium_model.component_ids)

    def test_never_worse_than_initial(self, factory, small_model,
                                      availability, memory_constraints):
        initial = availability.evaluate(small_model, small_model.deployment)
        result = factory(availability, memory_constraints).run(small_model)
        assert result.value >= initial - 1e-9

    def test_works_with_minimize_objective(self, factory, small_model,
                                           memory_constraints):
        objective = LatencyObjective()
        initial = objective.evaluate(small_model, small_model.deployment)
        result = factory(objective, memory_constraints).run(small_model)
        assert result.valid
        assert result.value <= initial + 1e-9

    def test_respects_location_pin(self, factory, small_model, availability):
        component = small_model.component_ids[0]
        host = small_model.deployment[component]
        constraints = ConstraintSet([
            MemoryConstraint(),
            LocationConstraint(component, allowed=[host]),
        ])
        result = factory(availability, constraints).run(small_model)
        assert result.deployment[component] == host

    def test_deterministic_with_seed(self, factory, small_model,
                                     availability, memory_constraints):
        first = factory(availability, memory_constraints).run(small_model)
        second = factory(availability, memory_constraints).run(small_model)
        assert first.deployment == second.deployment


class TestHillClimb:
    def test_reaches_local_optimum(self, tiny_model, availability):
        result = HillClimbingAlgorithm(availability, ConstraintSet(),
                                       seed=1).run(tiny_model)
        # For the tiny model the global optimum (all collocated) is
        # reachable by single moves from any start.
        assert result.value == pytest.approx(1.0)

    def test_starts_from_current_deployment_for_cheap_effecting(
            self, small_model, availability, memory_constraints):
        result = HillClimbingAlgorithm(availability, memory_constraints,
                                       seed=1).run(small_model)
        assert result.extra["moves_taken"] == result.moves_from_initial

    def test_max_rounds_caps_work(self, medium_model, availability,
                                  memory_constraints):
        capped = HillClimbingAlgorithm(availability, memory_constraints,
                                       seed=1, max_rounds=1).run(medium_model)
        assert capped.extra["rounds"] == 1
        assert capped.moves_from_initial <= 1


class TestAnnealing:
    def test_parameter_validation(self, availability):
        with pytest.raises(ValueError):
            SimulatedAnnealingAlgorithm(availability, cooling=0.0)
        with pytest.raises(ValueError):
            SimulatedAnnealingAlgorithm(availability, cooling=1.5)

    def test_incremental_value_tracking_is_consistent(
            self, small_model, availability, memory_constraints):
        """The incrementally-maintained best value must equal a fresh
        evaluation of the returned deployment."""
        algorithm = SimulatedAnnealingAlgorithm(
            availability, memory_constraints, seed=7, steps=3000)
        result = algorithm.run(small_model)
        assert result.value == pytest.approx(
            availability.evaluate(small_model, result.deployment))

    def test_near_optimal_on_small_model(self, small_model, availability,
                                         memory_constraints):
        exact = ExactAlgorithm(availability,
                               memory_constraints).run(small_model)
        annealed = SimulatedAnnealingAlgorithm(
            availability, memory_constraints, seed=2,
            steps=5000).run(small_model)
        assert annealed.value >= exact.value - 0.05


class TestGenetic:
    def test_parameter_validation(self, availability):
        with pytest.raises(ValueError):
            GeneticAlgorithm(availability, population_size=1)
        with pytest.raises(ValueError):
            GeneticAlgorithm(availability, population_size=5, elite=5)

    def test_selection_pressure_repairs_population(self, availability):
        """Start infeasible-heavy: the GA must still end feasible."""
        model = DeploymentModel()
        model.add_host("h0", memory=25.0)
        model.add_host("h1", memory=25.0)
        model.connect_hosts("h0", "h1", reliability=0.7)
        for index in range(4):
            model.add_component(f"c{index}", memory=10.0)
            model.deploy(f"c{index}", "h0")  # 40 > 25: invalid start
        model.connect_components("c0", "c1", frequency=3.0)
        model.connect_components("c2", "c3", frequency=3.0)
        result = GeneticAlgorithm(
            availability, ConstraintSet([MemoryConstraint()]), seed=4,
            population_size=30, generations=30).run(model)
        assert result.valid

    def test_reports_generation_metadata(self, small_model, availability,
                                         memory_constraints):
        result = GeneticAlgorithm(availability, memory_constraints, seed=1,
                                  generations=10).run(small_model)
        assert result.extra["generations"] == 10
        assert result.extra["best_violations"] == 0


class DictGeneticAlgorithm(GeneticAlgorithm):
    """The GA with id-keyed dict individuals, as it ran before individuals
    became host-index lists: the reference the list form must match."""

    def _search(self, model, initial):
        hosts = model.host_ids
        components = model.component_ids
        checker = self._checker(model)

        def fitness(individual):
            assignment = checker.cm.encode(individual)
            violations = checker.violation_count(assignment)
            value = self._evaluate_encoded(model, assignment)
            adjusted = value if self.objective.direction == "max" else -value
            return (-violations, adjusted)

        population = []
        seed_valid = random_valid_deployment(checker, self.rng)
        if seed_valid is not None:
            population.append(seed_valid)
        if (len(initial) == len(components)
                and all(h in hosts for h in initial.values())):
            population.append(dict(initial))
        while len(population) < self.population_size:
            population.append(
                {c: self.rng.choice(hosts) for c in components})
        scored = [(fitness(ind), ind) for ind in population]
        scored.sort(key=lambda pair: pair[0], reverse=True)

        def tournament_pick():
            contenders = [scored[self.rng.randrange(len(scored))]
                          for __ in range(self.tournament)]
            return max(contenders, key=lambda pair: pair[0])[1]

        for __ in range(self.generations):
            next_population = [dict(ind) for __, ind in scored[: self.elite]]
            while len(next_population) < self.population_size:
                a, b = tournament_pick(), tournament_pick()
                child = {c: (a[c] if self.rng.random() < 0.5 else b[c])
                         for c in a}
                for component in child:
                    if self.rng.random() < self.mutation_rate:
                        child[component] = self.rng.choice(hosts)
                next_population.append(child)
            scored = [(fitness(ind), ind) for ind in next_population]
            scored.sort(key=lambda pair: pair[0], reverse=True)

        best_rank, best = scored[0]
        extra = {"generations": self.generations,
                 "population_size": self.population_size,
                 "best_violations": -best_rank[0]}
        if best_rank[0] < 0:
            fallback = random_valid_deployment(checker, self.rng)
            if fallback is not None:
                return fallback, extra
        return best, extra


class TestGeneticIndexLists:
    """Host-index individuals reproduce the dict GA draw for draw: the
    seed individual keeps its placement order, ``initial`` its key order,
    and each child its first parent's order."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("objective", [AvailabilityObjective(),
                                           LatencyObjective()],
                             ids=["availability", "latency"])
    def test_matches_dict_individuals(self, seed, objective):
        model = Generator(GeneratorConfig(
            hosts=5, components=14, host_memory=(15.0, 30.0),
            memory_headroom=1.2), seed=60 + seed).generate()
        comps = model.component_ids
        constraints = ConstraintSet([
            MemoryConstraint(),
            LocationConstraint(comps[0], forbidden=[model.host_ids[0]]),
            CollocationConstraint([comps[1], comps[2]], together=True),
        ])
        # Keys out of sorted order, so the order the draws follow matters.
        initial = dict(reversed(list(model.deployment.items())))
        assert list(initial) != sorted(initial)
        runs = [cls(objective, constraints, seed=seed, population_size=12,
                    generations=15, mutation_rate=0.2).run(
                        model, initial=initial)
                for cls in (DictGeneticAlgorithm, GeneticAlgorithm)]
        expected, actual = (run.to_dict(include_timing=False) for run in runs)
        assert actual == expected
        assert list(runs[1].deployment) == list(runs[0].deployment)
