"""Genetic algorithm over deployments (framework-extension algorithm).

Figure 7's methodology explicitly lists "genetic algorithm" as a candidate
main body.  The chromosome is the deployment itself, held as the host
index of every component; crossover is uniform per-component; mutation
reassigns a component to a random host.  Constraint handling is by
penalty: infeasible individuals are dominated by any feasible one, so
selection pressure repairs the population.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.algorithms.base import DeploymentAlgorithm, random_valid_deployment
from repro.core.model import DeploymentModel

#: ``(order, hosts)``: the component indices in the order the individual's
#: RNG draws follow, and the host index of every component.
Individual = Tuple[Tuple[int, ...], List[int]]


class GeneticAlgorithm(DeploymentAlgorithm):
    """Tournament-selection GA with elitism.

    Args:
        population_size: Individuals per generation.
        generations: Number of generations to evolve.
        mutation_rate: Per-component probability of random reassignment.
        tournament: Tournament size for parent selection.
        elite: Individuals copied unchanged into the next generation.
    """

    name = "genetic"

    def __init__(self, objective, constraints=None, seed=None,
                 population_size: int = 30, generations: int = 40,
                 mutation_rate: float = 0.05, tournament: int = 3,
                 elite: int = 2):
        super().__init__(objective, constraints, seed)
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if elite >= population_size:
            raise ValueError("elite must be smaller than population_size")
        self.population_size = population_size
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.tournament = tournament
        self.elite = elite

    # -- fitness -------------------------------------------------------------
    def _fitness(self, model: DeploymentModel, hosts: List[int],
                 checker: Any) -> Tuple[int, float]:
        """(feasibility rank, direction-adjusted value); higher is fitter.

        Feasible individuals rank above all infeasible ones; among
        infeasible ones, fewer violations is fitter.  The checker is not
        rebound to count the violations of *hosts*.
        """
        violations = checker.violation_count(hosts)
        value = self._evaluate_encoded(model, hosts)
        adjusted = value if self.objective.direction == "max" else -value
        return (-violations, adjusted)

    # -- variation ----------------------------------------------------------
    def _crossover(self, a: Individual, b: Individual) -> Individual:
        """Uniform crossover, drawing in *a*'s component order."""
        order, child, other = a[0], list(a[1]), b[1]
        random = self.rng.random
        for component in order:
            if random() >= 0.5:
                child[component] = other[component]
        return order, child

    def _mutate(self, individual: Individual, host_range: range) -> None:
        order, hosts = individual
        random, choice = self.rng.random, self.rng.choice
        for component in order:
            if random() < self.mutation_rate:
                hosts[component] = choice(host_range)

    # -- main body ------------------------------------------------------------
    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        checker = self._checker(model)
        cm = checker.cm
        host_range = range(cm.n_hosts)
        natural = tuple(range(cm.n_components))

        def from_mapping(mapping: Mapping[str, str]) -> Individual:
            return (tuple(cm.component_index[c] for c in mapping),
                    cm.encode(mapping))

        # An individual's component order is the key order its mapping
        # had: it fixes the order of the RNG draws made over it.
        population: List[Individual] = []
        seed_valid = random_valid_deployment(checker, self.rng)
        if seed_valid is not None:
            population.append(from_mapping(seed_valid))
        if (initial.keys() == set(cm.component_ids)
                and all(h in cm.host_index for h in initial.values())):
            population.append(from_mapping(initial))
        choice = self.rng.choice
        while len(population) < self.population_size:
            population.append((natural, [choice(host_range)
                                         for __ in natural]))

        scored = [(self._fitness(model, ind[1], checker), ind)
                  for ind in population]
        scored.sort(key=lambda pair: pair[0], reverse=True)

        def tournament_pick() -> Individual:
            contenders = [scored[self.rng.randrange(len(scored))]
                          for __ in range(self.tournament)]
            return max(contenders, key=lambda pair: pair[0])[1]

        for __ in range(self.generations):
            # Elites are never mutated, so they carry over uncopied.
            next_population: List[Individual] = [
                ind for __, ind in scored[: self.elite]]
            while len(next_population) < self.population_size:
                child = self._crossover(tournament_pick(), tournament_pick())
                self._mutate(child, host_range)
                next_population.append(child)
            scored = [(self._fitness(model, ind[1], checker), ind)
                      for ind in next_population]
            scored.sort(key=lambda pair: pair[0], reverse=True)

        best_rank, (order, hosts) = scored[0]
        extra = {
            "generations": self.generations,
            "population_size": self.population_size,
            "best_violations": -best_rank[0],
        }
        if best_rank[0] < 0:
            # Never found a feasible individual; fall back to any valid
            # random deployment so the caller gets a usable answer if one
            # exists at all.
            fallback = random_valid_deployment(checker, self.rng)
            if fallback is not None:
                return fallback, extra
        return {cm.component_ids[c]: cm.host_ids[hosts[c]]
                for c in order}, extra
