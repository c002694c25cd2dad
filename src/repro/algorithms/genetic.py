"""Genetic algorithm over deployments (framework-extension algorithm).

Figure 7's methodology explicitly lists "genetic algorithm" as a candidate
main body.  The chromosome is the deployment itself (component -> host map);
crossover is uniform per-component; mutation reassigns a component to a
random host.  Constraint handling is by penalty: infeasible individuals are
dominated by any feasible one, so selection pressure repairs the population.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.algorithms.base import DeploymentAlgorithm, random_valid_deployment
from repro.core.model import DeploymentModel


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
    def _fitness(self, model: DeploymentModel, individual: Dict[str, str],
                 checker: Any) -> Tuple[int, float]:
        """(feasibility rank, direction-adjusted value); higher is fitter.

        Feasible individuals rank above all infeasible ones; among
        infeasible ones, fewer violations is fitter.  The individual is
        encoded once: the checker counts the violations of, and the engine
        scores, the same host-index list; the checker is not rebound.
        """
        assignment = checker.cm.encode(individual)
        violations = checker.violation_count(assignment)
        value = self._evaluate_encoded(model, assignment)
        adjusted = value if self.objective.direction == "max" else -value
        return (-violations, adjusted)

    # -- variation ----------------------------------------------------------
    def _crossover(self, a: Dict[str, str], b: Dict[str, str],
                   ) -> Dict[str, str]:
        return {c: (a[c] if self.rng.random() < 0.5 else b[c]) for c in a}

    def _mutate(self, individual: Dict[str, str],
                hosts: Tuple[str, ...]) -> None:
        for component in individual:
            if self.rng.random() < self.mutation_rate:
                individual[component] = self.rng.choice(hosts)

    # -- main body ------------------------------------------------------------
    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        hosts = model.host_ids
        components = model.component_ids
        checker = self._checker(model)

        population: List[Dict[str, str]] = []
        seed_valid = random_valid_deployment(checker, self.rng)
        if seed_valid is not None:
            population.append(seed_valid)
        if (len(initial) == len(components)
                and all(h in hosts for h in initial.values())):
            population.append(dict(initial))
        while len(population) < self.population_size:
            population.append(
                {c: self.rng.choice(hosts) for c in components})

        scored = [(self._fitness(model, ind, checker), ind)
                  for ind in population]
        scored.sort(key=lambda pair: pair[0], reverse=True)

        def tournament_pick() -> Dict[str, str]:
            contenders = [scored[self.rng.randrange(len(scored))]
                          for __ in range(self.tournament)]
            return max(contenders, key=lambda pair: pair[0])[1]

        for __ in range(self.generations):
            next_population: List[Dict[str, str]] = [
                dict(ind) for __, ind in scored[: self.elite]
            ]
            while len(next_population) < self.population_size:
                child = self._crossover(tournament_pick(), tournament_pick())
                self._mutate(child, hosts)
                next_population.append(child)
            scored = [(self._fitness(model, ind, checker), ind)
                      for ind in next_population]
            scored.sort(key=lambda pair: pair[0], reverse=True)

        best_rank, best = scored[0]
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
        return best, extra
