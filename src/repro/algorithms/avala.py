"""Avala — the paper's greedy centralized algorithm (Section 5.1, [12]).

"Avala is a greedy algorithm that incrementally assigns software components
to the hardware hosts.  At each step of the algorithm, the goal is to select
the assignment that will maximally contribute to the objective function, by
selecting the 'best' host and 'best' software component.  Selecting the best
hardware host is performed by choosing a host with the highest sum of
network reliabilities and bandwidths with other hosts in the system, and the
highest memory capacity.  Similarly, selecting the best software component
is performed by choosing the component with the highest frequency of
interaction with other components in the system, and the lowest required
memory.  Once found, the best component is assigned to the best host, making
certain that the location and collocation constraints are satisfied.  The
algorithm proceeds with searching for the next best component among the
remaining components, until the best host is full.  Next, the algorithm
selects the best host among the remaining hosts.  This process repeats until
every component is assigned to a host.  The complexity of this algorithm is
O(n^3)."

After the first component lands on a host, "next best component" weighs
interaction with the components already placed on that host most heavily —
that is what steers chatty component clusters onto shared hosts and gives
the greedy search its availability gains.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.algorithms.base import DeploymentAlgorithm, greedy_fill_deployment
from repro.core.model import DeploymentModel


def _normalize(scores: Dict[str, float]) -> Dict[str, float]:
    """Scale a score map into [0, 1] (max-normalization; all-zero maps pass
    through unchanged)."""
    finite = [v for v in scores.values() if v != float("inf")]
    top = max(finite) if finite else 0.0
    if top <= 0.0:
        return {k: (1.0 if v == float("inf") else 0.0) for k, v in scores.items()}
    return {
        k: (1.0 if v == float("inf") else v / top) for k, v in scores.items()
    }


class AvalaAlgorithm(DeploymentAlgorithm):
    """Greedy host-by-host constructive assignment.

    Args:
        local_weight: Weight of a candidate component's interaction with
            components already on the host being filled.
        global_weight: Weight of its total interaction with all components.
        memory_weight: Penalty weight for its required memory.
    """

    name = "avala"

    def __init__(self, objective, constraints=None, seed=None,
                 local_weight: float = 1.0, global_weight: float = 0.5,
                 memory_weight: float = 0.5,
                 incremental_host_rank: bool = True):
        super().__init__(objective, constraints, seed)
        self.local_weight = local_weight
        self.global_weight = global_weight
        self.memory_weight = memory_weight
        #: Rank each next host by its links to the hosts already selected
        #: (True) rather than to the whole network (False).  The naive
        #: global ranking is kept for the ablation bench.
        self.incremental_host_rank = incremental_host_rank

    # -- ranking helpers ----------------------------------------------------
    def _host_rank(self, model: DeploymentModel) -> List[str]:
        """Hosts ordered best-first by link quality and capacity.

        The first host is the one with "the highest sum of network
        reliabilities and bandwidths with other hosts in the system, and the
        highest memory capacity" (§5.1).  Each *subsequent* host is chosen
        by the same criterion restricted to the hosts already selected:
        components spilling onto host i+1 interact mostly with components
        already placed, so what matters is the quality of the links back to
        the occupied hosts, not to the network at large.
        """
        reliability_sum: Dict[str, float] = {}
        bandwidth_sum: Dict[str, float] = {}
        memory: Dict[str, float] = {}
        for host in model.host_ids:
            reliability_sum[host] = sum(
                model.reliability(host, other)
                for other in model.host_ids if other != host)
            bandwidth_sum[host] = sum(
                bw for other in model.host_ids if other != host
                for bw in [model.bandwidth(host, other)]
                if bw != float("inf"))
            memory[host] = model.host(host).memory
        rel_n = _normalize(reliability_sum)
        bw_n = _normalize(bandwidth_sum)
        mem_n = _normalize(memory)
        max_bw = max((bandwidth_sum[h] for h in model.host_ids),
                     default=0.0)

        if not self.incremental_host_rank:
            return sorted(
                model.host_ids,
                key=lambda h: (-(rel_n[h] + bw_n[h] + mem_n[h]), h))

        remaining = list(model.host_ids)
        first = min(remaining,
                    key=lambda h: (-(rel_n[h] + bw_n[h] + mem_n[h]), h))
        order = [first]
        remaining.remove(first)
        while remaining:
            def selected_affinity(host: str) -> float:
                rel = sum(model.reliability(host, chosen)
                          for chosen in order)
                bw = sum(
                    b for chosen in order
                    for b in [model.bandwidth(host, chosen)]
                    if b != float("inf"))
                bw_term = bw / max_bw if max_bw > 0 else 0.0
                return rel / len(order) + bw_term + mem_n[host]
            best = min(remaining,
                       key=lambda h: (-selected_affinity(h), h))
            order.append(best)
            remaining.remove(best)
        return order

    def _component_scores(self, model: DeploymentModel) -> Tuple[
            Dict[str, float], Dict[str, float]]:
        """(normalized total interaction frequency, normalized memory)."""
        total_freq = {
            c: sum(model.frequency(c, other)
                   for other in model.logical_neighbors(c))
            for c in model.component_ids
        }
        memory = {c: model.component(c).memory for c in model.component_ids}
        return _normalize(total_freq), _normalize(memory)

    # -- main body ------------------------------------------------------------
    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        host_order = self._host_rank(model)
        freq_n, mem_n = self._component_scores(model)
        unassigned = set(model.component_ids)
        assignment: Dict[str, str] = {}
        checker = self._checker(model)
        checker.reset(())
        placements_considered = 0

        for host in host_order:
            if not unassigned:
                break
            # Fill this host with best components until nothing more fits.
            while unassigned:
                on_host = [c for c, h in assignment.items() if h == host]
                best_component: Optional[str] = None
                best_score = float("-inf")
                for component in sorted(unassigned):
                    if not checker.allows(component, host):
                        continue
                    placements_considered += 1
                    local = sum(model.frequency(component, placed)
                                for placed in on_host)
                    score = (self.local_weight * local
                             + self.global_weight * freq_n[component]
                             - self.memory_weight * mem_n[component])
                    if score > best_score:
                        best_score = score
                        best_component = component
                if best_component is None:
                    break  # host is full (no remaining component fits)
                assignment[best_component] = host
                checker.place(best_component, host)
                unassigned.discard(best_component)

        self._count_evaluation(placements_considered)
        extra = {
            "host_order": host_order,
            "placements_considered": placements_considered,
        }
        if unassigned:
            # Greedy stranded capacity (e.g. a large component left with
            # no single host able to take it).  Repair: rebuild with the
            # same host ranking but components placed largest-first, which
            # packs tight instances the interaction-greedy order cannot.
            cm = checker.cm
            by_memory = sorted(
                model.component_ids,
                key=lambda c: (-model.component(c).memory, c))
            repaired = greedy_fill_deployment(
                checker, [cm.host_index[h] for h in host_order],
                [cm.component_index[c] for c in by_memory])
            extra["repair_pass"] = True
            if repaired is None:
                extra["unplaced"] = sorted(unassigned)
                return None, extra
            return cm.decode(repaired), extra
        return assignment, extra
