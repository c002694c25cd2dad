"""Decentralized model synchronization.

Section 3.2: "Each host has a Decentralized Model that contains some subset
of the system's overall model, populated by the data received from the Local
Monitor and the Decentralized Model of the hosts to which this host is
connected.  Therefore, if there are two hosts in the system that are not
aware of (i.e., connected to) each other, then the respective models
maintained by the two hosts do not contain each other's system parameters."

Knowledge is a set of versioned *facts* — "host h exists with memory M",
"component c is deployed on h", "link (a,b) has reliability r".  Each host
owns a :class:`KnowledgeBase`; a fact it observes locally is stamped with
its own monotonically increasing version, and merging keeps the
highest-version value per fact.  One :meth:`ModelSynchronizer.sync_round`
exchanges knowledge across every awareness edge, so information spreads one
awareness-hop per round — full propagation takes diameter-many rounds, which
is exactly the locality the decentralized algorithms must live with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.core import parameters as P
from repro.core.model import DeploymentModel
from repro.decentralized.awareness import AwarenessGraph

# Fact key: (category, entity, attribute)
#   ("host", "h1", "memory")            -> 64.0
#   ("host", "h1", "exists")            -> True
#   ("component", "c2", "memory")       -> 8.0
#   ("physical_link", ("a","b"), "reliability") -> 0.9
#   ("logical_link", ("c1","c2"), "frequency")  -> 3.5
#   ("deployment", "c2", "host")        -> "h1"
FactKey = Tuple[str, Any, str]


@dataclass(frozen=True)
class Fact:
    """A versioned observation.  Higher (version, origin) wins on merge;
    the origin tie-break keeps concurrent observations deterministic."""

    key: FactKey
    value: Any
    version: int
    origin: str

    def beats(self, other: "Fact") -> bool:
        return (self.version, self.origin) > (other.version, other.origin)


class KnowledgeBase:
    """One host's (partial, versioned) view of the system."""

    def __init__(self, owner: str):
        self.owner = owner
        self._facts: Dict[FactKey, Fact] = {}
        self._counter = 0
        self.facts_adopted = 0

    # ------------------------------------------------------------------
    def observe(self, category: str, entity: Any, attribute: str,
                value: Any) -> Fact:
        """Record a locally observed fact with a fresh version.

        Re-observing the value already known returns the existing fact
        unversioned: a fresh version would make every peer adopt the
        same value again, so gossip would never go quiet.
        """
        key = (category, entity, attribute)
        known = self._facts.get(key)
        if known is not None and known.value == value:
            return known
        self._counter += 1
        fact = Fact(key, value, self._counter, self.owner)
        self._facts[key] = fact
        return fact

    def get(self, category: str, entity: Any, attribute: str,
            default: Any = None) -> Any:
        fact = self._facts.get((category, entity, attribute))
        return fact.value if fact is not None else default

    def knows(self, category: str, entity: Any,
              attribute: str = "exists") -> bool:
        return (category, entity, attribute) in self._facts

    def facts(self) -> Tuple[Fact, ...]:
        return tuple(self._facts[k] for k in sorted(self._facts, key=repr))

    def __len__(self) -> int:
        return len(self._facts)

    # ------------------------------------------------------------------
    def merge_from(self, other: "KnowledgeBase") -> int:
        """Adopt every fact of *other* that beats (or is new to) ours.

        Also advances our version counter past anything adopted, so
        subsequent local observations supersede merged data.
        """
        adopted = 0
        for key, fact in other._facts.items():
            mine = self._facts.get(key)
            if mine is None or fact.beats(mine):
                self._facts[key] = fact
                adopted += 1
                if fact.version > self._counter:
                    self._counter = fact.version
        self.facts_adopted += adopted
        return adopted

    # ------------------------------------------------------------------
    # Bridges to/from DeploymentModel
    # ------------------------------------------------------------------
    def observe_model(self, model: DeploymentModel,
                      hosts: Optional[Iterable[str]] = None) -> None:
        """Ingest (a slice of) a ground-truth model as local observations.

        With ``hosts`` given, only those hosts, the components deployed on
        them, links touching them, and logical links among the ingested
        components are observed — a host's genuinely local knowledge.
        """
        keep = set(hosts) if hosts is not None else set(model.host_ids)
        deployment = model.deployment
        for host_id in sorted(keep):
            host = model.host(host_id)
            self.observe("host", host_id, "exists", True)
            for name, value in host.params.explicit().items():
                self.observe("host", host_id, name, value)
        local_components = {
            c for c in deployment if deployment[c] in keep
        }
        for component_id in sorted(local_components):
            component = model.component(component_id)
            self.observe("component", component_id, "exists", True)
            for name, value in component.params.explicit().items():
                self.observe("component", component_id, name, value)
            self.observe("deployment", component_id, "host",
                         deployment[component_id])
        for link in model.physical_links:
            if link.hosts[0] in keep or link.hosts[1] in keep:
                # We can see the link, though the far host's own parameters
                # may remain unknown.
                for end in link.hosts:
                    self.observe("host", end, "exists", True)
                self.observe("physical_link", link.hosts, "exists", True)
                for name, value in link.params.explicit().items():
                    self.observe("physical_link", link.hosts, name, value)
        for link in model.logical_links:
            a, b = link.components
            if a in local_components or b in local_components:
                for end in link.components:
                    self.observe("component", end, "exists", True)
                self.observe("logical_link", link.components, "exists", True)
                for name, value in link.params.explicit().items():
                    self.observe("logical_link", link.components, name, value)

    def materialize(self, name: Optional[str] = None) -> DeploymentModel:
        """Build a DeploymentModel from current knowledge.

        Entities referenced by links/deployment but never described get
        default parameters — knowing *of* a host is weaker than knowing its
        properties, and the materialized model reflects that honestly.
        """
        model = DeploymentModel(name=name or f"view:{self.owner}")
        # Collect entities by scanning facts once.
        host_ids = set()
        component_ids = set()
        physical = set()
        logical = set()
        for (category, entity, __attr) in self._facts:
            if category == "host":
                host_ids.add(entity)
            elif category == "component":
                component_ids.add(entity)
            elif category == "physical_link":
                physical.add(entity)
            elif category == "logical_link":
                logical.add(entity)
            elif category == "deployment":
                component_ids.add(entity)
        for host_id in sorted(host_ids):
            model.add_host(host_id)
            for (category, entity, attr), fact in self._facts.items():
                if category == "host" and entity == host_id \
                        and attr != "exists":
                    model.set_host_param(host_id, attr, fact.value)
        for component_id in sorted(component_ids):
            model.add_component(component_id)
            for (category, entity, attr), fact in self._facts.items():
                if category == "component" and entity == component_id \
                        and attr != "exists":
                    model.set_component_param(component_id, attr, fact.value)
        for pair in sorted(physical):
            if all(model.has_host(h) for h in pair):
                model.connect_hosts(*pair)
                for (category, entity, attr), fact in self._facts.items():
                    if category == "physical_link" and entity == pair \
                            and attr != "exists":
                        model.set_physical_link_param(*pair, attr, fact.value)
        for pair in sorted(logical):
            if all(model.has_component(c) for c in pair):
                model.connect_components(*pair)
                for (category, entity, attr), fact in self._facts.items():
                    if category == "logical_link" and entity == pair \
                            and attr != "exists":
                        model.set_logical_link_param(*pair, attr, fact.value)
        for (category, entity, attr), fact in self._facts.items():
            if category == "deployment" and attr == "host":
                if model.has_component(entity) and model.has_host(fact.value):
                    model.deploy(entity, fact.value)
        return model


class ModelSynchronizer:
    """Pairwise knowledge exchange over an awareness graph.

    "The Decentralized Model on each host synchronizes its local model with
    the remote hosts of which it is aware ... by sending streams of data
    whenever the model is modified" (Section 5.2).  We batch the streams
    into explicit rounds for determinism; a round is both directions of
    every awareness edge.
    """

    def __init__(self, awareness: AwarenessGraph):
        self.awareness = awareness
        self.bases: Dict[str, KnowledgeBase] = {
            host: KnowledgeBase(host) for host in awareness.hosts
        }
        self.rounds = 0

    def base(self, host: str) -> KnowledgeBase:
        return self.bases[host]

    def seed_from_model(self, model: DeploymentModel) -> None:
        """Give each host its genuinely-local slice of ground truth."""
        for host in self.awareness.hosts:
            self.bases[host].observe_model(model, hosts=[host])

    def sync_round(self) -> int:
        """One bidirectional exchange across every awareness edge; returns
        total facts adopted anywhere (0 = converged)."""
        adopted = 0
        for a, b in self.awareness.edges():
            adopted += self.bases[a].merge_from(self.bases[b])
            adopted += self.bases[b].merge_from(self.bases[a])
        self.rounds += 1
        return adopted

    def sync_until_quiet(self, max_rounds: int = 100) -> int:
        """Run rounds until no new facts move; returns rounds used."""
        for round_index in range(1, max_rounds + 1):
            if self.sync_round() == 0:
                return round_index
        return max_rounds
