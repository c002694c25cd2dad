"""The deployment model: hosts, components, links, and the deployment map.

Section 3.1 of the paper defines the Model component as "the representation
of the system's deployment architecture ... composed of four types of parts:
hosts, components, physical links between hosts, and logical links between
components", each with "an arbitrary set of parameters".

:class:`DeploymentModel` is that representation.  It is the single source of
truth shared by monitors (which write parameter values into it), algorithms
(which read it to search for better deployments), analyzers (which compare
algorithm results against it), and effectors (which diff its current
deployment against a target).  The model is *reactive*: registered listeners
are notified of parameter, topology, and deployment changes, which is what
DeSi's views and the decentralized model-synchronization layer hook into.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping,
    Optional, Set, Tuple,
)

from repro.core import parameters as P
from repro.core.errors import (
    DeploymentError, DuplicateEntityError, ModelError, UnknownEntityError,
)
from repro.core.parameters import ParameterBag, ParameterRegistry, standard_registry


def _pair(a: str, b: str) -> Tuple[str, str]:
    """Canonical undirected pair key."""
    return (a, b) if a <= b else (b, a)


class Host:
    """A hardware host onto which software components can be deployed."""

    def __init__(self, host_id: str, registry: ParameterRegistry):
        self.id = host_id
        self.params = ParameterBag(P.HOST, registry)

    @property
    def memory(self) -> float:
        return self.params.get("memory")

    @property
    def cpu(self) -> float:
        return self.params.get("cpu")

    def __repr__(self) -> str:
        return f"Host({self.id!r})"


class Component:
    """A software component (unit of deployment and migration)."""

    def __init__(self, component_id: str, registry: ParameterRegistry):
        self.id = component_id
        self.params = ParameterBag(P.COMPONENT, registry)

    @property
    def memory(self) -> float:
        return self.params.get("memory")

    @property
    def cpu(self) -> float:
        return self.params.get("cpu")

    def __repr__(self) -> str:
        return f"Component({self.id!r})"


class PhysicalLink:
    """An undirected network link between two hosts."""

    def __init__(self, host_a: str, host_b: str, registry: ParameterRegistry):
        self.hosts = _pair(host_a, host_b)
        self.params = ParameterBag(P.PHYSICAL_LINK, registry)

    @property
    def reliability(self) -> float:
        return self.params.get("reliability") if self.params.get("connected") else 0.0

    @property
    def bandwidth(self) -> float:
        return self.params.get("bandwidth") if self.params.get("connected") else 0.0

    @property
    def delay(self) -> float:
        return self.params.get("delay")

    def __repr__(self) -> str:
        return f"PhysicalLink({self.hosts[0]!r} <-> {self.hosts[1]!r})"


class LogicalLink:
    """An undirected interaction path between two software components."""

    def __init__(self, comp_a: str, comp_b: str, registry: ParameterRegistry):
        self.components = _pair(comp_a, comp_b)
        self.params = ParameterBag(P.LOGICAL_LINK, registry)

    @property
    def frequency(self) -> float:
        return self.params.get("frequency")

    @property
    def evt_size(self) -> float:
        return self.params.get("evt_size")

    def __repr__(self) -> str:
        return f"LogicalLink({self.components[0]!r} <-> {self.components[1]!r})"


class Deployment(Mapping[str, str]):
    """An immutable mapping of component id to host id.

    Deployments are the values algorithms search over; being immutable and
    hashable lets them be memoized, compared, and diffed safely.
    """

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: Mapping[str, str]):
        self._map: Dict[str, str] = dict(mapping)
        self._hash: Optional[int] = None

    # -- Mapping protocol ---------------------------------------------------
    def __getitem__(self, component_id: str) -> str:
        return self._map[component_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __hash__(self) -> int:
        # Order-independent XOR over item hashes.  Unlike the previous
        # frozenset-based hash this composes incrementally: :meth:`moved`
        # derives a child's hash from its parent's with two XORs, so the
        # memo-cache key costs O(1) per candidate on the search hot path
        # instead of an O(n) rehash (plus a frozenset allocation) each.
        if self._hash is None:
            value = 0
            for item in self._map.items():
                value ^= hash(item)
            self._hash = value
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Deployment):
            return self._map == other._map
        if isinstance(other, Mapping):
            return self._map == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        items = ", ".join(f"{c}->{h}" for c, h in sorted(self._map.items()))
        return f"Deployment({items})"

    # -- queries --------------------------------------------------------------
    def host_of(self, component_id: str) -> str:
        try:
            return self._map[component_id]
        except KeyError:
            raise UnknownEntityError("component", component_id) from None

    def components_on(self, host_id: str) -> Tuple[str, ...]:
        return tuple(sorted(c for c, h in self._map.items() if h == host_id))

    def hosts_used(self) -> FrozenSet[str]:
        return frozenset(self._map.values())

    # -- derivation -------------------------------------------------------------
    def moved(self, component_id: str, host_id: str) -> "Deployment":
        """A new deployment with one component reassigned.

        When this deployment's hash is already known, the child's hash is
        derived with two XORs instead of rehashed from scratch (a
        Zobrist-style incremental scheme).
        """
        old_host = self._map.get(component_id)
        if old_host is None:
            raise UnknownEntityError("component", component_id)
        new_map = dict(self._map)
        new_map[component_id] = host_id
        child = Deployment(new_map)
        if self._hash is not None:
            child._hash = (self._hash if host_id == old_host
                           else self._hash
                           ^ hash((component_id, old_host))
                           ^ hash((component_id, host_id)))
        return child

    def diff(self, target: "Deployment") -> Tuple["Move", ...]:
        """The moves required to turn this deployment into *target*.

        Components present in only one of the two deployments are ignored;
        the effector treats those as installs/uninstalls handled separately.
        """
        moves = []
        for component_id, src in sorted(self._map.items()):
            dst = target._map.get(component_id)
            if dst is not None and dst != src:
                moves.append(Move(component_id, src, dst))
        return tuple(moves)

    def as_dict(self) -> Dict[str, str]:
        return dict(self._map)


@dataclass(frozen=True)
class Move:
    """One redeployment step: move *component* from *source* to *target*."""

    component: str
    source: str
    target: str


# Listener signatures: (event_name, payload_dict)
ModelListener = Callable[[str, Dict[str, Any]], None]

# Event names fired to listeners.
HOST_ADDED = "host_added"
COMPONENT_ADDED = "component_added"
HOST_REMOVED = "host_removed"
COMPONENT_REMOVED = "component_removed"
PHYSICAL_LINK_ADDED = "physical_link_added"
LOGICAL_LINK_ADDED = "logical_link_added"
PHYSICAL_LINK_REMOVED = "physical_link_removed"
LOGICAL_LINK_REMOVED = "logical_link_removed"
PARAMETER_CHANGED = "parameter_changed"
DEPLOYMENT_CHANGED = "deployment_changed"


class DeploymentModel:
    """Mutable representation of a distributed system's deployment architecture.

    The model owns:

    * the entity sets (hosts, components) and the two link relations;
    * a :class:`~repro.core.parameters.ParameterRegistry` defining which
      parameters exist (extensible at run time);
    * the current :class:`Deployment` mapping;
    * a listener list used by views and synchronizers.

    Hard constraints on valid deployments (memory, location, collocation —
    Section 3.1, User Input) are represented by objects from
    :mod:`repro.core.constraints` stored in :attr:`constraints`.
    """

    def __init__(self, registry: Optional[ParameterRegistry] = None,
                 name: str = "system"):
        self.name = name
        self.registry = registry if registry is not None else standard_registry()
        self._hosts: Dict[str, Host] = {}
        self._components: Dict[str, Component] = {}
        self._physical_links: Dict[Tuple[str, str], PhysicalLink] = {}
        self._logical_links: Dict[Tuple[str, str], LogicalLink] = {}
        self._deployment: Dict[str, str] = {}
        self._listeners: List[ModelListener] = []
        # Hard constraints (repro.core.constraints.Constraint instances).
        self.constraints: List[Any] = []
        #: Bumped whenever the logical-interaction structure or its
        #: parameters change; the neighbor index keys its cache on it.
        self.interaction_version = 0

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener: ModelListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: ModelListener) -> None:
        self._listeners.remove(listener)

    def _fire(self, event: str, **payload: Any) -> None:
        for listener in tuple(self._listeners):
            listener(event, payload)

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_host(self, host_id: str, **params: Any) -> Host:
        if host_id in self._hosts:
            raise DuplicateEntityError("host", host_id)
        host = Host(host_id, self.registry)
        host.params.update(params)
        self._hosts[host_id] = host
        self._fire(HOST_ADDED, host=host_id)
        return host

    def add_component(self, component_id: str, **params: Any) -> Component:
        if component_id in self._components:
            raise DuplicateEntityError("component", component_id)
        component = Component(component_id, self.registry)
        component.params.update(params)
        self._components[component_id] = component
        self._fire(COMPONENT_ADDED, component=component_id)
        return component

    def remove_host(self, host_id: str) -> None:
        """Remove a host, its links, and undeploy components on it."""
        self.host(host_id)  # raises if unknown
        for key in [k for k in self._physical_links if host_id in k]:
            del self._physical_links[key]
        for component_id, deployed_on in list(self._deployment.items()):
            if deployed_on == host_id:
                del self._deployment[component_id]
        del self._hosts[host_id]
        self._fire(HOST_REMOVED, host=host_id)

    def remove_component(self, component_id: str) -> None:
        self.component(component_id)  # raises if unknown
        for key in [k for k in self._logical_links if component_id in k]:
            del self._logical_links[key]
            self.interaction_version += 1
        self._deployment.pop(component_id, None)
        del self._components[component_id]
        self._fire(COMPONENT_REMOVED, component=component_id)

    def connect_hosts(self, host_a: str, host_b: str, **params: Any) -> PhysicalLink:
        self.host(host_a)
        self.host(host_b)
        if host_a == host_b:
            raise ModelError(f"cannot link host {host_a!r} to itself")
        key = _pair(host_a, host_b)
        if key in self._physical_links:
            raise DuplicateEntityError("physical link", f"{host_a}<->{host_b}")
        link = PhysicalLink(host_a, host_b, self.registry)
        link.params.update(params)
        self._physical_links[key] = link
        self._fire(PHYSICAL_LINK_ADDED, hosts=key)
        return link

    def connect_components(self, comp_a: str, comp_b: str,
                           **params: Any) -> LogicalLink:
        self.component(comp_a)
        self.component(comp_b)
        if comp_a == comp_b:
            raise ModelError(f"cannot link component {comp_a!r} to itself")
        key = _pair(comp_a, comp_b)
        if key in self._logical_links:
            raise DuplicateEntityError("logical link", f"{comp_a}<->{comp_b}")
        link = LogicalLink(comp_a, comp_b, self.registry)
        link.params.update(params)
        self._logical_links[key] = link
        self.interaction_version += 1
        self._fire(LOGICAL_LINK_ADDED, components=key)
        return link

    def disconnect_hosts(self, host_a: str, host_b: str) -> None:
        key = _pair(host_a, host_b)
        if key not in self._physical_links:
            raise UnknownEntityError("physical link", f"{host_a}<->{host_b}")
        del self._physical_links[key]
        self._fire(PHYSICAL_LINK_REMOVED, hosts=key)

    def disconnect_components(self, comp_a: str, comp_b: str) -> None:
        key = _pair(comp_a, comp_b)
        if key not in self._logical_links:
            raise UnknownEntityError("logical link", f"{comp_a}<->{comp_b}")
        del self._logical_links[key]
        self.interaction_version += 1
        self._fire(LOGICAL_LINK_REMOVED, components=key)

    # ------------------------------------------------------------------
    # Entity access
    # ------------------------------------------------------------------
    def host(self, host_id: str) -> Host:
        try:
            return self._hosts[host_id]
        except KeyError:
            raise UnknownEntityError("host", host_id) from None

    def component(self, component_id: str) -> Component:
        try:
            return self._components[component_id]
        except KeyError:
            raise UnknownEntityError("component", component_id) from None

    def physical_link(self, host_a: str, host_b: str) -> Optional[PhysicalLink]:
        return self._physical_links.get(_pair(host_a, host_b))

    def logical_link(self, comp_a: str, comp_b: str) -> Optional[LogicalLink]:
        return self._logical_links.get(_pair(comp_a, comp_b))

    @property
    def hosts(self) -> Tuple[Host, ...]:
        return tuple(self._hosts[h] for h in sorted(self._hosts))

    @property
    def components(self) -> Tuple[Component, ...]:
        return tuple(self._components[c] for c in sorted(self._components))

    @property
    def host_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._hosts))

    @property
    def component_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._components))

    @property
    def physical_links(self) -> Tuple[PhysicalLink, ...]:
        return tuple(self._physical_links[k] for k in sorted(self._physical_links))

    @property
    def logical_links(self) -> Tuple[LogicalLink, ...]:
        return tuple(self._logical_links[k] for k in sorted(self._logical_links))

    def has_host(self, host_id: str) -> bool:
        return host_id in self._hosts

    def has_component(self, component_id: str) -> bool:
        return component_id in self._components

    # ------------------------------------------------------------------
    # Parameter mutation (fires listeners — monitors write through here)
    # ------------------------------------------------------------------
    def set_host_param(self, host_id: str, name: str, value: Any) -> None:
        old = self.host(host_id).params.get(name)
        self.host(host_id).params.set(name, value)
        self._fire(PARAMETER_CHANGED, kind=P.HOST, entity=host_id,
                   name=name, old=old, new=value)

    def set_component_param(self, component_id: str, name: str, value: Any) -> None:
        old = self.component(component_id).params.get(name)
        self.component(component_id).params.set(name, value)
        self._fire(PARAMETER_CHANGED, kind=P.COMPONENT, entity=component_id,
                   name=name, old=old, new=value)

    def set_physical_link_param(self, host_a: str, host_b: str,
                                name: str, value: Any) -> None:
        link = self.physical_link(host_a, host_b)
        if link is None:
            raise UnknownEntityError("physical link", f"{host_a}<->{host_b}")
        old = link.params.get(name)
        link.params.set(name, value)
        self._fire(PARAMETER_CHANGED, kind=P.PHYSICAL_LINK, entity=link.hosts,
                   name=name, old=old, new=value)

    def set_logical_link_param(self, comp_a: str, comp_b: str,
                               name: str, value: Any) -> None:
        link = self.logical_link(comp_a, comp_b)
        if link is None:
            raise UnknownEntityError("logical link", f"{comp_a}<->{comp_b}")
        old = link.params.get(name)
        link.params.set(name, value)
        self.interaction_version += 1
        self._fire(PARAMETER_CHANGED, kind=P.LOGICAL_LINK, entity=link.components,
                   name=name, old=old, new=value)

    # ------------------------------------------------------------------
    # Derived network / interaction queries (hot paths for algorithms)
    # ------------------------------------------------------------------
    def reliability(self, host_a: str, host_b: str) -> float:
        """Effective reliability between two hosts.

        Collocation is perfectly reliable (1.0); unlinked host pairs have
        reliability 0.0 — the definition used by the availability objective.
        """
        if host_a == host_b:
            return 1.0
        link = self.physical_link(host_a, host_b)
        return link.reliability if link is not None else 0.0

    def bandwidth(self, host_a: str, host_b: str) -> float:
        if host_a == host_b:
            return float("inf")
        link = self.physical_link(host_a, host_b)
        return link.bandwidth if link is not None else 0.0

    def delay(self, host_a: str, host_b: str) -> float:
        if host_a == host_b:
            return 0.0
        link = self.physical_link(host_a, host_b)
        return link.delay if link is not None else float("inf")

    def frequency(self, comp_a: str, comp_b: str) -> float:
        if comp_a == comp_b:
            return 0.0
        link = self.logical_link(comp_a, comp_b)
        return link.frequency if link is not None else 0.0

    def evt_size(self, comp_a: str, comp_b: str) -> float:
        link = self.logical_link(comp_a, comp_b)
        return link.evt_size if link is not None else 0.0

    def host_neighbors(self, host_id: str) -> Tuple[str, ...]:
        """Hosts directly linked to *host_id* (regardless of link state)."""
        self.host(host_id)
        out = set()
        for a, b in self._physical_links:
            if a == host_id:
                out.add(b)
            elif b == host_id:
                out.add(a)
        return tuple(sorted(out))

    def connected_neighbors(self, host_id: str) -> Tuple[str, ...]:
        """Hosts reachable over currently-up links from *host_id*."""
        return tuple(
            h for h in self.host_neighbors(host_id)
            if self.physical_link(host_id, h).params.get("connected")
        )

    def logical_neighbors(self, component_id: str) -> Tuple[str, ...]:
        """Interaction partners of *component_id*.

        Cached per :attr:`interaction_version`: this is the inner loop of
        every incremental (move_delta-based) algorithm, and a linear scan
        of the link set per call would dominate local search at scale.
        """
        self.component(component_id)
        cache = getattr(self, "_adjacency_cache", None)
        if cache is None or cache[0] != self.interaction_version:
            adjacency: Dict[str, Set[str]] = {}
            for a, b in self._logical_links:
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
            cache = (self.interaction_version,
                     {c: tuple(sorted(n)) for c, n in adjacency.items()})
            self._adjacency_cache = cache
        return cache[1].get(component_id, ())

    def total_interaction_frequency(self) -> float:
        return sum(l.frequency for l in self._logical_links.values())

    def interaction_pairs(self) -> Iterator[Tuple[str, str, LogicalLink]]:
        """All interacting component pairs with their logical link."""
        for (a, b), link in sorted(self._logical_links.items()):
            yield a, b, link

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(self, component_id: str, host_id: str) -> None:
        """Place (or move) a component onto a host in the current deployment."""
        self.component(component_id)
        self.host(host_id)
        old = self._deployment.get(component_id)
        self._deployment[component_id] = host_id
        if old != host_id:
            self._fire(DEPLOYMENT_CHANGED, component=component_id,
                       old=old, new=host_id)

    def undeploy(self, component_id: str) -> None:
        self.component(component_id)
        old = self._deployment.pop(component_id, None)
        if old is not None:
            self._fire(DEPLOYMENT_CHANGED, component=component_id,
                       old=old, new=None)

    @property
    def deployment(self) -> Deployment:
        """Snapshot of the current deployment as an immutable mapping."""
        return Deployment(self._deployment)

    def set_deployment(self, deployment: Mapping[str, str]) -> None:
        """Replace the current deployment wholesale (fires one event per move)."""
        for component_id, host_id in deployment.items():
            self.component(component_id)
            self.host(host_id)
        for component_id, host_id in sorted(deployment.items()):
            self.deploy(component_id, host_id)

    def is_fully_deployed(self) -> bool:
        return all(c in self._deployment for c in self._components)

    def validate_deployment(self, deployment: Optional[Mapping[str, str]] = None,
                            ) -> None:
        """Raise :class:`DeploymentError` unless every component is mapped
        to a known host exactly once and no unknown components appear."""
        mapping = self._deployment if deployment is None else deployment
        for component_id, host_id in mapping.items():
            if component_id not in self._components:
                raise DeploymentError(
                    f"deployment maps unknown component {component_id!r}")
            if host_id not in self._hosts:
                raise DeploymentError(
                    f"component {component_id!r} mapped to unknown host {host_id!r}")
        missing = set(self._components) - set(mapping)
        if missing:
            raise DeploymentError(
                f"components not deployed: {sorted(missing)}")

    # ------------------------------------------------------------------
    # Copies and awareness-restricted views
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "DeploymentModel":
        """Deep copy sharing nothing mutable with the original."""
        clone = DeploymentModel(self.registry.copy(), name or self.name)
        for host in self.hosts:
            clone.add_host(host.id, **host.params.explicit())
        for component in self.components:
            clone.add_component(component.id, **component.params.explicit())
        for link in self.physical_links:
            clone.connect_hosts(*link.hosts, **link.params.explicit())
        for link in self.logical_links:
            clone.connect_components(*link.components, **link.params.explicit())
        for component_id, host_id in self._deployment.items():
            clone.deploy(component_id, host_id)
        clone.constraints = list(self.constraints)
        return clone

    def restricted_to(self, host_ids: Iterable[str],
                      name: Optional[str] = None) -> "DeploymentModel":
        """A sub-model containing only *host_ids*, the components deployed on
        them, and links internal to that host set.

        This realizes the decentralized instantiation's partial knowledge:
        "if there are two hosts in the system that are not aware of each
        other, then the respective models maintained by the two hosts do
        not contain each other's system parameters" (Section 3.2).
        """
        keep_hosts: Set[str] = set(host_ids)
        unknown = keep_hosts - set(self._hosts)
        if unknown:
            raise UnknownEntityError("host", sorted(unknown)[0])
        sub = DeploymentModel(self.registry.copy(),
                              name or f"{self.name}:view")
        for host_id in sorted(keep_hosts):
            sub.add_host(host_id, **self._hosts[host_id].params.explicit())
        keep_components = {
            c for c, h in self._deployment.items() if h in keep_hosts
        }
        for component_id in sorted(keep_components):
            sub.add_component(
                component_id, **self._components[component_id].params.explicit())
        for (a, b), link in self._physical_links.items():
            if a in keep_hosts and b in keep_hosts:
                sub.connect_hosts(a, b, **link.params.explicit())
        for (a, b), link in self._logical_links.items():
            if a in keep_components and b in keep_components:
                sub.connect_components(a, b, **link.params.explicit())
        for component_id in sorted(keep_components):
            sub.deploy(component_id, self._deployment[component_id])
        return sub

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def memory_used(self, host_id: str,
                    deployment: Optional[Mapping[str, str]] = None) -> float:
        mapping = self._deployment if deployment is None else deployment
        return sum(
            self._components[c].memory
            for c, h in mapping.items()
            if h == host_id and c in self._components
        )

    def all_deployments(self) -> Iterator[Deployment]:
        """Every possible assignment of components to hosts (k^n of them).

        Used by the Exact algorithm; deliberately a generator so small
        systems can be enumerated without materializing the space.
        """
        component_ids = self.component_ids
        host_ids = self.host_ids
        for assignment in itertools.product(host_ids, repeat=len(component_ids)):
            yield Deployment(dict(zip(component_ids, assignment, strict=True)))

    def stats(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "hosts": len(self._hosts),
            "components": len(self._components),
            "physical_links": len(self._physical_links),
            "logical_links": len(self._logical_links),
            "deployed": len(self._deployment),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"DeploymentModel({s['name']!r}, hosts={s['hosts']}, "
                f"components={s['components']})")
