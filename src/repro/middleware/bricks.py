"""Architectural building blocks — Prism-MW's Brick class family.

"Brick is an abstract class that encapsulates common features of its
subclasses (Architecture, Component, and Connector).  The Architecture class
records the configuration of its components and connectors, and provides
facilities for their addition, removal, and reconnection, possibly at system
run-time.  A distributed application is implemented as a set of interacting
Architecture objects ... Components in an architecture communicate by
exchanging Events, which are routed by Connectors." (Section 4.2)

One :class:`Architecture` corresponds to one address space (one simulated
host).  Cross-architecture traffic flows exclusively through a
:class:`~repro.middleware.connectors.DistributionConnector`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import DuplicateEntityError, MiddlewareError, UnknownEntityError
from repro.middleware.events import Event
from repro.middleware.scaffold import ImmediateScaffold, Scaffold


class Brick:
    """Common base of Component, Connector, and Architecture.

    A brick has an identity, a scaffold (assigned when it joins an
    architecture) and a set of attached monitors probing its behavior.

    The class family carries ``__slots__``: bricks and events are the
    bulk of hot-path allocations in message-heavy campaigns, and fixed
    slots shave both per-instance memory and attribute-lookup time.
    Subclasses that declare no ``__slots__`` of their own (application
    components, the admin/deployer family) transparently regain a
    ``__dict__`` and are unaffected.
    """

    __slots__ = ("id", "scaffold", "monitors", "architecture")

    def __init__(self, brick_id: str):
        if not brick_id:
            raise MiddlewareError("brick id must be non-empty")
        self.id = brick_id
        self.scaffold: Scaffold = ImmediateScaffold()
        self.monitors: List[Any] = []
        self.architecture: Optional["Architecture"] = None

    # -- monitoring (IScaffold's self-awareness hook) -----------------------
    def attach_monitor(self, monitor: Any) -> None:
        self.monitors.append(monitor)
        started = getattr(monitor, "attached", None)
        if callable(started):
            started(self)

    def detach_monitor(self, monitor: Any) -> None:
        self.monitors.remove(monitor)

    def notify_monitors(self, event: Event, direction: str) -> None:
        for monitor in self.monitors:
            monitor.notify(self, event, direction)

    # -- behavior -------------------------------------------------------------
    def handle(self, event: Event) -> None:  # pragma: no cover - abstract-ish
        """React to a delivered event; default drops it."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.id!r})"


class Component(Brick):
    """An application-level component.

    Subclasses override :meth:`handle`.  Sending goes through every
    connector the component is welded to; the architecture's connectors
    take care of local vs. remote routing.

    Components that migrate between hosts implement
    ``get_state``/``set_state`` and are registered with
    :func:`repro.middleware.serialization.register_component_class`.
    ``migration_size_kb`` models how much data a migration transfers.
    """

    __slots__ = ("migration_size_kb",)

    def __init__(self, component_id: str):
        super().__init__(component_id)
        self.migration_size_kb: float = 1.0

    # -- communication --------------------------------------------------------
    def send(self, event: Event) -> None:
        """Emit *event* into the architecture via welded connectors."""
        if self.architecture is None:
            raise MiddlewareError(
                f"component {self.id!r} is not part of an architecture")
        if event.source is None:
            event.source = self.id
        # Inlined notify_monitors: one call per emitted event.
        monitors = self.monitors
        if monitors:
            for monitor in monitors:
                monitor.notify(self, event, "send")
        self.architecture.route_from(self, event)

    # -- migration state ----------------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        """Serializable state for migration; stateless by default."""
        return {}

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore state after migration; no-op by default."""


class CallbackComponent(Component):
    """Convenience component delegating to a callable (tests, examples)."""

    __slots__ = ("on_event", "received")

    def __init__(self, component_id: str,
                 on_event: Optional[Callable[["CallbackComponent", Event], None]] = None):
        super().__init__(component_id)
        self.on_event = on_event
        self.received: List[Event] = []

    def handle(self, event: Event) -> None:
        self.received.append(event)
        if self.on_event is not None:
            self.on_event(self, event)


class Connector(Brick):
    """Routes events between the components welded to it.

    Targeted events go to the named component if it is welded here; when the
    target is not welded (e.g. it lives on another host) the connector hands
    the event back to the architecture, which forwards it through the
    distribution connector if one exists.  Untargeted events broadcast to
    every welded component except the sender.
    """

    __slots__ = ("welded",)

    def __init__(self, connector_id: str):
        super().__init__(connector_id)
        self.welded: Dict[str, Brick] = {}

    def weld(self, brick: Brick) -> None:
        if brick.id in self.welded:
            raise DuplicateEntityError("weld", f"{brick.id}@{self.id}")
        self.welded[brick.id] = brick
        arch = self.architecture
        if arch is not None:
            arch._route_cache.clear()

    def unweld(self, brick_id: str) -> None:
        if brick_id not in self.welded:
            raise UnknownEntityError("weld", f"{brick_id}@{self.id}")
        del self.welded[brick_id]
        arch = self.architecture
        if arch is not None:
            arch._route_cache.clear()

    def handle(self, event: Event) -> None:
        if event.target is not None:
            local = self.welded.get(event.target)
            if local is not None:
                self.scaffold.dispatch(local, event)
            elif self.architecture is not None:
                self.architecture.forward_remote(event, origin=self)
            return
        for brick_id, brick in sorted(self.welded.items()):
            if brick_id != event.source:
                self.scaffold.dispatch(brick, event)


class Architecture(Brick):
    """One address space's configuration of components and connectors.

    Records configuration, supports run-time addition/removal/reconnection,
    and owns the scaffold every member brick dispatches through.
    """

    __slots__ = ("_components", "_connectors", "dead_letters",
                 "_distribution", "_route_cache")

    def __init__(self, architecture_id: str,
                 scaffold: Optional[Scaffold] = None):
        super().__init__(architecture_id)
        self.scaffold = scaffold if scaffold is not None else ImmediateScaffold()
        self._components: Dict[str, Component] = {}
        self._connectors: Dict[str, Connector] = {}
        #: Events that could not be routed anywhere (diagnosis aid).
        self.dead_letters: List[Event] = []
        #: The distribution connector, if one has been added.
        self._distribution: Optional[Connector] = None
        #: sender id -> connectors welded to it, in connector-insertion
        #: order (the scan order of the uncached loop).  Cleared by any
        #: weld/unweld and any connector addition/removal.
        self._route_cache: Dict[str, Tuple[Connector, ...]] = {}

    # -- configuration -------------------------------------------------------
    def add_component(self, component: Component) -> Component:
        if component.id in self._components or component.id in self._connectors:
            raise DuplicateEntityError("brick", component.id)
        component.architecture = self
        component.scaffold = self.scaffold
        self._components[component.id] = component
        return component

    def add_connector(self, connector: Connector) -> Connector:
        if connector.id in self._components or connector.id in self._connectors:
            raise DuplicateEntityError("brick", connector.id)
        connector.architecture = self
        connector.scaffold = self.scaffold
        self._connectors[connector.id] = connector
        self._route_cache.clear()
        # Duck-typed: the DistributionConnector subclass marks itself.
        if getattr(connector, "is_distribution", False):
            if self._distribution is not None:
                raise MiddlewareError(
                    f"architecture {self.id!r} already has a distribution "
                    "connector")
            self._distribution = connector
        return connector

    def remove_component(self, component_id: str) -> Component:
        """Detach a component from all connectors and drop it.

        This is the first half of a migration: the returned component is
        then serialized and shipped.
        """
        component = self.component(component_id)
        for connector in self._connectors.values():
            if component_id in connector.welded:
                connector.unweld(component_id)
        component.architecture = None
        del self._components[component_id]
        return component

    def remove_connector(self, connector_id: str) -> Connector:
        connector = self.connector(connector_id)
        if connector is self._distribution:
            self._distribution = None
        connector.architecture = None
        del self._connectors[connector_id]
        self._route_cache.clear()
        return connector

    def weld(self, component_id: str, connector_id: str) -> None:
        self.connector(connector_id).weld(self.component(component_id))

    def unweld(self, component_id: str, connector_id: str) -> None:
        self.connector(connector_id).unweld(component_id)

    # -- lookup ----------------------------------------------------------------
    def component(self, component_id: str) -> Component:
        try:
            return self._components[component_id]
        except KeyError:
            raise UnknownEntityError("component", component_id) from None

    def connector(self, connector_id: str) -> Connector:
        try:
            return self._connectors[connector_id]
        except KeyError:
            raise UnknownEntityError("connector", connector_id) from None

    def has_component(self, component_id: str) -> bool:
        return component_id in self._components

    @property
    def components(self) -> Tuple[Component, ...]:
        return tuple(self._components[c] for c in sorted(self._components))

    @property
    def connectors(self) -> Tuple[Connector, ...]:
        return tuple(self._connectors[c] for c in sorted(self._connectors))

    @property
    def component_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._components))

    @property
    def distribution_connector(self) -> Optional[Connector]:
        return self._distribution

    # -- routing ----------------------------------------------------------------
    def route_from(self, sender: Component, event: Event) -> None:
        """Route an event just emitted by a local component."""
        sender_id = sender.id
        connectors = self._route_cache.get(sender_id)
        if connectors is None:
            connectors = tuple(
                connector for connector in self._connectors.values()
                if sender_id in connector.welded)
            self._route_cache[sender_id] = connectors
        if connectors:
            dispatch = self.scaffold.dispatch
            for connector in connectors:
                dispatch(connector, event)
        else:
            # Unwelded sender: fall back to direct local delivery or the
            # distribution connector, so meta-components (Admins) that are
            # deliberately not welded into the application topology can
            # still communicate.
            self.route(event)

    def route(self, event: Event) -> None:
        """Route an event originating at the architecture level."""
        if event.target is not None and event.target in self._components:
            self.scaffold.dispatch(self._components[event.target], event)
            return
        if self._distribution is not None:
            self.scaffold.dispatch(self._distribution, event)
            return
        self.dead_letters.append(event)

    def forward_remote(self, event: Event, origin: Optional[Connector] = None,
                       ) -> None:
        """A connector could not deliver *event* locally; try off-host."""
        if self._distribution is not None and self._distribution is not origin:
            self.scaffold.dispatch(self._distribution, event)
        else:
            self.dead_letters.append(event)

    def deliver_local(self, event: Event) -> None:
        """Deliver an event known to target a local component."""
        component = self.component(event.target)
        self.scaffold.dispatch(component, event)

    def handle(self, event: Event) -> None:
        """Events sent *to* the architecture are routed like local sends."""
        self.route(event)

    def describe(self) -> Dict[str, Any]:
        """Structural snapshot (used by Admin's configuration reports)."""
        return {
            "architecture": self.id,
            "components": list(self.component_ids),
            "connectors": sorted(self._connectors),
            # Two-item lists, not tuples: the event size walk prices
            # JSON-native values only.
            "welds": [list(weld) for weld in sorted(
                (component_id, connector.id)
                for connector in self._connectors.values()
                for component_id in connector.welded
            )],
        }
