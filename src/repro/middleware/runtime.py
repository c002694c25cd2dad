"""Assembly of a complete distributed system over the middleware.

Figure 8 of the paper shows the shape this module builds: one Prism-MW
``Architecture`` per host, application components welded to a local
connector, a ``DistributionConnector`` per host tied into the network, an
``AdminComponent`` on every slave host, and the ``DeployerComponent`` on the
master host.

:class:`DistributedSystem` constructs that shape from a
:class:`~repro.core.model.DeploymentModel` and keeps the pieces addressable
for the framework layers above (monitoring, effecting, benches).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import (
    EffectorError, MiddlewareError, MigrationTimeoutError, UnknownEntityError,
)
from repro.core.model import DeploymentModel
from repro.middleware.admin import AdminComponent, DeployerComponent, admin_id
from repro.middleware.bricks import Architecture, Component, Connector
from repro.middleware.connectors import DistributionConnector
from repro.middleware.events import Event
from repro.middleware.scaffold import SimScaffold
from repro.middleware.serialization import register_component_class
from repro.obs import Observability, get_observability, set_observability
from repro.sim.clock import SimClock
from repro.sim.network import SimulatedNetwork


@register_component_class
class AppComponent(Component):
    """Generic migratable application component.

    Sends ``app.msg`` events when the workload driver asks it to, counts
    what it receives, and carries its counters across migrations — the
    state round-trip is asserted by the migration tests.
    """

    def __init__(self, component_id: str):
        super().__init__(component_id)
        self.sent_count = 0
        self.received_count = 0

    def emit_to(self, target: str, size_kb: float) -> None:
        self.sent_count += 1
        self.send(Event("app.msg", {"seq": self.sent_count},
                        target=target, size_kb=size_kb))

    def handle(self, event: Event) -> None:
        if event.name == "app.msg":
            self.received_count += 1

    def get_state(self) -> Dict[str, Any]:
        return {"sent": self.sent_count, "received": self.received_count}

    def set_state(self, state: Dict[str, Any]) -> None:
        self.sent_count = state.get("sent", 0)
        self.received_count = state.get("received", 0)


ComponentFactory = Callable[[str], Component]


class DistributedSystem:
    """A running (simulated) distributed application plus its meta-layer.

    Args:
        model: Deployment model supplying hosts, links, components, and the
            initial deployment (which must be complete).
        clock: Simulation clock shared by every part of the substrate.
        network: Pre-built network; defaults to one mirroring the model.
        master_host: Host carrying the DeployerComponent; defaults to the
            first host id.
        component_factory: Builds the application component for each model
            component id; defaults to :class:`AppComponent`.
        decentralized: Build the Figure-3 shape instead: no master host, no
            DeployerComponent — every host gets a plain AdminComponent and
            events cannot fall back to a deployer relay.
    """

    def __init__(self, model: DeploymentModel, clock: SimClock,
                 network: Optional[SimulatedNetwork] = None,
                 master_host: Optional[str] = None,
                 component_factory: Optional[ComponentFactory] = None,
                 seed: Optional[int] = None,
                 decentralized: bool = False,
                 queue_when_disconnected: bool = False,
                 obs: Optional[Observability] = None):
        model.validate_deployment()
        self.model = model
        self.clock = clock
        self.decentralized = decentralized
        self.queue_when_disconnected = queue_when_disconnected
        self.obs = obs if obs is not None else get_observability()
        if self.obs.enabled:
            self.obs.bind_clock(clock)
        self.network = network if network is not None \
            else SimulatedNetwork.from_model(model, clock, seed=seed,
                                             obs=self.obs)
        if decentralized:
            if master_host is not None:
                raise MiddlewareError(
                    "a decentralized system has no master host")
            self.master_host = None
        else:
            self.master_host = master_host if master_host is not None \
                else model.host_ids[0]
            if self.master_host not in model.host_ids:
                raise UnknownEntityError("host", self.master_host)
        factory = component_factory if component_factory is not None \
            else AppComponent
        self.scaffold = SimScaffold(clock, obs=self.obs)
        self.architectures: Dict[str, Architecture] = {}
        self.admins: Dict[str, AdminComponent] = {}
        self.deployer: DeployerComponent = None  # set in _build
        self.emissions_skipped = 0
        #: component id -> last known host; every hit is re-validated
        #: against the architecture (components migrate), so the cache
        #: can only speed :meth:`locate` up, never make it lie.
        self._locate_cache: Dict[str, str] = {}
        # Admins (and any custom components) resolve their instruments from
        # the process default at construction; scope the injected bundle
        # over the build so injection reaches them too.
        previous = set_observability(self.obs) if self.obs.enabled else None
        try:
            self._build(factory)
        finally:
            if previous is not None:
                set_observability(previous)

    # ------------------------------------------------------------------
    def _build(self, factory: ComponentFactory) -> None:
        deployment = self.model.deployment
        deployer_admin_id = (admin_id(self.master_host)
                             if self.master_host is not None else None)
        for host in self.model.host_ids:
            architecture = Architecture(f"arch@{host}", self.scaffold)
            bus = Connector(f"bus@{host}")
            architecture.add_connector(bus)
            dist = DistributionConnector(
                f"dist@{host}", self.network, host,
                deployer_host=self.master_host,
                queue_when_disconnected=self.queue_when_disconnected,
                obs=self.obs)
            architecture.add_connector(dist)
            if host == self.master_host:
                agent: AdminComponent = DeployerComponent(
                    deployer_admin_id, host)
                self.deployer = agent  # type: ignore[assignment]
            else:
                agent = AdminComponent(admin_id(host), host,
                                       deployer_id=deployer_admin_id)
            architecture.add_component(agent)
            self.architectures[host] = architecture
            self.admins[host] = agent
        if self.deployer is None and not self.decentralized:
            raise MiddlewareError("no deployer was created")
        # Application components go to their deployed hosts.
        for component_id, host in sorted(deployment.items()):
            component = factory(component_id)
            component.migration_size_kb = max(
                self.model.component(component_id).memory, 0.1)
            architecture = self.architectures[host]
            architecture.add_component(component)
            architecture.connector(f"bus@{host}").weld(component)
        # Location tables: every host knows where everything starts, and
        # where every admin lives (admins never move).
        admin_locations = {admin_id(h): h for h in self.model.host_ids}
        for host in self.model.host_ids:
            dist = self.architectures[host].distribution_connector
            dist.update_locations(dict(deployment))
            dist.update_locations(admin_locations)
        if self.deployer is not None:
            self.deployer.register_deployment(deployment)
            for host in self.model.host_ids:
                self.deployer.register_host(host)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def architecture(self, host: str) -> Architecture:
        try:
            return self.architectures[host]
        except KeyError:
            raise UnknownEntityError("host", host) from None

    def admin(self, host: str) -> AdminComponent:
        try:
            return self.admins[host]
        except KeyError:
            raise UnknownEntityError("host", host) from None

    def component(self, component_id: str) -> Component:
        host = self.locate(component_id)
        return self.architectures[host].component(component_id)

    def locate(self, component_id: str) -> str:
        cached = self._locate_cache.get(component_id)
        if cached is not None \
                and self.architectures[cached].has_component(component_id):
            return cached
        for host, architecture in self.architectures.items():
            if architecture.has_component(component_id):
                self._locate_cache[component_id] = host
                return host
        self._locate_cache.pop(component_id, None)
        raise UnknownEntityError("component", component_id)

    def actual_deployment(self) -> Dict[str, str]:
        """Ground-truth component placement by inspecting architectures."""
        placement: Dict[str, str] = {}
        for host, architecture in self.architectures.items():
            for component_id in architecture.component_ids:
                if not component_id.startswith(("admin@", "agent@")):
                    placement[component_id] = host
        return placement

    def delivery_counts(self) -> Tuple[int, int]:
        """Ground-truth ``(sent, received)`` over every AppComponent."""
        sent = received = 0
        for architecture in self.architectures.values():
            for component in architecture.components:
                if isinstance(component, AppComponent):
                    sent += component.sent_count
                    received += component.received_count
        return sent, received

    # ------------------------------------------------------------------
    # Monitoring management
    # ------------------------------------------------------------------
    def install_monitoring(self, ping_interval: float = 1.0,
                           pings_per_round: int = 5,
                           report_interval: Optional[float] = None) -> None:
        """Attach monitors on every host; optionally start periodic
        reporting to the Deployer."""
        for host in self.model.host_ids:
            admin = self.admins[host]
            admin.install_monitors(self.clock, ping_interval, pings_per_round)
            if report_interval is not None and admin.deployer_id is not None:
                admin.start_reporting(self.clock, report_interval)

    def uninstall_monitoring(self) -> None:
        for admin in self.admins.values():
            admin.stop_reporting()
            admin.uninstall_monitors()

    # ------------------------------------------------------------------
    # Application traffic
    # ------------------------------------------------------------------
    def emit(self, source: str, target: str, size_kb: float) -> None:
        """Workload hook: make component *source* send to *target*.

        A component that is mid-migration (detached from its old host, not
        yet reconstituted on the new one) is not executing anywhere, so its
        scheduled sends simply do not happen; they are counted in
        :attr:`emissions_skipped`.
        """
        try:
            host = self.locate(source)
        except UnknownEntityError:
            self.emissions_skipped += 1
            return
        component = self.architectures[host].component(source)
        if not isinstance(component, AppComponent):
            raise MiddlewareError(
                f"component {source!r} is not an AppComponent")
        component.emit_to(target, size_kb)

    # ------------------------------------------------------------------
    # Redeployment
    # ------------------------------------------------------------------
    def redeploy(self, target: Mapping[str, str],
                 max_wait: float = 1000.0) -> Dict[str, Any]:
        """Enact *target* and run the clock until the migration completes.

        Returns effecting statistics (moves, simulated duration, network
        bytes attributable to migration).  Raises
        :class:`~repro.core.errors.EffectorError` when the redeployment does
        not converge within *max_wait* simulated seconds (e.g. a partition
        with no relay path).
        """
        if self.deployer is None:
            raise EffectorError(
                "decentralized systems have no deployer; migrations are "
                "initiated per-host via AdminComponent.migrate_out")
        start_time = self.clock.now
        kb_before = self.network.stats.kb_sent
        initiated = self.deployer.enact(target)
        deadline = start_time + max_wait
        # pending_moves is a plain dict the deployer's ack handlers empty
        # in place, so the clock can test it directly after every event.
        self.clock.run_while_pending(self.deployer.pending_moves, deadline)
        duration = self.clock.now - start_time
        if self.deployer.pending_moves:
            raise MigrationTimeoutError(
                f"redeployment did not converge within {max_wait:g} s: "
                f"pending {dict(self.deployer.pending_moves)}",
                pending=self.deployer.pending_moves)
        # Let location-update rebroadcasts settle too.
        self.scaffold.drain()
        actual = self.actual_deployment()
        for component_id, host in target.items():
            if actual.get(component_id) != host:
                raise EffectorError(
                    f"component {component_id!r} ended on "
                    f"{actual.get(component_id)!r}, wanted {host!r}")
        # Reflect the effected deployment in the model.
        for component_id, host in actual.items():
            if self.model.has_component(component_id):
                self.model.deploy(component_id, host)
        return {
            "moves": initiated,
            "sim_duration": duration,
            "kb_transferred": self.network.stats.kb_sent - kb_before,
        }

    def reset_redeployment(self, settle: float = 5.0) -> int:
        """Abandon an in-progress (failed) redeployment.

        Cancels every admin's un-acked transfers — restoring the migrants
        to their source hosts — lets control traffic settle for *settle*
        simulated seconds, then re-syncs the deployer's authoritative view
        and pending-move ledger to ground truth.  Returns the number of
        restored components.  This is the precondition for the effector's
        transactional rollback: after it, :meth:`actual_deployment` is a
        complete mapping again (no component is in limbo).
        """
        restored = 0
        for admin in self.admins.values():
            restored += admin.cancel_transfers()
            admin.awaiting.clear()
        self.scaffold.drain()
        if settle > 0:
            self.clock.run(settle)
            self.scaffold.drain()
        if self.deployer is not None:
            self.deployer.pending_moves.clear()
            self.deployer.register_deployment(self.actual_deployment())
        return restored

    def __repr__(self) -> str:
        return (f"DistributedSystem(hosts={len(self.architectures)}, "
                f"master={self.master_host!r})")
