"""Unit tests for Brick / Component / Connector / Architecture."""

import pytest

from repro.core.errors import (
    DuplicateEntityError, MiddlewareError, UnknownEntityError,
)
from repro.middleware.bricks import (
    Architecture, CallbackComponent, Component, Connector,
)
from repro.middleware.events import Event


def build_bus_architecture():
    architecture = Architecture("arch")
    bus = Connector("bus")
    architecture.add_connector(bus)
    members = {}
    for name in ("a", "b", "c"):
        component = CallbackComponent(name)
        architecture.add_component(component)
        architecture.weld(name, "bus")
        members[name] = component
    return architecture, bus, members


class TestConfiguration:
    def test_duplicate_brick_rejected(self):
        architecture = Architecture("arch")
        architecture.add_component(Component("x"))
        with pytest.raises(DuplicateEntityError):
            architecture.add_connector(Connector("x"))

    def test_weld_unknown_rejected(self):
        architecture = Architecture("arch")
        architecture.add_connector(Connector("bus"))
        with pytest.raises(UnknownEntityError):
            architecture.weld("ghost", "bus")

    def test_double_weld_rejected(self):
        architecture, __, __members = build_bus_architecture()
        with pytest.raises(DuplicateEntityError):
            architecture.weld("a", "bus")

    def test_remove_component_unwelds(self):
        architecture, bus, __ = build_bus_architecture()
        removed = architecture.remove_component("a")
        assert removed.id == "a"
        assert "a" not in bus.welded
        assert not architecture.has_component("a")
        assert removed.architecture is None

    def test_remove_connector(self):
        architecture, __, __members = build_bus_architecture()
        architecture.remove_connector("bus")
        with pytest.raises(UnknownEntityError):
            architecture.connector("bus")

    def test_empty_id_rejected(self):
        with pytest.raises(MiddlewareError):
            Component("")

    def test_describe(self):
        architecture, __, __members = build_bus_architecture()
        description = architecture.describe()
        assert description["components"] == ["a", "b", "c"]
        assert ["a", "bus"] in description["welds"]


class TestRouting:
    def test_broadcast_excludes_sender(self):
        architecture, __, members = build_bus_architecture()
        members["a"].send(Event("app.msg"))
        assert len(members["b"].received) == 1
        assert len(members["c"].received) == 1
        assert len(members["a"].received) == 0

    def test_targeted_delivery(self):
        architecture, __, members = build_bus_architecture()
        members["a"].send(Event("app.msg", target="c"))
        assert len(members["c"].received) == 1
        assert len(members["b"].received) == 0

    def test_source_stamped_automatically(self):
        architecture, __, members = build_bus_architecture()
        members["a"].send(Event("app.msg", target="b"))
        assert members["b"].received[0].source == "a"

    def test_unroutable_goes_to_dead_letters(self):
        architecture, __, members = build_bus_architecture()
        members["a"].send(Event("app.msg", target="nowhere"))
        assert len(architecture.dead_letters) == 1

    def test_unwelded_component_cannot_reach_bus_but_can_route_direct(self):
        architecture, __, members = build_bus_architecture()
        loner = CallbackComponent("loner")
        architecture.add_component(loner)  # not welded
        loner.send(Event("app.msg", target="b"))
        assert len(members["b"].received) == 1  # architecture-level routing

    def test_send_outside_architecture_rejected(self):
        with pytest.raises(MiddlewareError):
            Component("orphan").send(Event("app.msg"))

    def test_two_connectors_both_deliver(self):
        architecture = Architecture("arch")
        architecture.add_connector(Connector("bus1"))
        architecture.add_connector(Connector("bus2"))
        sender = CallbackComponent("s")
        left = CallbackComponent("left")
        right = CallbackComponent("right")
        for component in (sender, left, right):
            architecture.add_component(component)
        architecture.weld("s", "bus1")
        architecture.weld("s", "bus2")
        architecture.weld("left", "bus1")
        architecture.weld("right", "bus2")
        sender.send(Event("app.msg"))
        assert len(left.received) == 1
        assert len(right.received) == 1


class TestMonitHooks:
    def test_monitors_notified_on_send_and_deliver(self):
        architecture, __, members = build_bus_architecture()
        seen = []

        class Probe:
            def notify(self, brick, event, direction):
                seen.append((brick.id, direction))

        members["a"].attach_monitor(Probe())
        members["b"].attach_monitor(Probe())
        members["a"].send(Event("app.msg", target="b"))
        assert ("a", "send") in seen
        assert ("b", "deliver") in seen

    def test_detach_monitor(self):
        architecture, __, members = build_bus_architecture()
        seen = []

        class Probe:
            def notify(self, brick, event, direction):
                seen.append(direction)

        probe = Probe()
        members["a"].attach_monitor(probe)
        members["a"].detach_monitor(probe)
        members["a"].send(Event("app.msg", target="b"))
        assert seen == []
