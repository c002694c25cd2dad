"""Tests for the Admin/Deployer migration protocol (Section 4.3)."""

import json

import pytest

from repro.core import DeploymentModel
from repro.core.errors import MigrationError
from repro.middleware import AppComponent, DistributedSystem
from repro.middleware.admin import admin_id
from repro.middleware.events import _json_size_fast
from repro.sim import SimClock


def build_system(n_hosts=3, connected=True, master="h0", seed=2):
    model = DeploymentModel()
    hosts = [f"h{i}" for i in range(n_hosts)]
    for host in hosts:
        model.add_host(host, memory=500.0)
    if connected:
        for i in range(n_hosts):
            for j in range(i + 1, n_hosts):
                model.connect_hosts(hosts[i], hosts[j], reliability=1.0,
                                    bandwidth=100.0, delay=0.01)
    for index in range(4):
        model.add_component(f"c{index}", memory=20.0)
        model.deploy(f"c{index}", hosts[index % n_hosts])
    model.connect_components("c0", "c1", frequency=2.0)
    model.connect_components("c2", "c3", frequency=2.0)
    clock = SimClock()
    system = DistributedSystem(model, clock, master_host=master, seed=seed)
    return model, clock, system


class TestMigrationProtocol:
    def test_single_move_between_slaves(self):
        model, clock, system = build_system()
        target = dict(model.deployment)
        target["c1"] = "h2"
        stats = system.redeploy(target)
        assert stats["moves"] == 1
        assert system.actual_deployment() == target

    def test_state_travels_with_component(self):
        model, clock, system = build_system()
        component = system.component("c1")
        component.sent_count = 99
        component.received_count = 7
        target = dict(model.deployment)
        target["c1"] = "h2"
        system.redeploy(target)
        migrated = system.component("c1")
        assert migrated is not component  # reconstituted object
        assert migrated.sent_count == 99
        assert migrated.received_count == 7

    def test_move_to_master(self):
        model, clock, system = build_system()
        target = {c: "h0" for c in model.component_ids}
        system.redeploy(target)
        assert set(system.actual_deployment().values()) == {"h0"}

    def test_move_from_master(self):
        model, clock, system = build_system()
        target = {c: "h1" for c in model.component_ids}
        system.redeploy(target)
        assert set(system.actual_deployment().values()) == {"h1"}

    def test_migration_transfer_size_scales_with_component(self):
        model, clock, system = build_system()
        small_target = dict(model.deployment)
        small_target["c0"] = "h1"
        kb_small = system.redeploy(small_target)["kb_transferred"]
        # Make c1 huge and move it.
        system.component("c1").migration_size_kb = 500.0
        big_target = dict(system.actual_deployment())
        big_target["c1"] = "h2"
        kb_big = system.redeploy(big_target)["kb_transferred"]
        assert kb_big > kb_small + 400.0

    def test_location_tables_converge_after_move(self):
        model, clock, system = build_system()
        target = dict(model.deployment)
        target["c1"] = "h2"
        system.redeploy(target)
        clock.run(1.0)
        for host in model.host_ids:
            dist = system.architecture(host).distribution_connector
            assert dist.lookup("c1") == "h2"

    def test_deployer_view_tracks_moves(self):
        model, clock, system = build_system()
        target = dict(model.deployment)
        target["c0"] = "h2"
        system.redeploy(target)
        assert system.deployer.deployment_view["c0"] == "h2"
        assert system.deployer.redeployment_complete

    def test_admin_components_cannot_migrate(self):
        model, clock, system = build_system()
        admin = system.admin("h1")
        with pytest.raises(MigrationError):
            admin.migrate_out(admin_id("h1"), "h2")

    def test_mediated_transfer_between_unlinked_hosts(self):
        """§4.3: unconnected devices exchange components via the Deployer."""
        model = DeploymentModel()
        for host in ("hq", "a", "b"):
            model.add_host(host, memory=100.0)
        model.connect_hosts("hq", "a", reliability=1.0, bandwidth=100.0,
                            delay=0.01)
        model.connect_hosts("hq", "b", reliability=1.0, bandwidth=100.0,
                            delay=0.01)
        model.add_component("x", memory=10.0)
        model.deploy("x", "a")
        clock = SimClock()
        system = DistributedSystem(model, clock, master_host="hq", seed=1)
        system.redeploy({"x": "b"})
        assert system.actual_deployment() == {"x": "b"}

    def test_traffic_during_migration_is_buffered_not_lost(self):
        """Events addressed to an in-flight component arrive after it lands."""
        model, clock, system = build_system()
        target = dict(model.deployment)
        target["c1"] = "h2"
        # Slow the c1 transfer down so there is a real in-flight window.
        system.component("c1").migration_size_kb = 200.0
        received_before = system.component("c1").received_count
        # Initiate the redeployment by hand so we can inject traffic
        # mid-flight.
        system.deployer.enact(target)
        clock.run(0.005)  # request is traveling; c1 now detached
        system.emit("c0", "c1", 1.0)  # c0 talks to the migrating c1
        clock.run(30.0)
        assert system.actual_deployment()["c1"] == "h2"
        assert system.component("c1").received_count >= received_before + 1


class TestMonitoringReports:
    def test_reports_flow_to_deployer(self):
        model, clock, system = build_system()
        system.install_monitoring(ping_interval=0.5, report_interval=2.0)
        clock.run(10.0)
        assert set(system.deployer.reports) == {"h1", "h2"}
        report = system.deployer.reports["h1"]
        assert "reliability" in report
        assert report["host"] == "h1"

    def test_on_report_callback(self):
        model, clock, system = build_system()
        seen = []
        system.deployer.on_report = lambda host, report: seen.append(host)
        system.install_monitoring(report_interval=2.0)
        clock.run(5.0)
        assert "h1" in seen and "h2" in seen

    def test_report_includes_configuration(self):
        model, clock, system = build_system()
        report = system.admin("h1").collect_report()
        assert "c1" in report["configuration"]["components"]

    def test_report_is_priced_by_the_size_walk(self):
        model, clock, system = build_system()
        system.install_monitoring(ping_interval=0.5, report_interval=2.0)
        system.emit("c0", "c1", 1.0)
        clock.run(5.0)
        report = system.admin("h1").collect_report()
        assert report["configuration"]["welds"]
        assert _json_size_fast(report) == len(json.dumps(report))

    def test_reports_update_deployer_view(self):
        model, clock, system = build_system()
        system.deployer.deployment_view.clear()
        system.install_monitoring(report_interval=2.0)
        clock.run(5.0)
        assert system.deployer.deployment_view.get("c1") == "h1"

    def test_uninstall_stops_reports(self):
        model, clock, system = build_system()
        system.install_monitoring(report_interval=2.0)
        clock.run(5.0)
        count = sum(a.reports_sent for a in system.admins.values())
        system.uninstall_monitoring()
        clock.run(10.0)
        assert sum(a.reports_sent for a in system.admins.values()) == count
