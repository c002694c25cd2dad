"""Unit tests for the deployment model."""

import pytest

from repro.core.errors import (
    DeploymentError, DuplicateEntityError, ModelError, UnknownEntityError,
)
from repro.core.model import (
    DEPLOYMENT_CHANGED, Deployment, DeploymentModel, HOST_ADDED, Move,
    PARAMETER_CHANGED,
)


class TestTopology:
    def test_add_host_and_component(self):
        model = DeploymentModel()
        model.add_host("h1", memory=32.0)
        model.add_component("c1", memory=4.0)
        assert model.host("h1").memory == 32.0
        assert model.component("c1").memory == 4.0

    def test_duplicate_host_rejected(self):
        model = DeploymentModel()
        model.add_host("h1")
        with pytest.raises(DuplicateEntityError):
            model.add_host("h1")

    def test_duplicate_component_rejected(self):
        model = DeploymentModel()
        model.add_component("c1")
        with pytest.raises(DuplicateEntityError):
            model.add_component("c1")

    def test_unknown_host_raises(self):
        model = DeploymentModel()
        with pytest.raises(UnknownEntityError):
            model.host("nope")

    def test_self_link_rejected(self):
        model = DeploymentModel()
        model.add_host("h1")
        with pytest.raises(ModelError, match="itself"):
            model.connect_hosts("h1", "h1")

    def test_link_requires_existing_hosts(self):
        model = DeploymentModel()
        model.add_host("h1")
        with pytest.raises(UnknownEntityError):
            model.connect_hosts("h1", "h2")

    def test_physical_link_is_undirected(self):
        model = DeploymentModel()
        model.add_host("h1")
        model.add_host("h2")
        link = model.connect_hosts("h1", "h2", reliability=0.7)
        assert model.physical_link("h2", "h1") is link

    def test_duplicate_link_rejected_either_direction(self):
        model = DeploymentModel()
        model.add_host("h1")
        model.add_host("h2")
        model.connect_hosts("h1", "h2")
        with pytest.raises(DuplicateEntityError):
            model.connect_hosts("h2", "h1")

    def test_remove_host_cascades(self):
        model = DeploymentModel()
        model.add_host("h1")
        model.add_host("h2")
        model.connect_hosts("h1", "h2")
        model.add_component("c1")
        model.deploy("c1", "h1")
        model.remove_host("h1")
        assert not model.has_host("h1")
        assert model.physical_link("h1", "h2") is None
        assert "c1" not in model.deployment

    def test_remove_component_cascades(self):
        model = DeploymentModel()
        model.add_component("c1")
        model.add_component("c2")
        model.connect_components("c1", "c2")
        model.remove_component("c1")
        assert model.logical_link("c1", "c2") is None

    def test_neighbors(self, tiny_model):
        assert tiny_model.host_neighbors("hA") == ("hB",)
        assert tiny_model.logical_neighbors("c2") == ("c1", "c3")

    def test_connected_neighbors_excludes_down_links(self, tiny_model):
        tiny_model.set_physical_link_param("hA", "hB", "connected", False)
        assert tiny_model.connected_neighbors("hA") == ()


class TestDerivedQueries:
    def test_reliability_same_host_is_one(self, tiny_model):
        assert tiny_model.reliability("hA", "hA") == 1.0

    def test_reliability_linked(self, tiny_model):
        assert tiny_model.reliability("hA", "hB") == 0.5

    def test_reliability_unlinked_is_zero(self):
        model = DeploymentModel()
        model.add_host("h1")
        model.add_host("h2")
        assert model.reliability("h1", "h2") == 0.0

    def test_reliability_down_link_is_zero(self, tiny_model):
        tiny_model.set_physical_link_param("hA", "hB", "connected", False)
        assert tiny_model.reliability("hA", "hB") == 0.0

    def test_bandwidth_and_delay(self, tiny_model):
        assert tiny_model.bandwidth("hA", "hB") == 100.0
        assert tiny_model.delay("hA", "hB") == 0.01
        assert tiny_model.bandwidth("hA", "hA") == float("inf")
        assert tiny_model.delay("hA", "hA") == 0.0

    def test_frequency(self, tiny_model):
        assert tiny_model.frequency("c1", "c2") == 4.0
        assert tiny_model.frequency("c2", "c1") == 4.0
        assert tiny_model.frequency("c1", "c3") == 0.0
        assert tiny_model.frequency("c1", "c1") == 0.0

    def test_total_interaction_frequency(self, tiny_model):
        assert tiny_model.total_interaction_frequency() == 5.0

    def test_memory_used(self, tiny_model):
        assert tiny_model.memory_used("hA") == 20.0
        assert tiny_model.memory_used("hB") == 10.0


class TestDeploymentMapping:
    def test_deploy_and_snapshot(self, tiny_model):
        snapshot = tiny_model.deployment
        assert snapshot["c1"] == "hA"
        assert snapshot.components_on("hA") == ("c1", "c2")

    def test_deploy_unknown_component(self, tiny_model):
        with pytest.raises(UnknownEntityError):
            tiny_model.deploy("cX", "hA")

    def test_deploy_unknown_host(self, tiny_model):
        with pytest.raises(UnknownEntityError):
            tiny_model.deploy("c1", "hX")

    def test_snapshot_is_immutable_copy(self, tiny_model):
        snapshot = tiny_model.deployment
        tiny_model.deploy("c1", "hB")
        assert snapshot["c1"] == "hA"  # old snapshot untouched

    def test_set_deployment_wholesale(self, tiny_model):
        tiny_model.set_deployment({"c1": "hB", "c2": "hB", "c3": "hB"})
        assert set(tiny_model.deployment.values()) == {"hB"}

    def test_validate_deployment_ok(self, tiny_model):
        tiny_model.validate_deployment()

    def test_validate_rejects_missing_components(self, tiny_model):
        tiny_model.undeploy("c1")
        with pytest.raises(DeploymentError, match="not deployed"):
            tiny_model.validate_deployment()

    def test_validate_rejects_unknown_entities(self, tiny_model):
        with pytest.raises(DeploymentError, match="unknown component"):
            tiny_model.validate_deployment({"ghost": "hA"})
        with pytest.raises(DeploymentError, match="unknown host"):
            tiny_model.validate_deployment(
                {"c1": "hZ", "c2": "hA", "c3": "hA"})

    def test_all_deployments_count(self, tiny_model):
        assert sum(1 for __ in tiny_model.all_deployments()) == 2 ** 3


class TestDeploymentValue:
    def test_diff_produces_moves(self):
        before = Deployment({"c1": "h1", "c2": "h2", "c3": "h1"})
        after = Deployment({"c1": "h2", "c2": "h2", "c3": "h3"})
        assert before.diff(after) == (
            Move("c1", "h1", "h2"), Move("c3", "h1", "h3"))

    def test_diff_ignores_unshared_components(self):
        before = Deployment({"c1": "h1", "only_before": "h1"})
        after = Deployment({"c1": "h1", "only_after": "h2"})
        assert before.diff(after) == ()

    def test_equality_and_hash(self):
        a = Deployment({"c1": "h1"})
        b = Deployment({"c1": "h1"})
        assert a == b
        assert hash(a) == hash(b)
        assert a == {"c1": "h1"}

    def test_hosts_used(self):
        deployment = Deployment({"c1": "h1", "c2": "h1", "c3": "h2"})
        assert deployment.hosts_used() == frozenset({"h1", "h2"})


class TestListeners:
    def test_host_added_event(self):
        model = DeploymentModel()
        events = []
        model.add_listener(lambda name, payload: events.append((name, payload)))
        model.add_host("h1")
        assert events == [(HOST_ADDED, {"host": "h1"})]

    def test_parameter_changed_event(self, tiny_model):
        events = []
        tiny_model.add_listener(lambda name, payload: events.append((name, payload)))
        tiny_model.set_host_param("hA", "memory", 64.0)
        assert events[0][0] == PARAMETER_CHANGED
        assert events[0][1]["old"] == 100.0
        assert events[0][1]["new"] == 64.0

    def test_deployment_changed_only_on_actual_move(self, tiny_model):
        events = []
        tiny_model.add_listener(lambda name, payload: events.append(name))
        tiny_model.deploy("c1", "hA")  # no-op: already there
        assert DEPLOYMENT_CHANGED not in events
        tiny_model.deploy("c1", "hB")
        assert DEPLOYMENT_CHANGED in events

    def test_remove_listener(self, tiny_model):
        events = []
        listener = lambda name, payload: events.append(name)  # noqa: E731
        tiny_model.add_listener(listener)
        tiny_model.remove_listener(listener)
        tiny_model.add_host("hC")
        assert events == []


class TestCopiesAndViews:
    def test_copy_equivalence(self, small_model):
        clone = small_model.copy()
        assert clone.stats()["hosts"] == small_model.stats()["hosts"]
        assert dict(clone.deployment) == dict(small_model.deployment)
        for link in small_model.physical_links:
            twin = clone.physical_link(*link.hosts)
            assert twin.params.get("reliability") == \
                link.params.get("reliability")

    def test_copy_is_independent(self, tiny_model):
        clone = tiny_model.copy()
        clone.deploy("c1", "hB")
        assert tiny_model.deployment["c1"] == "hA"
        clone.set_host_param("hA", "memory", 1.0)
        assert tiny_model.host("hA").memory == 100.0

    def test_restricted_to_single_host(self, tiny_model):
        view = tiny_model.restricted_to(["hA"])
        assert view.host_ids == ("hA",)
        assert view.component_ids == ("c1", "c2")  # only hA's components
        assert view.logical_link("c1", "c2") is not None
        # c3 and the cross-host link are invisible.
        assert not view.has_component("c3")
        assert view.physical_link("hA", "hB") is None

    def test_restricted_to_preserves_internal_links(self, tiny_model):
        view = tiny_model.restricted_to(["hA", "hB"])
        assert view.physical_link("hA", "hB") is not None
        assert dict(view.deployment) == dict(tiny_model.deployment)

    def test_restricted_to_unknown_host(self, tiny_model):
        with pytest.raises(UnknownEntityError):
            tiny_model.restricted_to(["hZ"])
