"""Unit tests for versioned knowledge bases and gossip synchronization."""

import pytest

from repro.core import AvailabilityObjective, DeploymentModel
from repro.decentralized import (
    AwarenessGraph, DecentralizedFramework, KnowledgeBase, ModelSynchronizer,
    from_connectivity,
)
from repro.desi import Generator, GeneratorConfig
from repro.middleware import DistributedSystem
from repro.sim import SimClock


def line_model(n=4):
    model = DeploymentModel()
    for index in range(n):
        model.add_host(f"h{index}", memory=50.0)
    for index in range(n - 1):
        model.connect_hosts(f"h{index}", f"h{index + 1}", reliability=0.8)
    for index in range(n):
        model.add_component(f"c{index}", memory=5.0)
        model.deploy(f"c{index}", f"h{index}")
    for index in range(n - 1):
        model.connect_components(f"c{index}", f"c{index + 1}", frequency=2.0)
    return model


class TestKnowledgeBase:
    def test_observe_and_get(self):
        kb = KnowledgeBase("h0")
        kb.observe("host", "h0", "memory", 64.0)
        assert kb.get("host", "h0", "memory") == 64.0
        assert kb.get("host", "h0", "cpu", default="none") == "none"
        assert kb.knows("host", "h0", "memory")

    def test_newer_observation_wins_locally(self):
        kb = KnowledgeBase("h0")
        kb.observe("host", "h0", "memory", 64.0)
        kb.observe("host", "h0", "memory", 32.0)
        assert kb.get("host", "h0", "memory") == 32.0

    def test_merge_adopts_unknown_facts(self):
        alpha = KnowledgeBase("a")
        beta = KnowledgeBase("b")
        beta.observe("host", "b", "memory", 10.0)
        adopted = alpha.merge_from(beta)
        assert adopted == 1
        assert alpha.get("host", "b", "memory") == 10.0

    def test_merge_keeps_higher_version(self):
        alpha = KnowledgeBase("a")
        beta = KnowledgeBase("b")
        alpha.observe("deployment", "c", "host", "a")      # version 1@a
        beta.observe("deployment", "c", "host", "old")     # version 1@b
        beta.observe("deployment", "c", "host", "new")     # version 2@b
        alpha.merge_from(beta)
        assert alpha.get("deployment", "c", "host") == "new"

    def test_local_observation_after_merge_supersedes(self):
        alpha = KnowledgeBase("a")
        beta = KnowledgeBase("b")
        for __ in range(5):
            beta.observe("host", "b", "memory", 1.0)
        alpha.merge_from(beta)
        alpha.observe("host", "b", "memory", 99.0)
        beta.merge_from(alpha)
        assert beta.get("host", "b", "memory") == 99.0

    def test_reobserving_an_equal_value_keeps_its_version(self):
        kb = KnowledgeBase("h0")
        first = kb.observe("host", "h0", "memory", 64.0)
        assert kb.observe("host", "h0", "memory", 64.0) is first
        changed = kb.observe("host", "h0", "memory", 32.0)
        assert changed.version == first.version + 1

    def test_merge_is_idempotent(self):
        alpha = KnowledgeBase("a")
        beta = KnowledgeBase("b")
        beta.observe("host", "b", "memory", 10.0)
        alpha.merge_from(beta)
        assert alpha.merge_from(beta) == 0

    def test_observe_model_slice_is_local_only(self):
        model = line_model()
        kb = KnowledgeBase("h1")
        kb.observe_model(model, hosts=["h1"])
        assert kb.knows("host", "h1")
        assert kb.knows("component", "c1")
        assert kb.get("deployment", "c1", "host") == "h1"
        # Sees its links (and thus knows the far ends exist)...
        assert kb.knows("physical_link", ("h0", "h1"))
        assert kb.knows("host", "h0")
        # ...but not distant hosts or their components' placement.
        assert not kb.knows("host", "h3")
        assert not kb.knows("deployment", "c3", "host")


class TestMaterialize:
    def test_full_knowledge_reconstructs_model(self):
        model = line_model()
        kb = KnowledgeBase("omniscient")
        kb.observe_model(model)
        view = kb.materialize()
        assert view.host_ids == model.host_ids
        assert view.component_ids == model.component_ids
        assert dict(view.deployment) == dict(model.deployment)
        objective = AvailabilityObjective()
        assert objective.evaluate(view, view.deployment) == pytest.approx(
            objective.evaluate(model, model.deployment))

    def test_partial_knowledge_materializes_partially(self):
        model = line_model()
        kb = KnowledgeBase("h0")
        kb.observe_model(model, hosts=["h0"])
        view = kb.materialize()
        assert "h0" in view.host_ids
        assert "h3" not in view.host_ids
        assert view.deployment.get("c0") == "h0"


class TestModelSynchronizer:
    def test_propagation_speed_is_one_hop_per_round(self):
        model = line_model(4)
        synchronizer = ModelSynchronizer(from_connectivity(model))
        synchronizer.seed_from_model(model)
        # h3's deployment fact reaches h0 only after 3 rounds.
        assert not synchronizer.base("h0").knows("deployment", "c3", "host")
        synchronizer.sync_round()
        assert not synchronizer.base("h0").knows("deployment", "c3", "host")
        synchronizer.sync_round()
        synchronizer.sync_round()
        assert synchronizer.base("h0").get(
            "deployment", "c3", "host") == "h3"

    def test_sync_until_quiet_converges_to_identical_knowledge(self):
        model = line_model(5)
        synchronizer = ModelSynchronizer(from_connectivity(model))
        synchronizer.seed_from_model(model)
        rounds = synchronizer.sync_until_quiet()
        assert rounds <= 6
        sizes = {len(synchronizer.base(h)) for h in model.host_ids}
        assert len(sizes) == 1  # every KB holds the same fact count

    def test_disconnected_awareness_stays_partitioned(self):
        model = line_model(4)
        # Awareness graph with NO edges: nothing ever propagates.
        isolated = AwarenessGraph(model.host_ids)
        synchronizer = ModelSynchronizer(isolated)
        synchronizer.seed_from_model(model)
        assert synchronizer.sync_round() == 0
        assert not synchronizer.base("h0").knows("host", "h2")

    def test_updates_ripple_after_convergence(self):
        model = line_model(3)
        synchronizer = ModelSynchronizer(from_connectivity(model))
        synchronizer.seed_from_model(model)
        synchronizer.sync_until_quiet()
        # h2 observes a change; h0 learns it after 2 more rounds.
        synchronizer.base("h2").observe("deployment", "c2", "host", "h0")
        synchronizer.sync_round()
        synchronizer.sync_round()
        assert synchronizer.base("h0").get(
            "deployment", "c2", "host") == "h0"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unchanged_local_observations_keep_sync_quiet(self, seed):
        model = Generator(GeneratorConfig(hosts=6, components=16),
                          seed=seed).generate()
        system = DistributedSystem(model, SimClock(), decentralized=True,
                                   seed=1)
        framework = DecentralizedFramework(system, AvailabilityObjective())
        synchronizer = framework.synchronizer
        for agent in framework.agents.values():
            agent.observe_local()
        synchronizer.sync_until_quiet()
        for agent in framework.agents.values():
            agent.observe_local()
        assert synchronizer.sync_round() == 0
