"""Unit tests for the model verifier (Pillar 1) rules."""

import pytest

from repro.algorithms import compiled
from repro.core.constraints import (
    CollocationConstraint, ConstraintSet, LocationConstraint,
    MemoryConstraint,
)
from repro.core.model import DeploymentModel
from repro.core.objectives import (
    AvailabilityObjective, CommunicationCostObjective, DurabilityObjective,
    LatencyObjective, Objective, SecurityObjective, ThroughputObjective,
)
from repro.lint.core import Severity
from repro.lint.model_rules import (
    DEPLOYMENT, ModelLintContext, default_objectives, model_rule_registry,
    verify_deployment, verify_model,
)


def rules_found(report):
    return {f.rule for f in report}


@pytest.fixture
def clean_model(tiny_model):
    return tiny_model


class TestCleanModel:
    def test_no_errors_on_tiny_model(self, clean_model):
        report = verify_model(clean_model,
                              objectives=[AvailabilityObjective])
        assert not report.has_errors

    def test_preflight_subset_clean(self, clean_model):
        report = verify_deployment(clean_model)
        assert len(report) == 0


class TestDeploymentRules:
    def test_mv001_unmapped_component(self, clean_model):
        clean_model.undeploy("c3")
        report = verify_deployment(clean_model)
        assert "MV001" in rules_found(report)

    def test_mv002_unknown_entities(self, clean_model):
        report = verify_deployment(
            clean_model,
            deployment={"c1": "hA", "c2": "hA", "c3": "hB", "ghost": "hZ"})
        assert "MV002" in rules_found(report)
        messages = [f.message for f in report if f.rule == "MV002"]
        assert any("ghost" in m for m in messages)
        assert any("hZ" in m for m in messages)

    def test_mv003_memory_over_capacity(self, clean_model):
        clean_model.set_host_param("hA", "memory", 15.0)  # c1+c2 need 20
        report = verify_deployment(clean_model)
        finding = next(f for f in report if f.rule == "MV003")
        assert finding.severity is Severity.ERROR
        assert finding.detail["used"] == 20.0
        assert finding.detail["capacity"] == 15.0

    def test_mv004_cpu_over_capacity(self, clean_model):
        clean_model.set_host_param("hA", "cpu", 1.0)
        clean_model.set_component_param("c1", "cpu", 2.0)
        report = verify_deployment(clean_model)
        assert "MV004" in rules_found(report)

    def test_mv005_unbacked_logical_link(self):
        model = DeploymentModel()
        model.add_host("h1", memory=50.0)
        model.add_host("h2", memory=50.0)  # no physical link
        model.add_component("a", memory=1.0)
        model.add_component("b", memory=1.0)
        model.connect_components("a", "b", frequency=1.0)
        model.deploy("a", "h1")
        model.deploy("b", "h2")
        report = verify_deployment(model)
        assert "MV005" in rules_found(report)

    def test_mv005_collocated_pair_is_fine(self, clean_model):
        clean_model.deploy("c3", "hA")  # all on one host, no path needed
        report = verify_deployment(clean_model)
        assert "MV005" not in rules_found(report)

    def test_mv010_constraint_violation(self, clean_model):
        constraints = ConstraintSet(
            [LocationConstraint("c1", forbidden=["hA"])])
        report = verify_deployment(clean_model, constraints=constraints)
        assert "MV010" in rules_found(report)


class TestParameterRules:
    """The registry validates writes, so corrupt values are injected past
    it — modeling a monitor or deserializer writing raw data."""

    def test_mv006_negative_frequency(self, clean_model):
        link = clean_model.logical_link("c1", "c2")
        link.params.values["frequency"] = -1.0
        report = verify_model(clean_model, objectives=[AvailabilityObjective])
        assert "MV006" in rules_found(report)

    def test_mv007_reliability_out_of_range(self, clean_model):
        link = clean_model.physical_link("hA", "hB")
        link.params.values["reliability"] = 1.5
        report = verify_model(clean_model, objectives=[AvailabilityObjective])
        assert "MV007" in rules_found(report)

    def test_mv008_negative_memory(self, clean_model):
        component = clean_model.component("c2")
        component.params.values["memory"] = -3.0
        report = verify_model(clean_model, objectives=[AvailabilityObjective])
        assert "MV008" in rules_found(report)


class TestTopologyRules:
    def test_mv009_partitioned_hosts_warn(self, clean_model):
        clean_model.add_host("island", memory=10.0)
        report = verify_model(clean_model, objectives=[AvailabilityObjective])
        finding = next(f for f in report if f.rule == "MV009")
        assert finding.severity is Severity.WARNING
        assert "island" in finding.subject

    def test_mv011_dangling_constraint_warns(self, clean_model):
        constraints = ConstraintSet([
            LocationConstraint("ghost", allowed=["hA"]),
            CollocationConstraint(["c1", "phantom"], together=True),
        ])
        report = verify_model(clean_model, constraints=constraints,
                              objectives=[AvailabilityObjective])
        dangling = [f for f in report if f.rule == "MV011"]
        assert len(dangling) == 2
        assert all(f.severity is Severity.WARNING for f in dangling)

    def test_mv012_unsatisfiable_component(self, clean_model):
        constraints = ConstraintSet(
            [LocationConstraint("c1", forbidden=["hA", "hB"])])
        report = verify_model(clean_model, constraints=constraints,
                              objectives=[AvailabilityObjective])
        finding = next(f for f in report if f.rule == "MV012")
        assert "c1" in finding.subject

    def test_mv013_isolated_component_info(self, clean_model):
        clean_model.add_component("loner", memory=1.0)
        clean_model.deploy("loner", "hB")
        report = verify_model(clean_model, objectives=[AvailabilityObjective])
        finding = next(f for f in report if f.rule == "MV013")
        assert finding.severity is Severity.INFO
        assert "loner" in finding.subject

    def test_mv014_empty_model(self):
        report = verify_model(DeploymentModel(),
                              objectives=[AvailabilityObjective])
        assert len([f for f in report if f.rule == "MV014"]) == 2

    def test_mv016_advises_compiled_engine_on_large_models(self):
        model = DeploymentModel(name="big")
        for h in range(50):
            model.add_host(f"h{h}", memory=100.0)
        for c in range(50):
            model.add_component(f"c{c}", memory=1.0)
            model.deploy(f"c{c}", f"h{c}")
        report = verify_model(model, objectives=[AvailabilityObjective])
        finding = next(f for f in report if f.rule == "MV016")
        assert finding.severity is Severity.INFO
        assert finding.detail["size"] == 2500
        assert "compiled" in finding.message
        assert "registered kernel" in finding.message

    def test_mv016_silent_within_comfort_zone(self, clean_model):
        report = verify_model(clean_model,
                              objectives=[AvailabilityObjective])
        assert "MV016" not in rules_found(report)

    def test_mv018_warns_when_placement_space_mostly_infeasible(self):
        model = DeploymentModel(name="tight")
        model.add_host("h0", memory=50.0)
        model.add_host("h1", memory=1.0)  # fits nothing
        model.add_component("c0", memory=10.0)
        model.add_component("c1", memory=10.0)
        model.deploy("c0", "h0")
        model.deploy("c1", "h0")
        constraints = ConstraintSet([
            MemoryConstraint(),
            LocationConstraint("c0", forbidden=["h0"]),
        ])
        # Infeasible: (c0,h0) by location, (c0,h1) and (c1,h1) by memory.
        report = verify_model(model, constraints=constraints,
                              objectives=[AvailabilityObjective])
        finding = next(f for f in report if f.rule == "MV018")
        assert finding.severity is Severity.WARNING
        assert finding.detail["infeasible"] == 3
        assert finding.detail["total"] == 4
        assert finding.detail["ratio"] == 0.75

    def test_mv018_silent_on_roomy_constraints(self, clean_model):
        report = verify_model(clean_model,
                              constraints=ConstraintSet([MemoryConstraint()]),
                              objectives=[AvailabilityObjective])
        assert "MV018" not in rules_found(report)

    def test_mv018_silent_without_constraints(self, clean_model):
        report = verify_model(clean_model, constraints=ConstraintSet(),
                              objectives=[AvailabilityObjective])
        assert "MV018" not in rules_found(report)


class TestDeltaContractRule:
    def test_mv015_flags_broken_contract(self, clean_model):
        # Deliberately NOT an Objective subclass: subclasses defined in a
        # test would pollute Objective.__subclasses__() (and therefore
        # default_objectives()) for the rest of the session.
        class Cheater:
            name = "cheater"
            supports_delta = True  # ...but only the base move_delta
            move_delta = Objective.move_delta

            def evaluate(self, model, deployment):
                return 0.0

        report = verify_model(clean_model, objectives=[Cheater])
        finding = next(f for f in report if f.rule == "MV015")
        assert "Cheater" in finding.subject

    def test_mv015_passes_real_objectives(self, clean_model):
        report = verify_model(clean_model, objectives=default_objectives())
        assert "MV015" not in rules_found(report)

    def test_mv015_accepts_builtins_served_by_kernels(self, clean_model):
        builtins = [AvailabilityObjective, LatencyObjective,
                    CommunicationCostObjective, SecurityObjective,
                    ThroughputObjective, DurabilityObjective]
        # The built-ins inherit the base move_delta: their deltas come
        # from the registered compiled kernels alone.
        assert all(cls.move_delta is Objective.move_delta
                   for cls in builtins)
        report = verify_model(clean_model, objectives=builtins)
        assert "MV015" not in rules_found(report)

    def test_mv015_accepts_registered_delta_kernel(self, clean_model,
                                                   monkeypatch):
        class Kernelled:  # not an Objective subclass; see above
            name = "kernelled"
            supports_delta = True
            move_delta = Objective.move_delta

        class DeltaKernel:
            supports_delta = True

        monkeypatch.setitem(compiled._KERNEL_FACTORIES, Kernelled,
                            DeltaKernel)
        report = verify_model(clean_model, objectives=[Kernelled])
        assert "MV015" not in rules_found(report)

        DeltaKernel.supports_delta = False
        report = verify_model(clean_model, objectives=[Kernelled])
        assert "MV015" in rules_found(report)


class TestContextAndRegistry:
    def test_context_defaults_to_model_state(self, clean_model):
        clean_model.constraints.append(MemoryConstraint())
        context = ModelLintContext(clean_model)
        assert context.deployment == clean_model.deployment.as_dict()
        assert len(context.constraints) == 1

    def test_reachability_cache(self, clean_model):
        context = ModelLintContext(clean_model)
        assert context.reachable_from("hA") == {"hA", "hB"}
        assert context.reachable_from("hB") == {"hA", "hB"}

    def test_custom_rule_plugs_in(self, clean_model):
        from repro.lint.core import Rule

        class NamePolicy(Rule):
            rule_id = "X900"
            severity = Severity.WARNING
            description = "hosts must be named h*"
            tags = frozenset({DEPLOYMENT})

            def check(self, context):
                for host_id in context.model.host_ids:
                    if not host_id.startswith("h"):
                        yield self.finding("bad host name",
                                           subject=f"host {host_id!r}")

        registry = model_rule_registry()
        registry.register(NamePolicy)
        clean_model.add_host("odd", memory=1.0)
        clean_model.connect_hosts("hA", "odd")
        report = verify_deployment(clean_model, registry=registry)
        assert "X900" in rules_found(report)

    def test_registry_lists_all_builtin_rules(self):
        registry = model_rule_registry()
        assert len(registry) == 18
        assert "MV001" in registry and "MV017" in registry
        assert "MV018" in registry
