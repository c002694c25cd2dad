"""Tests for DeSi's Model subsystem, Modifier, container, and views."""

import pytest

from repro.algorithms import AvalaAlgorithm, StochasticAlgorithm
from repro.core import (
    AvailabilityObjective, ConstraintSet, MemoryConstraint,
)
from repro.core.errors import (
    DuplicateAlgorithmError, ModelError, UnknownAlgorithmError,
)
from repro.desi import (
    AlgorithmContainer, DeSiModel, GraphView, Modifier, TableView,
)


@pytest.fixture
def desi(small_model):
    return DeSiModel(small_model)


class TestReactivity:
    def test_model_changes_notify_views(self, desi):
        seen = []
        desi.system.add_view(lambda aspect, detail: seen.append(
            (aspect, detail["event"])))
        desi.deployment_model.set_host_param(
            desi.deployment_model.host_ids[0], "memory", 1234.0)
        assert ("system", "parameter_changed") in seen

    def test_result_recording_notifies_views(self, desi):
        seen = []
        desi.results.add_view(lambda aspect, detail: seen.append(aspect))
        container = AlgorithmContainer(desi)
        container.registry.register("avala", lambda: AvalaAlgorithm(
            AvailabilityObjective(), ConstraintSet([MemoryConstraint()]),
            seed=1))
        container.invoke("avala")
        assert "results" in seen

    def test_replace_model_rewires_listener(self, desi, tiny_model):
        seen = []
        desi.system.add_view(lambda aspect, detail: seen.append(
            detail["event"]))
        desi.system.replace_model(tiny_model)
        tiny_model.deploy("c1", "hB")
        assert "model_replaced" in seen
        assert "deployment_changed" in seen


class TestGraphViewData:
    def test_hosts_white_components_gray(self, desi):
        host_id = desi.deployment_model.host_ids[0]
        component_id = desi.deployment_model.component_ids[0]
        assert desi.graph.host_styles[host_id].color == "white"
        assert desi.graph.component_styles[component_id].color == "gray"

    def test_zoom(self, desi):
        desi.graph.set_zoom(2.5)
        assert desi.graph.zoom == 2.5
        with pytest.raises(ValueError):
            desi.graph.set_zoom(0.0)

    def test_move_host(self, desi):
        host_id = desi.deployment_model.host_ids[0]
        desi.graph.move_host(host_id, 5.0, 6.0)
        style = desi.graph.host_styles[host_id]
        assert (style.x, style.y) == (5.0, 6.0)


class TestAlgoResultData:
    def test_best_picks_highest_for_maximize(self, desi):
        objective = AvailabilityObjective()
        constraints = ConstraintSet([MemoryConstraint()])
        container = AlgorithmContainer(desi)
        container.registry.register(
            "avala", lambda: AvalaAlgorithm(objective, constraints, seed=1))
        container.registry.register(
            "stochastic", lambda: StochasticAlgorithm(
                objective, constraints, seed=1, iterations=5))
        container.invoke_all()
        best = desi.results.best(objective)
        assert best is not None
        assert best.value == max(r.value for r in desi.results.results)

    def test_effect_estimates_recorded(self, desi):
        container = AlgorithmContainer(desi)
        container.registry.register("avala", lambda: AvalaAlgorithm(
            AvailabilityObjective(), ConstraintSet([MemoryConstraint()]),
            seed=1))
        container.invoke("avala")
        rows = desi.results.table_rows()
        assert len(rows) == 1
        assert rows[0][6] >= 0.0  # effect estimate column

    def test_clear(self, desi):
        desi.results.record  # attribute exists
        container = AlgorithmContainer(desi)
        container.registry.register("avala", lambda: AvalaAlgorithm(
            AvailabilityObjective(), ConstraintSet(), seed=1))
        container.invoke("avala")
        desi.results.clear()
        assert desi.results.latest() is None


class TestAlgorithmContainer:
    def test_register_invoke_unregister(self, desi):
        container = AlgorithmContainer(desi)
        container.registry.register("avala", lambda: AvalaAlgorithm(
            AvailabilityObjective(), ConstraintSet(), seed=1))
        assert container.algorithm_names == ("avala",)
        result = container.invoke("avala")
        assert result.algorithm == "avala"
        container.registry.unregister("avala")
        assert container.algorithm_names == ()

    def test_duplicate_registration_rejected(self, desi):
        container = AlgorithmContainer(desi)
        container.registry.register("x", lambda: None)
        with pytest.raises(DuplicateAlgorithmError):
            container.registry.register("x", lambda: None)

    def test_invoke_unknown_rejected(self, desi):
        with pytest.raises(UnknownAlgorithmError):
            AlgorithmContainer(desi).invoke("ghost")


class TestModifier:
    def test_edit_and_undo(self, desi):
        model = desi.deployment_model
        host = model.host_ids[0]
        original = model.host(host).memory
        modifier = Modifier(desi)
        modifier.set_host_memory(host, original + 50.0)
        assert model.host(host).memory == original + 50.0
        assert modifier.undo() is not None
        assert model.host(host).memory == original

    def test_undo_all_restores_everything(self, desi):
        model = desi.deployment_model
        modifier = Modifier(desi)
        link = model.physical_links[0]
        component = model.component_ids[0]
        original_reliability = link.params.get("reliability")
        original_host = model.deployment[component]
        other_host = next(h for h in model.host_ids if h != original_host)
        modifier.set_link_reliability(*link.hosts, value=0.111)
        modifier.move_component(component, other_host)
        assert modifier.undo_all() == 2
        assert link.params.get("reliability") == original_reliability
        assert model.deployment[component] == original_host

    def test_edits_log(self, desi):
        modifier = Modifier(desi)
        host = desi.deployment_model.host_ids[0]
        modifier.set_host_memory(host, 1.0)
        assert len(modifier.edits) == 1
        assert host in modifier.edits[0]

    def test_unknown_link_rejected(self, desi):
        modifier = Modifier(desi)
        with pytest.raises(ModelError):
            modifier.set_link_reliability("nope", "nada", 0.5)

    def test_undo_empty_stack(self, desi):
        assert Modifier(desi).undo() is None


class TestViews:
    def test_table_view_contains_all_entities(self, desi):
        view = TableView(desi)
        page = view.render()
        model = desi.deployment_model
        for host in model.host_ids:
            assert host in page
        for component in model.component_ids:
            assert component in page

    def test_results_panel_lists_runs(self, desi):
        container = AlgorithmContainer(desi)
        container.registry.register("avala", lambda: AvalaAlgorithm(
            AvailabilityObjective(), ConstraintSet([MemoryConstraint()]),
            seed=1))
        container.invoke("avala")
        panel = TableView(desi).results_panel()
        assert "avala" in panel
        assert "availability" in panel

    def test_table_view_counts_refreshes(self, desi):
        view = TableView(desi)
        desi.deployment_model.set_host_param(
            desi.deployment_model.host_ids[0], "memory", 7.0)
        assert view.refreshes >= 1

    def test_graph_view_text_shows_containment(self, desi):
        text = GraphView(desi).render_text()
        model = desi.deployment_model
        deployment = model.deployment
        component = model.component_ids[0]
        assert f"({component})" in text
        assert f"[{deployment[component]}]" in text

    def test_graph_view_dot_is_wellformed(self, desi):
        dot = GraphView(desi).render_dot()
        assert dot.startswith("graph deployment {")
        assert dot.rstrip().endswith("}")
        assert dot.count("subgraph") == len(desi.deployment_model.host_ids)

    def test_thumbnail_counts(self, desi):
        thumb = GraphView(desi).thumbnail()
        model = desi.deployment_model
        total = sum(
            int(cell.split(":")[1])
            for cell in thumb.strip("[]").split(" | "))
        assert total == len(model.component_ids)

    def test_constraints_panel(self, desi):
        from repro.core.constraints import MemoryConstraint as MC
        desi.deployment_model.constraints.append(MC())
        panel = TableView(desi).constraints_panel()
        assert "MemoryConstraint" in panel
