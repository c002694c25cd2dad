#!/usr/bin/env python
"""DeSi exploration session: generate, inspect, tweak, compare, export.

Reproduces the Section-4 workflow headlessly: an architect generates a
hypothetical architecture, views its tables (Figure 9) and deployment graph
(Figure 10), drags a component, assesses sensitivity to a link parameter,
runs the algorithm suite, and exports the result as xADL.

Run:  python examples/desi_exploration.py
"""

from repro.algorithms import (
    AvalaAlgorithm, ExactAlgorithm, StochasticAlgorithm,
)
from repro.core import (
    AvailabilityObjective, ConstraintSet, MemoryConstraint,
)
from repro.desi import (
    AlgorithmContainer, DeSiModel, Generator, GeneratorConfig, GraphView,
    Modifier, TableView, xadl,
)


def main() -> None:
    # -- Generate (DeSi's Generator panel) ---------------------------------
    model = Generator(GeneratorConfig(
        hosts=3, components=7, host_memory=(15.0, 30.0),
        memory_headroom=1.3, reliability=(0.3, 0.95)),
        seed=21).generate("explored")
    desi = DeSiModel(model)
    table = TableView(desi)
    graph = GraphView(desi)

    print(table.render())
    print("thumbnail:", graph.thumbnail())

    # -- Explore by hand (Figure 10's drag-and-drop) ----------------------
    objective = AvailabilityObjective()
    constraints = ConstraintSet([MemoryConstraint()])
    modifier = Modifier(desi)
    component = model.component_ids[0]
    before = objective.evaluate(model, model.deployment)
    other_host = next(h for h in model.host_ids
                      if h != model.deployment[component])
    modifier.move_component(component, other_host)
    after = objective.evaluate(model, model.deployment)
    print(f"\ndrag {component} -> {other_host}: availability "
          f"{before:.4f} -> {after:.4f}; undoing: {modifier.undo()}")

    # -- Sensitivity analysis (Section 4.3) ---------------------------------
    link = model.physical_links[0]
    print(f"\nsensitivity of availability to reliability({link.hosts[0]},"
          f"{link.hosts[1]}):")
    for value in (0.1, 0.5, 0.9):
        modifier.set_link_reliability(*link.hosts, value=value)
        print(f"  reliability={value:.1f} -> availability "
              f"{objective.evaluate(model, model.deployment):.4f}")
    modifier.undo_all()

    # -- Algorithms panel -----------------------------------------------------
    container = AlgorithmContainer(desi)
    container.registry.register(
        "exact", lambda: ExactAlgorithm(objective, constraints))
    container.registry.register(
        "avala", lambda: AvalaAlgorithm(objective, constraints, seed=1))
    container.registry.register(
        "stochastic", lambda: StochasticAlgorithm(
            objective, constraints, seed=1, iterations=40))
    container.invoke_all()
    print()
    print(table.results_panel())

    # -- Adopt the best and export (xADL integration) -----------------------
    best = desi.results.best(objective)
    model.set_deployment(best.deployment)
    document = xadl.to_xml(model)
    print(f"\nadopted {best.algorithm}'s deployment; xADL export is "
          f"{len(document)} bytes; first lines:")
    for line in document.splitlines()[:6]:
        print(f"  {line}")
    restored = xadl.from_xml(document)
    print(f"re-imported deployment matches: "
          f"{dict(restored.deployment) == dict(model.deployment)}")

    # -- The Figure-10 DOT render -------------------------------------------
    print("\nGraphviz DOT of the final deployment:")
    print(graph.render_dot())


if __name__ == "__main__":
    main()
