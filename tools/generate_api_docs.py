#!/usr/bin/env python
"""Regenerate docs/API.md from the package's public docstrings.

Usage:  python tools/generate_api_docs.py
"""

import importlib
import inspect
import io
from pathlib import Path

MODULES = [
    "repro.core.model", "repro.core.parameters", "repro.core.objectives",
    "repro.core.constraints", "repro.core.constraints_compiled",
    "repro.core.monitoring", "repro.core.analyzer",
    "repro.core.effector", "repro.core.user_input", "repro.core.utility",
    "repro.core.framework", "repro.core.errors", "repro.core.registry",
    "repro.core.report",
    "repro.plan.schedule", "repro.plan.planner",
    "repro.lint.core", "repro.lint.model_rules", "repro.lint.xadl_rules",
    "repro.lint.fault_rules", "repro.lint.plan_rules",
    "repro.lint.code", "repro.lint.determinism", "repro.lint.cache", "repro.lint.sarif",
    "repro.algorithms.base", "repro.algorithms.engine",
    "repro.algorithms.compiled", "repro.algorithms.search",
    "repro.algorithms.exact",
    "repro.algorithms.stochastic", "repro.algorithms.avala",
    "repro.algorithms.decap", "repro.algorithms.bip",
    "repro.algorithms.mincut", "repro.algorithms.hillclimb",
    "repro.algorithms.annealing", "repro.algorithms.genetic",
    "repro.algorithms.swapsearch",
    "repro.middleware.events", "repro.middleware.bricks",
    "repro.middleware.connectors", "repro.middleware.scaffold",
    "repro.middleware.monitors", "repro.middleware.serialization",
    "repro.middleware.admin", "repro.middleware.runtime",
    "repro.middleware.caching",
    "repro.sim.clock", "repro.sim.network", "repro.sim.fluctuation",
    "repro.sim.workload",
    "repro.desi.systemdata", "repro.desi.generator", "repro.desi.modifier",
    "repro.desi.container", "repro.desi.views", "repro.desi.xadl",
    "repro.desi.adapter", "repro.desi.batch",
    "repro.decentralized.awareness", "repro.decentralized.sync",
    "repro.decentralized.voting", "repro.decentralized.auction",
    "repro.decentralized.agent",
    "repro.scenarios.crisis", "repro.scenarios.clientserver",
    "repro.scenarios.sensorfield",
    "repro.faults.plan", "repro.faults.injector", "repro.faults.campaigns",
    "repro.faults.report",
    "repro.obs", "repro.obs.metrics", "repro.obs.trace",
    "repro.obs.capture",
    "repro.cli",
]


# Hand-written overview sections, emitted immediately before the named
# module so regeneration never loses them.
PROSE_BEFORE = {
    "repro.core.report": """\
## The common Report API (`repro.core.report`)

Every artifact the framework produces about its own behaviour — cycle
reports, effect reports, algorithm results, sweep reports, lint
reports, resilience reports, decentralized round reports — implements
the `Report` protocol (`to_dict` / `to_json` / `render` /
`summary_line`).  The CLI's shared `--json`/`--quiet` flags route every
verb through these methods.  See `docs/OBSERVABILITY.md`.
""",
    "repro.obs": """\
## Observability (`repro.obs`)

Process-wide but injectable metrics, tracing, and capture files across
the monitor->model->algorithm->effector loop.  Disabled by default with
a null-object bundle whose overhead is pinned by
`benchmarks/test_bench_obs.py`; see `docs/OBSERVABILITY.md` for the
full guide and the instrumentation map.
""",
    "repro.plan.schedule": """\
## Migration planning (`repro.plan`)

Turns a `(current, target)` deployment delta into a `MigrationSchedule`:
moves grouped into parallel waves whose barrier states all satisfy the
constraint set, with per-wave transfers routed and packed against
per-link bandwidth.  Waves are the effector's rollback barriers; the
lint rules `PL001`-`PL003` verify saved schedules, and
`python -m repro plan` builds, renders, lints, and diffs them.  See
`docs/PLANNING.md`.
""",
    "repro.lint.core": """\
## Static analysis (`repro.lint`)

A pluggable static verifier with two pillars on one rule engine: the
**model verifier** (rules over `DeploymentModel`/xADL — mapping,
capacities, parameter ranges, reachability, constraint satisfiability,
objective contracts) and the **code analyzer** (AST rules for the
middleware's conventions).  `python -m repro lint` runs the model rules
over scenarios/xADL files, `python -m repro lint --code` runs the AST
rules, and the `deployment`-tagged subset gates `Effector.effect` and
`ExperimentRunner.run` (`PreflightError`/`LintError` on error findings).
See `docs/STATIC_ANALYSIS.md` for the rule catalog, severities,
suppression syntax, and how to write custom rules.
""",
    "repro.lint.determinism": """\
## Determinism pack and lint plumbing

The **determinism pack** (`repro.lint.determinism`) runs with the code
analyzer's rules, one file at a time: DT001 reports every use of the
process-global RNG and every unseeded generator construction at its call
site, DT002 wall clocks read in serialization methods, and DT003 set
iteration order escaping into rendered output.  The production plumbing
follows: a content-hash result cache with baseline suppression files
(`repro.lint.cache`) and a SARIF 2.1.0 reporter (`repro.lint.sarif`).
""",
    "repro.algorithms.engine": """\
## Evaluation engine & algorithm portfolio

All algorithm execution now flows through `repro.algorithms.engine`.
`DeploymentAlgorithm.run(model, initial=None, engine=None)` accepts an
`EvaluationEngine`; when omitted, a private one is created, so existing
call sites keep working unchanged.

**Memoized evaluation.** The engine memoizes `Objective.evaluate` on the
hashable `Deployment`, in a `DeploymentCache` that listens to the model:
any topology or parameter mutation (e.g. a monitor writing a fresh
observation through `set_physical_link_param`) drops the cache, so stale
scores are never served.  Deployment changes do *not* invalidate —
evaluation takes the deployment as an explicit argument.  One cache may be
shared by many engines (keys include the objective), which is how a
portfolio's members reuse each other's work.

**Incremental evaluation.** Every `Objective` follows one contract: a
move's delta equals `evaluate(moved) - evaluate(base)` to 1e-9, and
`supports_delta` declares whether that delta is served incrementally in
O(degree) of the moved component — by a `move_delta` override or by a
registered compiled kernel.  All six built-in objectives take the kernel
route (`EvaluationEngine.move_delta`); their `evaluate` methods stay as
the readable reference.  Throughput (bottleneck max) and durability
(lifetime min) kernels localize a move with per-host-pair demand /
per-host draw accumulators.  `WeightedObjective` supports the fast path
iff one route serves all of its terms: every term kernel-served, or every
term with its own `move_delta`.  (`repro.lint` rule MV015 flags objectives
that declare the fast path without either.)

**Budgets and graceful truncation.** Engines accept `max_evaluations`, a
budget on charged (full + delta) evaluations.  When it runs out
mid-search the engine raises `EvaluationBudgetExceeded`;
`DeploymentAlgorithm.run` catches it and degrades to the best deployment
fully evaluated so far, setting `extra["engine"]["truncated"]`.  The
budget counts work, not time, so a truncated run stops at the same
evaluation every time.  Per-run counters (full evaluations, cache
hits/misses, delta evaluations and fallbacks, budget state) land in
`AlgorithmResult.extra["engine"]`; they read no clock.

**Portfolios.** `PortfolioRunner.run(model, factories)` executes a suite of
algorithms one after another on the calling thread, all sharing one
cache.  A member that raises `AlgorithmError` or crashes degrades to a
`skipped` / `error` `PortfolioOutcome` instead of aborting the run; the
`PortfolioReport` records every member's fate plus aggregate counters.
`Analyzer.analyze` runs its selected algorithms this way (see
`Decision.portfolio`), and `AlgorithmContainer.invoke_portfolio` exposes
the same machinery in DeSi.

**Registries.** `Analyzer` and `AlgorithmContainer` share
`repro.core.registry.AlgorithmRegistry` (exposed as `.registry`), the
one way to add or remove algorithms.  Registry misuse raises the dedicated
`RegistryError` family from `repro.core.errors` rather than
`AnalyzerError`.
""",
    "repro.algorithms.compiled": """\
## Compiled evaluation kernels

`repro.algorithms.compiled` is the evaluation-side view of the object
model: `compiled_model(model)` snapshots a `DeploymentModel` into a
`CompiledModel` of integer-indexed flat structures (index maps, CSR
logical adjacency with per-edge parameter arrays, dense host×host
reliability/bandwidth/delay/security matrices, per-entity resource
vectors), invalidated through model-listener events and recompiled
lazily per generation.  `encode`/`decode` convert a deployment mapping
to and from its host-index list, the form the engine scores and memoizes.
`compile_kernel(objective, compiled)` resolves a per-objective kernel by
exact type (`register_kernel` extends the table); every built-in
objective has one, all with incremental `move_delta`, and
`WeightedObjective` composes its terms' kernels.  The
`EvaluationEngine` always routes through kernels, falling back to the
object path for custom objectives or un-encodable deployments.  `docs/PERFORMANCE.md` covers
the lifecycle and the measured speedups (`BENCH_compiled.json`);
lint rule MV016 advises when model size demands the compiled path.
""",
    "repro.core.constraints_compiled": """\
## Compiled constraint checking

`repro.core.constraints_compiled` is the evaluation-side view of the
constraint layer: `compile_constraints(constraints, compiled_model)`
lowers a `ConstraintSet` onto a `CompiledModel` snapshot as a
`CompiledConstraintSet` — per-host residual resource loads, location
bitmasks, collocation group counters, bandwidth pair-demand
accumulators — giving O(1) `allows(ci, hi)` probes and incremental
`place`/`undo` with exact-restore tokens, while reproducing the object
path's verdicts and violation strings exactly.  Compilation is by
exact constraint type; unknown types return `None` and callers stay on
the object path (the same discipline as kernel dispatch).  The
equivalence contract is property-tested in
`tests/core/test_constraints_compiled.py`; `docs/PERFORMANCE.md`
covers where it slots into the search engine.
""",
    "repro.algorithms.search": """\
## Incremental neighborhood search

`repro.algorithms.search` carries one search run's working state:
`make_checker` wraps either the compiled or the object constraint path
behind one protocol (`allows`/`place`/`undo`/`satisfied`), and
`SearchState` maintains the legal-move frontier — cached move deltas,
per-row best improving moves, a lazy best-move heap, and dirty-move
invalidation so a move c: h1->h2 re-scores only rows touching h1, h2,
or c's logical neighbors (objectives with `local_delta = False`
invalidate everything).  The canonical selection rule is deterministic
and identical across checker paths, pinned by
`tests/algorithms/test_search_determinism.py`; the measured payoff is
`BENCH_search.json` (see `docs/PERFORMANCE.md`).  The
`constraint_checks`/`moves_rescored`/`frontier_hits` counters in
`EvaluationStats` report what the frontier saved.
""",
    "repro.faults.plan": """\
## Fault injection (`repro.faults`)

Deterministic fault-injection campaigns over the simulated network:
declarative `FaultPlan`s of timed `FaultAction`s (host crashes/restarts,
partitions/heals, link flapping, loss bursts, parameter degradation),
executed by a `FaultInjector` that schedules everything on the
`SimClock` up front — no hot-path hooks, so disabled injection is free.
Campaign generators derive plans from the model (`random_churn`,
`rolling_partitions`, `targeted_attack` on the traffic-derived
`worst_host`), and `run_campaign` scores a run into a seed-reproducible
`ResilienceReport` (delivered vs modeled availability, migration
success, retries, rollbacks, mean time to recover).  CLI:
`python -m repro faults run|generate|lint`; rules FP001–FP004 lint
plans.  See `docs/FAULTS.md`.
""",
}


def first_line(doc):
    if not doc:
        return ""
    return doc.strip().splitlines()[0].strip()


def generate() -> str:
    out = io.StringIO()
    out.write("# API reference\n\n")
    out.write("One line per public class/function, generated from "
              "docstrings by `python tools/generate_api_docs.py`.  See the "
              "module docstrings for the paper mapping and design "
              "rationale.\n\n")
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        if module_name in PROSE_BEFORE:
            out.write(PROSE_BEFORE[module_name])
            out.write("\n")
        out.write(f"## `{module_name}`\n\n")
        summary = first_line(module.__doc__)
        if summary:
            out.write(f"{summary}\n\n")
        rows = []
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isclass(obj):
                rows.append((f"class `{name}`", first_line(obj.__doc__)))
                for mname, mobj in sorted(vars(obj).items()):
                    if mname.startswith("_") or not inspect.isfunction(mobj):
                        continue
                    rows.append((f"&nbsp;&nbsp;`{name}.{mname}()`",
                                 first_line(mobj.__doc__)))
            elif inspect.isfunction(obj):
                rows.append((f"`{name}()`", first_line(obj.__doc__)))
        if rows:
            out.write("| item | summary |\n|---|---|\n")
            for item, summary in rows:
                summary = (summary or "").replace("|", "\\|")
                out.write(f"| {item} | {summary} |\n")
            out.write("\n")
    return out.getvalue()


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text(generate(), encoding="utf-8")
    print(f"wrote {target} ({target.stat().st_size} bytes)")
