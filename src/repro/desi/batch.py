"""Batch experimentation over generated architectures.

Section 4.1: DeSi's Generator/Modifier/AlgorithmContainer "allow DeSi to be
used to automatically generate and manipulate large numbers of hypothetical
deployment architectures".  :class:`ExperimentRunner` packages that
workflow: a sweep over architecture families x algorithms, with aggregate
statistics per cell — the machinery behind this repository's benchmark
tables, exposed as a public API so downstream users can run their own
comparisons.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.engine import EvaluationEngine
from repro.core.errors import AlgorithmError, LintError, ReproError
from repro.core.model import DeploymentModel
from repro.core.objectives import Objective
from repro.core.report import ReportBase
from repro.desi.generator import Generator, GeneratorConfig
from repro.desi.views import _render_table
from repro.desi.xadl import from_xml, to_xml
from repro.lint.model_rules import verify_deployment
from repro.obs import Observability, fan_out, get_observability

AlgorithmFactory = Callable[[], DeploymentAlgorithm]


@dataclass
class CellResult:
    """Aggregate outcome of one (family, algorithm) experiment cell."""

    family: str
    algorithm: str
    runs: int
    failures: int
    mean_value: Optional[float]
    stdev_value: Optional[float]
    mean_initial: float
    mean_elapsed: float
    mean_moves: float
    #: Engine counters (means over successful runs): how many full
    #: ``Objective.evaluate`` calls the cell actually paid for, how many
    #: were served from the memo cache, and how many went through the
    #: O(degree) delta fast path.
    mean_full_evaluations: float = 0.0
    mean_cache_hits: float = 0.0
    mean_delta_evaluations: float = 0.0
    #: Evaluations served by compiled kernels (full + delta), mean over
    #: successful runs.
    mean_kernel_evaluations: float = 0.0
    truncated_runs: int = 0
    #: Engine counters *summed* over successful runs, every key the engine
    #: reports (full_evaluations, cache_hits, cache_misses,
    #: delta_evaluations, delta_fallbacks, kernel_evaluations,
    #: kernel_deltas).  Unlike the ``mean_*`` convenience columns above,
    #: nothing is conflated or dropped — serial and ``workers=N`` sweeps
    #: must agree on these exactly.
    engine_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_improvement(self) -> Optional[float]:
        if self.mean_value is None:
            return None
        return self.mean_value - self.mean_initial


@dataclass
class ExperimentReport(ReportBase):
    """All cells of one sweep, with table rendering."""

    objective_name: str
    cells: List[CellResult] = field(default_factory=list)

    def cell(self, family: str, algorithm: str) -> CellResult:
        for candidate in self.cells:
            if candidate.family == family and candidate.algorithm == algorithm:
                return candidate
        raise KeyError((family, algorithm))

    def best_algorithm(self, family: str,
                       direction: str = "max") -> Optional[str]:
        candidates = [c for c in self.cells
                      if c.family == family and c.mean_value is not None]
        if not candidates:
            return None
        if direction == "max":
            return max(candidates, key=lambda c: c.mean_value).algorithm
        return min(candidates, key=lambda c: c.mean_value).algorithm

    def rows(self, include_timing: bool = True) -> List[Tuple]:
        out = []
        for cell in self.cells:
            row = [cell.family, cell.algorithm, cell.runs - cell.failures,
                   cell.mean_initial,
                   cell.mean_value if cell.mean_value is not None else "-"]
            if include_timing:
                row.append(cell.mean_elapsed * 1000.0)
            row.append(cell.mean_moves)
            out.append(tuple(row))
        return out

    def render(self, include_timing: bool = True) -> str:
        """The sweep as an aligned text table.

        ``include_timing=False`` drops the wall-clock column, making the
        rendering deterministic for a given seed — serial and
        ``workers=N`` sweeps then render byte-identically.
        """
        headers = ["family", "algorithm", "ok runs", "initial",
                   self.objective_name]
        if include_timing:
            headers.append("time (ms)")
        headers.append("moves")
        return _render_table(headers, (
            [f"{v:.4f}" if isinstance(v, float) else str(v) for v in row]
            for row in self.rows(include_timing)))

    def engine_counters(self) -> Dict[str, int]:
        """Engine counters summed across every cell of the sweep."""
        totals: Dict[str, int] = {}
        for cell in self.cells:
            for key, value in cell.engine_counters.items():
                totals[key] = totals.get(key, 0) + value
        return dict(sorted(totals.items()))

    def summary_line(self) -> str:
        families = sorted({c.family for c in self.cells})
        algorithms = sorted({c.algorithm for c in self.cells})
        failures = sum(c.failures for c in self.cells)
        return (f"{self.objective_name} sweep: {len(families)} families x "
                f"{len(algorithms)} algorithms, {len(self.cells)} cells, "
                f"{failures} failed runs")

    def to_dict(self, include_timing: bool = True,
                **opts: Any) -> Dict[str, Any]:
        cells = []
        for cell in self.cells:
            entry: Dict[str, Any] = {
                "family": cell.family,
                "algorithm": cell.algorithm,
                "runs": cell.runs,
                "failures": cell.failures,
                "mean_value": cell.mean_value,
                "stdev_value": cell.stdev_value,
                "mean_initial": cell.mean_initial,
                "mean_moves": cell.mean_moves,
                "truncated_runs": cell.truncated_runs,
                "engine_counters": dict(sorted(
                    cell.engine_counters.items())),
            }
            if include_timing:
                entry["mean_elapsed"] = cell.mean_elapsed
            cells.append(entry)
        return {
            "objective": self.objective_name,
            "cells": cells,
            "engine_counters": self.engine_counters(),
        }


class ExperimentRunner:
    """Sweep architecture families against an algorithm suite.

    Args:
        objective: Objective every algorithm run is scored against.
        algorithms: Name -> factory; a fresh algorithm instance is built
            per run so internal RNG state never leaks across runs.
        replicates: Architectures generated per family.
        seed: Base seed; family i, replicate j uses ``seed + i*1000 + j``.
        max_evaluations: Per-run evaluation-engine budget; over-budget
            runs truncate gracefully to their best-so-far deployment and
            are counted in ``CellResult.truncated_runs``.
        preflight: Statically verify every generated model before any
            algorithm searches it (:func:`repro.lint.model_rules.
            verify_deployment`); a model with error-severity findings
            aborts the sweep with :class:`~repro.core.errors.LintError`
            instead of surfacing as a mid-sweep exception or a silently
            wrong utility.
        workers: Number of worker processes for the sweep.  ``None``/1 runs
            serially in-process; ``N > 1`` fans (family, algorithm) cells
            out over a process pool, shipping models as xADL documents
            (whose ``repr``-based float round-trip is exact).  Both modes
            run every cell from the same serialized model bytes, so for a
            given seed they produce identical cells up to wall-clock
            timing — compare with ``report.render(include_timing=False)``.
            Algorithm factories must be picklable (module-level functions
            or ``functools.partial``, not lambdas).
        obs: Observability bundle the sweep reports into.  Defaults to the
            process-wide bundle.  Cells run through
            :func:`repro.obs.fan_out`: each records into a private registry
            whose lines are merged into this bundle, so serial and parallel
            sweeps report identical counters.  Disabled bundles cost
            nothing and change nothing.
    """

    def __init__(self, objective: Objective,
                 algorithms: Dict[str, AlgorithmFactory],
                 replicates: int = 5, seed: int = 0,
                 max_evaluations: Optional[int] = None,
                 preflight: bool = True,
                 workers: Optional[int] = None,
                 obs: Optional[Observability] = None):
        if not algorithms:
            raise ReproError("need at least one algorithm")
        if replicates < 1:
            raise ReproError("replicates must be >= 1")
        if workers is not None and workers < 1:
            raise ReproError("workers must be >= 1")
        self.objective = objective
        self.algorithms = dict(algorithms)
        self.replicates = replicates
        self.seed = seed
        self.max_evaluations = max_evaluations
        self.preflight = preflight
        self.workers = workers
        self.obs = obs if obs is not None else get_observability()

    def verify_models(self, models: Sequence[DeploymentModel]) -> None:
        """Raise :class:`LintError` if any model fails the deployment rules."""
        for model in models:
            report = verify_deployment(model)
            if report.has_errors:
                raise LintError(
                    f"generated model {model.name!r} failed static "
                    "verification", findings=report.errors)

    def run(self, families: Dict[str, GeneratorConfig]) -> ExperimentReport:
        """Execute the sweep; returns per-cell aggregates."""
        with self.obs.span("desi.sweep", families=len(families),
                           algorithms=len(self.algorithms),
                           workers=self.workers or 1):
            return self._run(families)

    def _run(self, families: Dict[str, GeneratorConfig]) -> ExperimentReport:
        # Generate + verify + score initials in-process, then freeze every
        # family to xADL: serial and worker cells both reconstruct models
        # from the same bytes, so the two modes cannot diverge.
        prepared: List[Tuple[str, Tuple[str, ...], List[float]]] = []
        for family_index, (family, config) in enumerate(
                sorted(families.items())):
            models = [
                Generator(config,
                          seed=self.seed + family_index * 1000 + j
                          ).generate(f"{family}-{j}")
                for j in range(self.replicates)
            ]
            if self.preflight:
                self.verify_models(models)
            initials = [self.objective.evaluate(m, m.deployment)
                        for m in models]
            prepared.append((family, tuple(to_xml(m) for m in models),
                             initials))
        jobs = [
            (family, algorithm_name, self.algorithms[algorithm_name],
             model_xmls, initials, self.max_evaluations)
            for family, model_xmls, initials in prepared
            for algorithm_name in sorted(self.algorithms)
        ]
        report = ExperimentReport(
            self.objective.name,
            fan_out(_run_cell_job, jobs, self.workers, self.obs, ReproError))
        # Parent-side, so workers-mode sweeps still get one span per cell.
        for cell in report.cells:
            with self.obs.span("desi.cell", family=cell.family,
                               algorithm=cell.algorithm) as span:
                span.set(runs=cell.runs, failures=cell.failures,
                         truncated=cell.truncated_runs)
        return report


def _run_cell_job(job: Tuple, obs: Observability) -> CellResult:
    """One (family, algorithm) cell; module-level so worker processes can
    unpickle it.  Models arrive as xADL strings and are rebuilt here, in
    the worker (or inline in serial mode); counters go to *obs*."""
    (family, algorithm_name, factory, model_xmls, initials,
     max_evaluations) = job
    models = [from_xml(text) for text in model_xmls]
    values: List[float] = []
    elapsed: List[float] = []
    moves: List[float] = []
    full_evals: List[float] = []
    cache_hits: List[float] = []
    delta_evals: List[float] = []
    kernel_evals: List[float] = []
    engine_totals: Dict[str, int] = {}
    truncated = 0
    failures = 0
    for model in models:
        algorithm = factory()
        engine = EvaluationEngine(algorithm.objective, algorithm.constraints,
                                  max_evaluations=max_evaluations)
        try:
            result = algorithm.run(model, engine=engine)
        except AlgorithmError:
            failures += 1
            continue
        if not result.valid:
            failures += 1
            continue
        values.append(result.value)
        elapsed.append(result.elapsed)
        moves.append(result.moves_from_initial)
        counters = result.extra.get("engine", {})
        full_evals.append(counters.get("full_evaluations", 0))
        cache_hits.append(counters.get("cache_hits", 0))
        delta_evals.append(counters.get("delta_evaluations", 0))
        kernel_evals.append(counters.get("kernel_evaluations", 0)
                            + counters.get("kernel_deltas", 0))
        for key, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            engine_totals[key] = engine_totals.get(key, 0) + value
        if counters.get("truncated"):
            truncated += 1
    cell = CellResult(
        family=family,
        algorithm=algorithm_name,
        runs=len(models),
        failures=failures,
        mean_value=statistics.mean(values) if values else None,
        stdev_value=(statistics.stdev(values)
                     if len(values) > 1 else 0.0 if values else None),
        mean_initial=statistics.mean(initials),
        mean_elapsed=statistics.mean(elapsed) if elapsed else 0.0,
        mean_moves=statistics.mean(moves) if moves else 0.0,
        mean_full_evaluations=(statistics.mean(full_evals)
                               if full_evals else 0.0),
        mean_cache_hits=(statistics.mean(cache_hits)
                         if cache_hits else 0.0),
        mean_delta_evaluations=(statistics.mean(delta_evals)
                                if delta_evals else 0.0),
        mean_kernel_evaluations=(statistics.mean(kernel_evals)
                                 if kernel_evals else 0.0),
        truncated_runs=truncated,
        engine_counters=dict(sorted(engine_totals.items())),
    )
    labels = {"family": family, "algorithm": algorithm_name}
    obs.counter("desi.runs", **labels).inc(len(models))
    obs.counter("desi.failures", **labels).inc(failures)
    obs.counter("desi.truncated", **labels).inc(truncated)
    for key, value in engine_totals.items():
        obs.counter(f"algorithms.engine.{key}", **labels).inc(value)
    return cell
