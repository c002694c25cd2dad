"""DeSi's AlgorithmContainer: pluggable algorithm invocation.

Section 4.1: "the AlgorithmContainer component invokes the selected
redeployment algorithms ... and updates the Model's AlgoResultData.  In
each case, the ... components also inform the View subsystem that the Model
has been modified."

Section 4.3 adds the meta-level API the Analyzer uses: "The API allows for
addition and removal of algorithms, modification of the model, and access
to DeSi's internal data structure that holds the results of executing
algorithms."  That meta-level operation is
:class:`repro.core.registry.AlgorithmRegistry`, shared with the Analyzer
and exposed as ``container.registry``.

Invocation runs through the memoized
:class:`repro.algorithms.engine.EvaluationEngine` — one cache per
container, so repeated invocations over the same model (DeSi's Algorithms
panel buttons, pressed repeatedly) stop re-scoring deployments any
algorithm already evaluated.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.engine import (
    DeploymentCache, EvaluationEngine, PortfolioReport, PortfolioRunner,
)
from repro.core.effector import plan_redeployment
from repro.core.registry import AlgorithmRegistry
from repro.desi.systemdata import DeSiModel

class AlgorithmContainer:
    """Registry + runner for deployment estimation algorithms.

    :meth:`invoke` runs one algorithm; :meth:`invoke_all` and
    :meth:`invoke_portfolio` run every registered one, in registration
    order, through a :class:`~repro.algorithms.engine.PortfolioRunner`.
    Every invocation shares the container's evaluation cache.
    """

    def __init__(self, desi: DeSiModel):
        self.desi = desi
        #: The meta-level add/remove/query API (shared with the Analyzer).
        self.registry = AlgorithmRegistry()
        self._cache = DeploymentCache()

    @property
    def algorithm_names(self) -> Tuple[str, ...]:
        return self.registry.names

    # -- invocation ---------------------------------------------------------
    def _record(self, result: AlgorithmResult) -> None:
        plan = plan_redeployment(self.desi.deployment_model,
                                 result.deployment)
        self.desi.results.record(result, effect_estimate=plan.estimated_time)

    def invoke(self, name: str) -> AlgorithmResult:
        """Run one registered algorithm against the current model and record
        its outcome (including the effecting-time estimate) in
        AlgoResultData.

        Raises :class:`~repro.core.errors.UnknownAlgorithmError` when *name*
        is not registered.
        """
        factory = self.registry.get(name)
        model = self.desi.deployment_model
        algorithm = factory()
        engine = EvaluationEngine(algorithm.objective, algorithm.constraints,
                                  cache=self._cache)
        result = algorithm.run(model, engine=engine)
        self._record(result)
        return result

    def invoke_all(self) -> List[AlgorithmResult]:
        """Run every registered algorithm (DeSi's Algorithms panel buttons,
        pressed in order) and record each outcome.

        The algorithms run as a portfolio sharing this container's
        evaluation cache; failed algorithms are skipped rather than
        aborting the sweep (their fate is available via
        :meth:`invoke_portfolio`).
        """
        return [outcome.result for outcome in self.invoke_portfolio().outcomes
                if outcome.result is not None]

    def invoke_portfolio(self) -> PortfolioReport:
        """Run every registered algorithm as a portfolio, in registration
        order, returning the full per-algorithm outcome report (ok /
        skipped / error)."""
        runner = PortfolioRunner(cache=self._cache)
        report = runner.run(self.desi.deployment_model,
                            dict(self.registry.items()))
        for outcome in report.outcomes:
            if outcome.result is not None:
                self._record(outcome.result)
        return report

    def results(self) -> List[AlgorithmResult]:
        """Access to the result store (part of the meta-level API)."""
        return list(self.desi.results.results)
