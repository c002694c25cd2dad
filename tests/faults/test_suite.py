"""Campaign suites: run_campaign(seeds=..., workers=N).

Serial and parallel suites must execute the identical per-campaign job
and therefore render byte-identically; the classic single-report path
must be unaffected by the suite machinery.
"""

import pytest

from repro.core.errors import FaultPlanError
from repro.faults import (
    CampaignSuiteReport, ResilienceReport, generate_campaign, run_campaign,
)
from repro.obs import Observability
from repro.obs.trace import NULL_TRACER
from repro.scenarios import CrisisConfig, build_crisis_scenario

DURATION = 8.0


@pytest.fixture(scope="module")
def plan():
    built = build_crisis_scenario(CrisisConfig(seed=3))
    return generate_campaign("random-churn", built.model,
                             duration=DURATION, seed=5)


@pytest.fixture(scope="module")
def partition_plan():
    built = build_crisis_scenario(CrisisConfig(seed=3))
    return generate_campaign("rolling-partitions", built.model,
                             duration=DURATION, seed=7)


class TestSuiteMode:
    def test_seeds_returns_suite(self, plan):
        suite = run_campaign(plan, scenario="crisis", duration=DURATION,
                             seeds=[3, 4])
        assert isinstance(suite, CampaignSuiteReport)
        assert [r.seed for r in suite.runs] == [3, 4]
        assert suite.aggregate()["campaigns"] == 2

    def test_classic_path_still_single_report(self, plan):
        report = run_campaign(plan, scenario="crisis", duration=DURATION,
                              seed=3)
        assert isinstance(report, ResilienceReport)

    def test_suite_run_matches_classic(self, plan):
        single = run_campaign(plan, scenario="crisis", duration=DURATION,
                              seed=3)
        suite = run_campaign(plan, scenario="crisis", duration=DURATION,
                             seeds=[3])
        assert suite.run(plan.name, 3).render() == single.render()

    def test_plan_list_cross_product(self, plan, partition_plan):
        suite = run_campaign([plan, partition_plan], scenario="crisis",
                             duration=DURATION, seeds=[3, 4])
        assert [(r.plan_name, r.seed) for r in suite.runs] == [
            (plan.name, 3), (plan.name, 4),
            (partition_plan.name, 3), (partition_plan.name, 4),
        ]

    def test_unknown_run_raises(self, plan):
        suite = run_campaign(plan, scenario="crisis", duration=DURATION,
                             seeds=[3])
        with pytest.raises(KeyError):
            suite.run("nope", 3)

    def test_workers_must_be_positive(self, plan):
        with pytest.raises(FaultPlanError):
            run_campaign(plan, scenario="crisis", workers=0)

    def test_seeds_must_be_non_empty(self, plan):
        with pytest.raises(FaultPlanError):
            run_campaign(plan, scenario="crisis", seeds=[])

    def test_empty_plan_list_rejected(self):
        with pytest.raises(FaultPlanError):
            run_campaign([], scenario="crisis")


class TestSerialParallelEquivalence:
    def test_parallel_renders_byte_identical(self, plan):
        serial = run_campaign(plan, scenario="crisis", duration=DURATION,
                              seeds=[3, 4], workers=1)
        parallel = run_campaign(plan, scenario="crisis", duration=DURATION,
                                seeds=[3, 4], workers=2)
        assert serial.render() == parallel.render()

    def test_metrics_merge_identical(self, plan):
        def metric_lines(workers):
            obs = Observability(tracer=NULL_TRACER)
            run_campaign(plan, scenario="crisis", duration=DURATION,
                         seeds=[3, 4], workers=workers, obs=obs)
            return obs.metrics.to_lines()

        assert metric_lines(1) == metric_lines(2)

    def test_unpicklable_factory_rejected(self, plan):
        with pytest.raises(FaultPlanError, match="picklable"):
            run_campaign(plan, scenario="crisis", duration=DURATION,
                         seeds=[3, 4], workers=2,
                         system_factory=lambda clock, seed: None)
