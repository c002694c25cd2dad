"""The common Report API: every framework report speaks the protocol."""

import json

import pytest

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.engine import PortfolioReport
from repro.core.analyzer import Decision
from repro.core.effector import EffectReport, RedeploymentPlan
from repro.core.framework import CycleReport
from repro.core.model import Deployment
from repro.core.report import Report, ReportBase, json_safe
from repro.decentralized.agent import RoundReport
from repro.desi.batch import ExperimentReport
from repro.faults.report import ResilienceReport
from repro.lint.core import LintReport


def make_result():
    return AlgorithmResult(
        algorithm="avala", deployment=Deployment({"c": "h"}), value=0.9,
        objective="availability", valid=True, elapsed=0.01, evaluations=5,
        moves_from_initial=1)


def make_plan():
    return RedeploymentPlan(current=Deployment({"c": "h"}),
                            target=Deployment({"c": "g"}),
                            moves=(), estimated_kb=1.0, estimated_time=0.1)


def make_effect():
    return EffectReport(plan=make_plan(), succeeded=True, moves_executed=1,
                        sim_duration=0.2, kb_transferred=1.0)


def make_reports():
    """One instance of each of the seven retrofitted report classes."""
    result = make_result()
    decision = Decision(action="redeploy", reason="improvement",
                        current_value=0.5, selected=result)
    return [
        CycleReport(time=2.0, monitoring_updates=3, decision=decision,
                    effect=make_effect()),
        make_effect(),
        result,
        PortfolioReport(),
        ExperimentReport("availability"),
        LintReport(),
        ResilienceReport(
            plan_name="p", scenario="crisis", seed=0, duration=10.0,
            improvement_loop=True, events_sent=10, events_received=9,
            emissions_skipped=0, delivered_availability=0.9,
            modeled_availability=0.95, faults_injected=2,
            faults_by_kind={"partition": 2}, outages=1,
            mean_outage_duration=1.0, migrations_attempted=1,
            migrations_succeeded=1, migration_success_rate=1.0,
            effector_retries=0, rollbacks=0, retransmissions=0,
            restores=0, mean_recovery_time=0.2),
        RoundReport(index=0, time=1.0, facts_synced=2, decision="go",
                    auctions=1, moves=2, availability_before=0.8,
                    availability_after=0.9),
    ]


class TestProtocolConformance:
    @pytest.mark.parametrize("report", make_reports(),
                             ids=lambda r: type(r).__name__)
    def test_isinstance_of_report_protocol(self, report):
        assert isinstance(report, Report)
        assert isinstance(report, ReportBase)

    @pytest.mark.parametrize("report", make_reports(),
                             ids=lambda r: type(r).__name__)
    def test_four_methods_produce_sane_output(self, report):
        payload = report.to_dict()
        assert isinstance(payload, dict) and payload
        parsed = json.loads(report.to_json())
        assert isinstance(parsed, dict)
        assert isinstance(report.render(), str)
        line = report.summary_line()
        assert isinstance(line, str)
        assert "\n" not in line

    def test_to_json_is_canonical(self):
        report = make_result()
        first = report.to_json()
        assert first == report.to_json()
        assert json.loads(first) == json_safe(report.to_dict())


class TestJsonSafe:
    def test_mappings_sequences_sets_and_objects(self):
        class WithToDict:
            def to_dict(self):
                return {"x": (1, 2)}

        value = {"deployment": Deployment({"c": "h"}),
                 "seq": [1, {2, 3}],
                 "obj": WithToDict(),
                 "other": object()}
        safe = json_safe(value)
        assert safe["deployment"] == {"c": "h"}
        assert safe["seq"] == [1, [2, 3]]
        assert safe["obj"] == {"x": [1, 2]}
        assert isinstance(safe["other"], str)
        json.dumps(safe)  # fully serializable
