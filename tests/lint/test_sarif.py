"""Tests for the SARIF 2.1.0 reporter (repro.lint.sarif)."""

import json

import jsonschema
import pytest

from repro.lint.code import code_rule_registry
from repro.lint.core import Finding, LintReport, Severity
from repro.lint.sarif import render_sarif, sarif_log, severity_level

#: The subset of the SARIF 2.1.0 schema our emitter exercises, written
#: down from the OASIS spec.  Validating against it catches structural
#: regressions (missing required keys, wrong types, bad level values)
#: without vendoring the full multi-thousand-line schema.
SARIF_21_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string"},
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {"enum": ["none", "note",
                                                   "warning", "error"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {"type": "array"},
                            },
                        },
                    },
                },
            },
        },
    },
}


def make_report():
    return LintReport([
        Finding("CD007", Severity.ERROR, "explicit acquire",
                file="src/a.py", line=10),
        Finding("DT003", Severity.WARNING, "set order", file="src/b.py",
                line=4, col=8),
        Finding("MV009", Severity.INFO, "advice", subject="host-1"),
    ])


class TestSarifStructure:
    def test_validates_against_schema_subset(self):
        log = sarif_log(make_report(), registry=code_rule_registry())
        jsonschema.validate(log, SARIF_21_SUBSET_SCHEMA)

    def test_severity_level_mapping(self):
        assert severity_level(Severity.ERROR) == "error"
        assert severity_level(Severity.WARNING) == "warning"
        assert severity_level(Severity.INFO) == "note"

    def test_results_carry_locations(self):
        log = sarif_log(make_report())
        results = log["runs"][0]["results"]
        by_rule = {r["ruleId"]: r for r in results}
        physical = by_rule["CD007"]["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "src/a.py"
        assert physical["region"]["startLine"] == 10
        # AST columns are 0-based; SARIF startColumn is 1-based.
        col = by_rule["DT003"]["locations"][0]["physicalLocation"]
        assert col["region"]["startColumn"] == 9
        logical = by_rule["MV009"]["locations"][0]["logicalLocations"]
        assert logical[0]["name"] == "host-1"

    def test_driver_lists_registered_rules(self):
        log = sarif_log(LintReport(), registry=code_rule_registry())
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        ids = {rule["id"] for rule in rules}
        assert {"CD001", "CD007", "DT001", "DT002", "DT003"} <= ids
        assert not any(rule_id.startswith("CC") for rule_id in ids)
        for rule in rules:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning", "note")

    def test_results_have_fingerprints(self):
        log = sarif_log(make_report())
        for result in log["runs"][0]["results"]:
            assert result["partialFingerprints"]["primaryLocationLineHash"]


class TestSarifDeterminism:
    def test_byte_identical_across_runs(self):
        a = render_sarif(make_report(), registry=code_rule_registry())
        b = render_sarif(make_report(), registry=code_rule_registry())
        assert a == b

    def test_duplicate_findings_collapse(self):
        report = make_report()
        report.extend(make_report())
        single = sarif_log(make_report())
        doubled = sarif_log(report)
        assert doubled["runs"][0]["results"] == \
            single["runs"][0]["results"]

    def test_output_is_valid_json(self):
        parsed = json.loads(render_sarif(make_report()))
        assert parsed["version"] == "2.1.0"


class TestSelfLintSarif:
    def test_repo_self_lint_sarif_is_clean_and_valid(self):
        from repro.lint.code import analyze_paths
        import os
        report = analyze_paths([os.path.join("src", "repro")])
        log = sarif_log(report, registry=code_rule_registry())
        jsonschema.validate(log, SARIF_21_SUBSET_SCHEMA)
        assert log["runs"][0]["results"] == []
