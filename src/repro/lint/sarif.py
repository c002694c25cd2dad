"""SARIF 2.1.0 reporter.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
what code-scanning UIs ingest — GitHub code scanning, VS Code SARIF
viewers, Azure DevOps.  Emitting it alongside the text/JSON reporters
lets the CI ``self-lint`` gate upload its findings as a reviewable
artifact instead of a log dump.

Only the stable core of the format is produced: one ``run`` with a
``tool.driver`` describing the active rules and one ``result`` per
finding.  Output is fully deterministic — findings come pre-sorted and
deduped from :meth:`~repro.lint.core.LintReport.sorted`, keys are
emitted sorted — so two runs over the same tree are byte-identical.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.lint.baseline import finding_fingerprint
from repro.lint.core import Finding, LintReport, RuleRegistry, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

TOOL_NAME = "repro-lint"
TOOL_URI = "https://example.invalid/repro"

#: :class:`Severity` → SARIF ``level``.
_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def severity_level(severity: Severity) -> str:
    return _LEVELS[severity]


def _rule_descriptor(rule: Any) -> Dict[str, Any]:
    descriptor: Dict[str, Any] = {
        "id": rule.rule_id,
        "shortDescription": {"text": rule.description or rule.rule_id},
        "defaultConfiguration": {"level": severity_level(rule.severity)},
    }
    if rule.tags:
        descriptor["properties"] = {"tags": sorted(rule.tags)}
    return descriptor


def _result(finding: Finding) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.rule,
        "level": severity_level(finding.severity),
        "message": {"text": finding.message},
    }
    if finding.file is not None:
        region: Dict[str, Any] = {}
        if finding.line is not None:
            region["startLine"] = finding.line
        if finding.col is not None:
            # SARIF columns are 1-based; AST col_offset is 0-based.
            region["startColumn"] = finding.col + 1
        location: Dict[str, Any] = {
            "physicalLocation": {
                "artifactLocation": {"uri": finding.file.replace("\\", "/")},
            },
        }
        if region:
            location["physicalLocation"]["region"] = region
        result["locations"] = [location]
    elif finding.subject:
        result["locations"] = [
            {"logicalLocations": [{"name": finding.subject}]}]
    if finding.detail:
        result["properties"] = {
            key: value for key, value in sorted(finding.detail.items())
            if _json_safe(value)}
    fingerprint = _partial_fingerprint(finding)
    if fingerprint:
        result["partialFingerprints"] = {"primaryLocationLineHash":
                                         fingerprint}
    return result


def _json_safe(value: Any) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def _partial_fingerprint(finding: Finding) -> Optional[str]:
    if finding.file is None and not finding.subject:
        return None
    return finding_fingerprint(finding)


def sarif_log(report: LintReport,
              registry: Optional[RuleRegistry] = None) -> Dict[str, Any]:
    """The SARIF log as a plain dict (one run, all findings)."""
    rules: List[Dict[str, Any]] = []
    if registry is not None:
        rules = [_rule_descriptor(rule) for rule in registry]
    driver: Dict[str, Any] = {
        "name": TOOL_NAME,
        "informationUri": TOOL_URI,
    }
    if rules:
        driver["rules"] = rules
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": driver},
            "columnKind": "utf16CodeUnits",
            "results": [_result(f) for f in report.sorted()],
        }],
    }


def render_sarif(report: LintReport,
                 registry: Optional[RuleRegistry] = None) -> str:
    """Serialize *report* as a SARIF 2.1.0 JSON document."""
    return json.dumps(sarif_log(report, registry=registry), indent=2,
                      sort_keys=True)
