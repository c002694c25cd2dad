"""Tests for lint baselines (repro.lint.baseline) and one-pass analysis."""

import json
import textwrap

import pytest

from repro.core.errors import ReproError
from repro.lint.baseline import (
    apply_baseline, finding_fingerprint, load_baseline, write_baseline,
)
from repro.lint.code import analyze_paths
from repro.lint.core import Finding, LintReport, RuleRegistry, Severity

DIRTY = textwrap.dedent("""
    def collect(items=[]):
        return items
""")


class TestBaseline:
    def make_report(self):
        return LintReport([
            Finding("CD006", Severity.ERROR, "mutable default",
                    file="a.py", line=3),
            Finding("DT001", Severity.ERROR, "unseeded rng",
                    file="b.py", line=7),
        ])

    def test_write_then_apply_suppresses_everything(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        report = self.make_report()
        count = write_baseline(report, path)
        assert count == 2
        accepted = load_baseline(path)
        assert len(apply_baseline(report, accepted)) == 0

    def test_new_findings_survive_baseline(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline(self.make_report(), path)
        fresh = Finding("CD007", Severity.ERROR, "explicit acquire",
                        file="c.py")
        report = LintReport(list(self.make_report()) + [fresh])
        remaining = apply_baseline(report, load_baseline(path))
        assert [f.rule for f in remaining] == ["CD007"]

    def test_fingerprint_is_line_independent(self):
        a = Finding("CD006", Severity.ERROR, "mutable default",
                    file="a.py", line=3)
        b = Finding("CD006", Severity.ERROR, "mutable default",
                    file="a.py", line=30)
        assert finding_fingerprint(a) == finding_fingerprint(b)

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_baseline(str(tmp_path / "absent.json"))

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"surprise": True}))
        with pytest.raises(ReproError):
            load_baseline(str(path))


class TestAnalyzePaths:
    def test_custom_registry_replaces_default_rules(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY)
        assert [f.rule for f in analyze_paths([str(tmp_path)])] == ["CD006"]
        report = analyze_paths([str(tmp_path)], registry=RuleRegistry([]))
        assert len(report) == 0
