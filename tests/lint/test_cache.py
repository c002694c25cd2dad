"""Tests for the result cache and baselines (repro.lint.cache)."""

import json
import textwrap

from repro.lint import cache as cache_module
from repro.lint.cache import (
    LintCache, apply_baseline, file_digest, finding_fingerprint,
    load_baseline, rules_fingerprint, write_baseline,
)
from repro.lint.code import analyze_paths, code_rule_registry
from repro.lint.core import (
    Finding, LintReport, Rule, RuleRegistry, Severity,
)
from repro.core.errors import ReproError
import pytest

DIRTY = textwrap.dedent("""
    def collect(items=[]):
        return items
""")


def write_tree(tmp_path, n=4):
    for index in range(n):
        (tmp_path / f"mod_{index}.py").write_text(f"VALUE_{index} = 1\n")
    (tmp_path / "dirty.py").write_text(DIRTY)
    return str(tmp_path)


class TestLintCache:
    def test_second_run_hits_everything(self, tmp_path):
        root = write_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")
        registry = code_rule_registry()

        cold = LintCache.load(cache_path, registry)
        first = analyze_paths([root], cache=cold)
        cold.save()
        assert cold.hits == 0 and cold.misses == 5

        warm = LintCache.load(cache_path, registry)
        second = analyze_paths([root], cache=warm)
        assert warm.misses == 0 and warm.hits == 5
        assert [f.as_dict() for f in first.sorted()] == \
            [f.as_dict() for f in second.sorted()]

    def test_edited_file_misses(self, tmp_path):
        root = write_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")
        registry = code_rule_registry()
        cache = LintCache.load(cache_path, registry)
        analyze_paths([root], cache=cache)
        cache.save()

        (tmp_path / "mod_0.py").write_text("VALUE_0 = 2\n")
        warm = LintCache.load(cache_path, registry)
        analyze_paths([root], cache=warm)
        assert warm.misses == 1 and warm.hits == 4

    def test_rule_set_change_invalidates_cache(self, tmp_path):
        root = write_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")
        cache = LintCache.load(cache_path, code_rule_registry())
        analyze_paths([root], cache=cache)
        cache.save()

        class ExtraRule(Rule):
            rule_id = "ZZ999"
            severity = Severity.INFO
            description = "an extra rule changes the fingerprint"

        extended = code_rule_registry()
        extended.register(ExtraRule())
        assert rules_fingerprint(extended) != \
            rules_fingerprint(code_rule_registry())
        stale = LintCache.load(cache_path, extended)
        assert stale.lookup(str(tmp_path / "dirty.py"),
                            file_digest(DIRTY.encode())) is None

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        cache = LintCache.load(str(cache_path), code_rule_registry())
        assert cache.lookup("anything.py", "digest") is None

    def test_schema_1_cache_loads_empty(self, tmp_path, monkeypatch):
        # Schema-1 entries also carried a concurrency summary and a
        # suppression map.  Such a file must read as empty, so the run
        # re-analyzes every file rather than trusting or crashing on it.
        root = write_tree(tmp_path)
        registry = code_rule_registry()
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA", 1)
            schema_1 = rules_fingerprint(registry)
        assert schema_1 != rules_fingerprint(registry)
        dirty = str(tmp_path / "dirty.py")
        cache_path = tmp_path / "cache.json"
        cache_path.write_text(json.dumps({
            "fingerprint": schema_1,
            "files": {dirty: {
                "digest": file_digest(DIRTY.encode()),
                "findings": [],
                "summary": {"path": dirty, "locks": []},
                "suppressions": {"2": []},
            }},
        }))
        cache = LintCache.load(str(cache_path), registry)
        report = analyze_paths([root], cache=cache)
        assert cache.hits == 0 and cache.misses == 5
        assert [f.rule for f in report] == ["CD006"]

    def test_stats_line_format(self, tmp_path):
        cache = LintCache.load(str(tmp_path / "c.json"),
                               code_rule_registry())
        cache.lookup("a.py", "x")
        assert cache.stats_line() == "lint cache: hits=0 misses=1 files=1"

    def test_cached_findings_round_trip(self, tmp_path):
        root = write_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")
        registry = code_rule_registry()
        cache = LintCache.load(cache_path, registry)
        first = analyze_paths([root], cache=cache)
        assert any(f.rule == "CD006" for f in first)
        cache.save()

        warm = LintCache.load(cache_path, registry)
        second = analyze_paths([root], cache=warm)
        assert [f.as_dict() for f in second] == \
            [f.as_dict() for f in first]


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


class TestParallelAnalysis:
    def test_jobs_match_serial_results(self, tmp_path):
        root = write_tree(tmp_path)
        serial = analyze_paths([root])
        parallel = analyze_paths([root], jobs=2)
        assert [f.as_dict() for f in serial.sorted()] == \
            [f.as_dict() for f in parallel.sorted()]

    def test_custom_registry_forces_serial(self, tmp_path):
        root = write_tree(tmp_path)
        registry = RuleRegistry([])
        report = analyze_paths([root], registry=registry, jobs=4)
        assert len(report) == 0  # no rules, no findings — and no crash
