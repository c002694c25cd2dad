"""Tests for the determinism analysis pack (repro.lint.determinism)."""

import textwrap

from repro.lint.code import CodeLintContext
from repro.lint.determinism import (
    SetOrderEscapeRule, UnseededRandomRule, WallClockInReportRule,
)


def run_rule(rule_cls, source, path="mod.py"):
    context = CodeLintContext.parse(textwrap.dedent(source), path)
    return list(rule_cls().check(context))


class TestUnseededRandom:
    def test_global_rng_call_flagged(self):
        findings = run_rule(UnseededRandomRule, """
            import random

            def shuffle_hosts(hosts):
                random.shuffle(hosts)
                return hosts
        """)
        assert any(f.rule == "DT001" for f in findings)

    def test_numpy_global_rng_flagged(self):
        findings = run_rule(UnseededRandomRule, """
            import numpy as np

            def sample(n):
                return np.random.rand(n)
        """)
        assert any(f.rule == "DT001" for f in findings)

    def test_unseeded_generator_into_report_flagged(self):
        findings = run_rule(UnseededRandomRule, """
            import random

            def build_report(n):
                rng = random.Random()
                values = [rng.random() for _ in range(n)]
                return AvailabilityReport(values)
        """)
        flagged = [f for f in findings if f.rule == "DT001"]
        assert len(flagged) == 1
        assert "rng" in flagged[0].message

    def test_seeded_generator_clean(self):
        findings = run_rule(UnseededRandomRule, """
            import random

            def build(seed, n):
                rng = random.Random(seed)
                return [rng.random() for _ in range(n)]
        """)
        assert not findings

    def test_alias_of_unseeded_generator_tracked(self):
        findings = run_rule(UnseededRandomRule, """
            import random

            def build(n):
                rng = random.Random()
                shared = rng
                return shared.random()
        """)
        assert [(f.rule, f.line) for f in findings] == [("DT001", 5)]

    def test_flow_through_branch_tracked(self):
        findings = run_rule(UnseededRandomRule, """
            import random

            def build(flag):
                rng = random.Random()
                if flag:
                    return rng.random()
                return 0.0
        """)
        assert any(f.rule == "DT001" for f in findings)

    def test_derived_value_not_reported_as_generator(self):
        findings = run_rule(UnseededRandomRule, """
            import random

            def build(n):
                rng = random.Random()
                values = [rng.random() for _ in range(n)]
                return sum(values)
        """)
        assert all("values" not in f.message for f in findings)

    def test_random_seed_and_systemrandom_not_flagged(self):
        findings = run_rule(UnseededRandomRule, """
            import random

            def setup(seed):
                random.seed(seed)
        """)
        assert not findings

    def test_unseeded_generator_on_attribute_flagged(self):
        findings = run_rule(UnseededRandomRule, """
            import random

            class Shuffler:
                def __init__(self):
                    self.rng = random.Random()
        """)
        assert [(f.rule, f.line, f.col) for f in findings] == \
            [("DT001", 6, 19)]
        assert "'self.rng'" in findings[0].message

    def test_unseeded_generator_used_inline_flagged(self):
        findings = run_rule(UnseededRandomRule, """
            import random

            def shuffle(xs):
                random.Random().shuffle(xs)
        """)
        assert [(f.rule, f.line) for f in findings] == [("DT001", 5)]
        assert "unseeded generator" in findings[0].message

    def test_unseeded_numpy_generator_argument_flagged(self):
        findings = run_rule(UnseededRandomRule, """
            import numpy

            def sample(f):
                return f(numpy.random.default_rng())
        """)
        assert [(f.rule, f.line) for f in findings] == [("DT001", 5)]
        assert "numpy.random.default_rng() builds an unseeded generator" \
            in findings[0].message

    def test_none_seed_flagged(self):
        findings = run_rule(UnseededRandomRule, """
            import random
            from numpy.random import default_rng

            def build():
                return random.Random(None), default_rng(seed=None)
        """)
        assert [(f.rule, f.line) for f in findings] == \
            [("DT001", 6), ("DT001", 6)]

    def test_seeded_constructions_clean(self):
        findings = run_rule(UnseededRandomRule, """
            import random
            from random import Random

            import numpy as np

            def build(seed, s):
                random.seed(s)
                return (Random(seed), Random(0), random.Random(seed=seed),
                        np.random.default_rng(seed))
        """)
        assert not findings

    def test_seeded_numpy_constructors_clean(self):
        findings = run_rule(UnseededRandomRule, """
            import numpy as np

            def build(seed):
                return (np.random.RandomState(seed),
                        np.random.SeedSequence(seed),
                        np.random.Generator(np.random.PCG64(seed)))
        """)
        assert not findings

    def test_unseeded_numpy_constructors_flagged(self):
        findings = run_rule(UnseededRandomRule, """
            import numpy as np

            def build():
                return np.random.RandomState(), np.random.Generator(
                    np.random.PCG64())
        """)
        assert [(f.rule, f.line) for f in findings] == \
            [("DT001", 5), ("DT001", 6)]
        assert all("unseeded generator" in f.message for f in findings)


class TestWallClockInReport:
    def test_time_in_to_dict_flagged(self):
        findings = run_rule(WallClockInReportRule, """
            import time

            class Report:
                def to_dict(self):
                    return {"generated_at": time.time()}
        """)
        assert any(f.rule == "DT002" for f in findings)

    def test_datetime_now_in_render_flagged(self):
        findings = run_rule(WallClockInReportRule, """
            import datetime

            class Report:
                def render(self):
                    return f"as of {datetime.datetime.now()}"
        """)
        assert any(f.rule == "DT002" for f in findings)

    def test_perf_counter_outside_serialization_clean(self):
        # Timing a run and storing the elapsed value is legitimate (the
        # fault campaign runner does exactly this); only *serialization*
        # must not read clocks.
        findings = run_rule(WallClockInReportRule, """
            import time

            def run_campaign(plan):
                started = time.perf_counter()
                result = execute(plan)
                return Report(result, wall=time.perf_counter() - started)
        """)
        assert not findings


class TestSetOrderEscape:
    def test_set_literal_join_in_render_flagged(self):
        findings = run_rule(SetOrderEscapeRule, """
            class Report:
                def render(self):
                    return ", ".join({"b", "a"})
        """)
        assert any(f.rule == "DT003" for f in findings)

    def test_set_typed_name_flagged(self):
        findings = run_rule(SetOrderEscapeRule, """
            class Report:
                def to_dict(self):
                    tags = {"x", "y"}
                    return {"tags": [t for t in tags]}
        """)
        assert any(f.rule == "DT003" for f in findings)

    def test_sorted_wrapper_clean(self):
        findings = run_rule(SetOrderEscapeRule, """
            class Report:
                def render(self):
                    tags = {"b", "a"}
                    return ", ".join(sorted(tags))
        """)
        assert not findings

    def test_dict_iteration_clean(self):
        # Dicts iterate in insertion order — deterministic, not flagged.
        findings = run_rule(SetOrderEscapeRule, """
            class Report:
                def to_dict(self):
                    fields = {"a": 1, "b": 2}
                    return {k: v for k, v in fields.items()}
        """)
        assert not findings

    def test_non_serialization_method_clean(self):
        findings = run_rule(SetOrderEscapeRule, """
            class Worker:
                def poll(self):
                    for item in {"a", "b"}:
                        touch(item)
        """)
        assert not findings


class TestRepositoryIsDeterministic:
    def test_src_repro_has_no_determinism_findings(self):
        import os

        from repro.lint.code import iter_python_files
        rules = [UnseededRandomRule(), WallClockInReportRule(),
                 SetOrderEscapeRule()]
        offenders = []
        for filename in iter_python_files([os.path.join("src", "repro")]):
            with open(filename, "r", encoding="utf-8") as handle:
                context = CodeLintContext.parse(handle.read(), filename)
            for rule in rules:
                offenders.extend(rule.check(context))
        assert not offenders, [str(f) for f in offenders]
