"""Unit tests for the AST code analyzer (Pillar 2) rules."""

import os
import textwrap

from repro.lint.code import analyze_paths, analyze_source, iter_python_files
from repro.lint.core import Severity


def run(source):
    return analyze_source(textwrap.dedent(source), path="snippet.py")


def rules_found(report):
    return {f.rule for f in report}


class TestUnlockedSharedMutation:
    LOCKED_CLASS = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1
    """

    def test_clean_when_mutation_is_guarded(self):
        assert "CD001" not in rules_found(run(self.LOCKED_CLASS))

    def test_flags_unguarded_mutation(self):
        report = run("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    self.count += 1
        """)
        finding = next(f for f in report if f.rule == "CD001")
        assert "Counter.bump" in finding.message
        assert finding.file == "snippet.py"

    def test_private_methods_exempt(self):
        assert "CD001" not in rules_found(run("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def _bump_locked(self):
                    self.count += 1
        """))

    def test_lockless_class_not_checked(self):
        assert "CD001" not in rules_found(run("""
            class Plain:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
        """))

    def test_public_unguarded_write_flagged(self):
        report = run("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._lock:
                        self.total += n

                def reset(self):
                    self.total = 0
        """)
        findings = [f for f in report if f.rule == "CD001"]
        assert any("reset" in f.message for f in findings)
        assert not any("Counter.add" in f.message for f in findings)

    def test_private_helper_called_under_lock_is_clean(self):
        assert "CD001" not in rules_found(run("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._lock:
                        self._bump(n)

                def _bump(self, n):
                    self.total += n
        """))


class TestBlockingCallInHandler:
    def test_sleep_in_handler_flagged(self):
        report = run("""
            import time

            class Brick:
                def handle(self, event):
                    time.sleep(1.0)
        """)
        finding = next(f for f in report if f.rule == "CD002")
        assert "sleep" in finding.message

    def test_untimed_join_flagged_timed_join_ok(self):
        bad = run("""
            class Brick:
                def on_stop(self, event):
                    self.thread.join()
        """)
        assert "CD002" in rules_found(bad)
        good = run("""
            class Brick:
                def on_stop(self, event):
                    self.thread.join(timeout=1.0)
        """)
        assert "CD002" not in rules_found(good)

    def test_str_join_not_flagged(self):
        assert "CD002" not in rules_found(run("""
            class Brick:
                def handle(self, event):
                    return ", ".join(event.parts)
        """))

    def test_non_handler_methods_may_block(self):
        assert "CD002" not in rules_found(run("""
            import time

            class Worker:
                def run_forever(self):
                    time.sleep(1.0)
        """))


class TestExplicitAcquire:
    def test_exception_path_leak_flagged(self):
        report = run("""
            class Guard:
                def update(self, value):
                    self._lock.acquire()
                    self.value = compute(value)
                    self._lock.release()
        """)
        finding = next(f for f in report if f.rule == "CD007")
        assert "self._lock.acquire" in finding.message
        assert finding.line == 4

    def test_return_between_acquire_and_release_flagged(self):
        report = run("""
            class Guard:
                def update(self, flag):
                    self._lock.acquire()
                    if flag:
                        return None
                    self._lock.release()
                    return True
        """)
        assert "CD007" in rules_found(report)

    def test_acquire_in_handler_is_one_finding(self):
        report = run("""
            class Brick:
                def handle(self, event):
                    self._lock.acquire()
                    try:
                        event.fire()
                    finally:
                        self._lock.release()
        """)
        assert [f.rule for f in report] == ["CD007"]

    def test_with_held_lock_is_clean(self):
        report = run("""
            import threading

            class Guard:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = None

                def update(self, value):
                    with self._lock:
                        self.value = value
        """)
        assert len(report) == 0


class TestBypassedRegistry:
    def test_shim_call_flagged(self):
        report = run("""
            def setup(analyzer, algo):
                analyzer.register_algorithm(algo)
        """)
        assert "CD003" in rules_found(report)

    def test_analyzer_module_itself_exempt(self):
        source = textwrap.dedent("""
            class Analyzer:
                def register_algorithm(self, algo):
                    self.registry.register_algorithm(algo)
        """)
        report = analyze_source(source, path="src/repro/core/analyzer.py")
        assert "CD003" not in rules_found(report)


class TestBareExcept:
    def test_bare_except_flagged(self):
        report = run("""
            def dispatch(event):
                try:
                    event.fire()
                except:
                    return None
        """)
        assert "CD004" in rules_found(report)

    def test_base_exception_without_reraise_flagged(self):
        report = run("""
            def dispatch(event):
                try:
                    event.fire()
                except BaseException:
                    return None
        """)
        assert "CD004" in rules_found(report)

    def test_reraise_is_allowed(self):
        report = run("""
            def dispatch(event):
                try:
                    event.fire()
                except BaseException:
                    event.cleanup()
                    raise
        """)
        assert "CD004" not in rules_found(report)


class TestSwallowedException:
    def test_except_pass_warns(self):
        report = run("""
            def quiet(op):
                try:
                    op()
                except ValueError:
                    pass
        """)
        finding = next(f for f in report if f.rule == "CD005")
        assert finding.severity is Severity.WARNING

    def test_handler_with_logic_ok(self):
        assert "CD005" not in rules_found(run("""
            def quiet(op):
                try:
                    op()
                except ValueError:
                    return None
        """))


class TestMutableDefault:
    def test_list_default_flagged(self):
        report = run("""
            def collect(items=[]):
                return items
        """)
        assert "CD006" in rules_found(report)

    def test_dict_call_default_flagged(self):
        assert "CD006" in rules_found(run("""
            def collect(*, cache=dict()):
                return cache
        """))

    def test_none_default_ok(self):
        assert "CD006" not in rules_found(run("""
            def collect(items=None):
                return items or []
        """))


class TestSuppressionAndErrors:
    def test_line_suppression_all_rules(self):
        report = run("""
            def collect(items=[]):  # lint: ignore
                return items
        """)
        assert "CD006" not in rules_found(report)

    def test_line_suppression_specific_rule(self):
        suppressed = run("""
            def collect(items=[]):  # lint: ignore[CD006]
                return items
        """)
        assert "CD006" not in rules_found(suppressed)
        other = run("""
            def collect(items=[]):  # lint: ignore[CD001]
                return items
        """)
        assert "CD006" in rules_found(other)

    def test_multiline_statement_ignore_on_any_line(self):
        # The finding points at the `[]` default on the first line; the
        # ignore comment sits on the second physical line of the same
        # statement.  Suppression must cover the whole span.
        report = run("""
            def collect(items=[],
                        extra=None):  # lint: ignore[CD006]
                return items
        """)
        assert "CD006" not in rules_found(report)

    def test_multiline_call_ignore_on_last_line(self):
        report = run("""
            def setup(analyzer, algo):
                analyzer.register_algorithm(
                    "swap", algo)  # lint: ignore[CD003]
        """)
        assert "CD003" not in rules_found(report)
        unsuppressed = run("""
            def setup(analyzer, algo):
                analyzer.register_algorithm(
                    "swap", algo)
        """)
        assert "CD003" in rules_found(unsuppressed)

    def test_ignore_inside_body_does_not_blanket_compound(self):
        # An ignore on a body line suppresses that statement, not the
        # whole enclosing function/loop.
        report = run("""
            def setup(analyzer, algo, items=[]):
                analyzer.register_algorithm(
                    "swap", algo)  # lint: ignore[CD003]
                return items
        """)
        assert "CD003" not in rules_found(report)
        assert "CD006" in rules_found(report)

    def test_syntax_error_becomes_finding(self):
        report = analyze_source("def broken(:\n", path="bad.py")
        finding = next(iter(report))
        assert finding.rule == "CD000"
        assert finding.severity is Severity.ERROR


class TestFileWalking:
    def test_iter_python_files(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-310.py").write_text("")
        (tmp_path / "pkg" / "notes.txt").write_text("")
        files = iter_python_files([str(tmp_path)])
        assert files == [str(tmp_path / "pkg" / "a.py")]

    def test_analyze_paths_aggregates(self, tmp_path):
        (tmp_path / "one.py").write_text("def f(x=[]):\n    return x\n")
        (tmp_path / "two.py").write_text("y = 2\n")
        report = analyze_paths([str(tmp_path)])
        assert rules_found(report) == {"CD006"}

    def test_repository_source_is_clean(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src", "repro")
        report = analyze_paths([os.path.normpath(src)])
        assert not report.has_errors, "\n".join(str(f) for f in report)
