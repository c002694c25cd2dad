"""Tests for unguarded writes to lock-protected state (rule CD001)."""

import textwrap

from repro.lint.code import analyze_source


def cd001_findings(source, path="mod.py"):
    report = analyze_source(textwrap.dedent(source), path=path)
    return [f for f in report if f.rule == "CD001"]


class TestUnlockedSharedWrite:
    def test_public_unguarded_write_flagged(self):
        findings = cd001_findings("""
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
        assert any("reset" in f.message for f in findings)
        assert not any("Counter.add" in f.message for f in findings)

    def test_init_and_guarded_writes_clean(self):
        findings = cd001_findings("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._lock:
                        self.total += n
        """)
        assert not findings

    def test_private_helper_called_under_lock_is_clean(self):
        findings = cd001_findings("""
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
        """)
        assert not findings
