"""Rule-engine core shared by the model verifier and the code analyzer.

Dearle et al.'s constraint-based deployment middleware (arXiv:1006.4733)
argues that deployment constraints should be checked *statically, before
enactment* — an autonomic manager that only discovers invalid inputs
mid-migration has already lost.  This package gives the reproduction that
layer.  The machinery here is deliberately generic:

* :class:`Severity` — ``error``/``warning``/``info`` levels with ordering;
* :class:`Finding` — one machine-readable diagnostic;
* :class:`Rule` — a named, tagged check producing findings from a context;
* :class:`RuleRegistry` — the pluggable catalog rules register into;
* :class:`LintReport` — an aggregation with filtering and exit-code logic;
* :func:`render_text` / :func:`render_json` — the two reporters.

The two pillars — :mod:`repro.lint.model_rules` (deployment models) and
:mod:`repro.lint.code` (AST conventions) — are just rule sets over
different context types plugged into this engine.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.errors import ReproError
from repro.core.report import ReportBase


class Severity(enum.IntEnum):
    """Diagnostic severity; comparisons follow escalation order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ReproError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.label for s in cls]}") from None


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule.

    ``subject`` identifies what the finding is about (an entity id for
    model rules, unused for code rules where ``file``/``line`` locate it).
    """

    rule: str
    severity: Severity
    message: str
    subject: str = ""
    file: Optional[str] = None
    line: Optional[int] = None
    col: Optional[int] = None
    detail: Mapping[str, Any] = field(default_factory=dict)

    def location(self) -> str:
        if self.file is not None:
            return f"{self.file}:{self.line}" if self.line else self.file
        return self.subject

    def sort_key(self) -> Tuple[Any, ...]:
        """Location-major ordering: (path, line, col, rule id, ...).

        Findings sort by where they are, not how bad they are, so output
        is stable as rules evolve and diffs stay local to edited files.
        """
        return (self.file or "", self.line or 0, self.col or 0, self.rule,
                self.subject, -self.severity, self.message)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.label,
            "message": self.message,
        }
        if self.subject:
            out["subject"] = self.subject
        if self.file is not None:
            out["file"] = self.file
        if self.line is not None:
            out["line"] = self.line
        if self.col is not None:
            out["col"] = self.col
        if self.detail:
            out["detail"] = dict(self.detail)
        return out

    def __str__(self) -> str:
        where = self.location()
        prefix = f"{where}: " if where else ""
        return f"{prefix}{self.message} [{self.rule}]"


class Rule:
    """A named static check.

    Subclasses set the class attributes and implement :meth:`check`, which
    receives a context object (whose type depends on the pillar: a
    :class:`~repro.lint.model_rules.ModelLintContext` or a
    :class:`~repro.lint.code.CodeLintContext`) and yields findings.
    """

    #: Stable identifier, e.g. ``"MV003"``; used for suppression and docs.
    rule_id: str = ""
    #: Default severity of findings this rule emits.
    severity: Severity = Severity.ERROR
    #: One-line description for the rule catalog.
    description: str = ""
    #: Free-form grouping labels; registries can run tag subsets (the
    #: effector pre-flight runs only rules tagged ``"deployment"``).
    tags: frozenset = frozenset()

    def check(self, context: Any) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, message: str, subject: str = "",
                severity: Optional[Severity] = None,
                file: Optional[str] = None, line: Optional[int] = None,
                col: Optional[int] = None, **detail: Any) -> Finding:
        """Convenience constructor stamped with this rule's id/severity."""
        return Finding(self.rule_id, severity or self.severity, message,
                       subject=subject, file=file, line=line, col=col,
                       detail=detail)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.rule_id!r})"


@dataclass
class LintReport(ReportBase):
    """All findings of one verification run."""

    findings: List[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "LintReport") -> "LintReport":
        self.findings.extend(other.findings)
        return self

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def by_severity(self, severity: Severity) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == severity)

    @property
    def errors(self) -> Tuple[Finding, ...]:
        return self.by_severity(Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        return any(f.severity >= Severity.ERROR for f in self.findings)

    def counts(self) -> Dict[str, int]:
        out = {s.label: 0 for s in Severity}
        for finding in self.findings:
            out[finding.severity.label] += 1
        return out

    def at_least(self, severity: Severity) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity >= severity)

    def exit_code(self, fail_on: Severity = Severity.ERROR) -> int:
        """CLI/CI convention: 1 when findings at/above *fail_on* exist."""
        return 1 if self.at_least(fail_on) else 0

    def sorted(self) -> "LintReport":
        """Deterministic order: by (path, line, col, rule id), deduped.

        Identical findings collapse to one (a file reached through two
        input paths, or a rule run twice, must not double-report), so
        JSON/SARIF output is byte-identical run to run.
        """
        seen = set()
        unique: List[Finding] = []
        for finding in sorted(self.findings, key=Finding.sort_key):
            key = (finding.rule, finding.severity, finding.message,
                   finding.subject, finding.file, finding.line, finding.col,
                   tuple(sorted((k, repr(v))
                                for k, v in finding.detail.items())))
            if key in seen:
                continue
            seen.add(key)
            unique.append(finding)
        return LintReport(unique)

    # -- Report protocol (delegates to the module-level reporters) -----
    def to_dict(self, title: str = "", **opts: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "findings": [f.as_dict() for f in self.sorted()],
            "summary": self.counts(),
        }
        if title:
            payload["target"] = title
        return payload

    def render(self, title: str = "", **opts: Any) -> str:
        return render_text(self, title=title)

    def summary_line(self) -> str:
        counts = self.counts()
        parts = ", ".join(f"{counts[s.label]} {s.label}(s)"
                          for s in sorted(Severity, reverse=True)
                          if counts[s.label])
        return parts if parts else "clean"


class RuleRegistry:
    """Pluggable catalog of rules.

    Rules register under their ``rule_id``; downstream users extend the
    verifier by subclassing :class:`Rule` and calling :meth:`register` (see
    ``docs/STATIC_ANALYSIS.md``).
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: Dict[str, Rule] = {}
        for rule in rules:
            self.register(rule)

    def register(self, rule: Rule, replace: bool = False) -> Rule:
        if isinstance(rule, type):
            rule = rule()
        if not rule.rule_id:
            raise ReproError(f"rule {rule!r} has no rule_id")
        if rule.rule_id in self._rules and not replace:
            raise ReproError(f"rule {rule.rule_id!r} already registered")
        self._rules[rule.rule_id] = rule
        return rule

    def unregister(self, rule_id: str) -> None:
        if rule_id not in self._rules:
            raise ReproError(f"rule {rule_id!r} is not registered")
        del self._rules[rule_id]

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise ReproError(f"rule {rule_id!r} is not registered") from None

    def rules(self, tags: Optional[Iterable[str]] = None,
              only: Optional[Iterable[str]] = None) -> Tuple[Rule, ...]:
        """Registered rules, optionally restricted to *tags* and/or ids."""
        wanted_tags = None if tags is None else set(tags)
        wanted_ids = None if only is None else set(only)
        selected = []
        for rule_id in sorted(self._rules):
            rule = self._rules[rule_id]
            if wanted_ids is not None and rule_id not in wanted_ids:
                continue
            if wanted_tags is not None and not (wanted_tags & rule.tags):
                continue
            selected.append(rule)
        return tuple(selected)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules())

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def copy(self) -> "RuleRegistry":
        return RuleRegistry(self._rules.values())

    def run(self, context: Any, tags: Optional[Iterable[str]] = None,
            only: Optional[Iterable[str]] = None) -> LintReport:
        """Apply the (selected) rules to *context*.

        A crashing rule must not abort verification of everything else, so
        unexpected exceptions surface as error findings against the rule
        itself (the same contract pylint/ruff follow for plugin crashes).
        """
        report = LintReport()
        for rule in self.rules(tags=tags, only=only):
            try:
                report.extend(rule.check(context))
            except Exception as exc:  # noqa: BLE001 — isolate rule crashes
                report.add(Finding(
                    rule.rule_id, Severity.ERROR,
                    f"rule crashed: {type(exc).__name__}: {exc}",
                    detail={"crash": True}))
        return report.sorted()


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------

def render_text(report: LintReport, title: str = "") -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: List[str] = []
    if title:
        lines.append(title)
    for finding in report.sorted():
        lines.append(f"  {finding.severity.label:<7} {finding}")
    counts = report.counts()
    summary = ", ".join(f"{counts[s.label]} {s.label}(s)"
                        for s in sorted(Severity, reverse=True)
                        if counts[s.label])
    lines.append(f"  {summary}" if summary else "  clean")
    return "\n".join(lines)


def render_json(report: LintReport, title: str = "") -> str:
    """Machine-readable report (stable key order for diffing in CI)."""
    payload: Dict[str, Any] = {
        "findings": [f.as_dict() for f in report.sorted()],
        "summary": report.counts(),
    }
    if title:
        payload["target"] = title
    return json.dumps(payload, indent=2, sort_keys=True)
