"""Lint baselines: a recorded set of accepted findings.

A baseline file maps each finding to a line-number-independent
fingerprint (``rule|file|message``), so a team can adopt a new rule
without first fixing every historical hit, while new findings still
fail CI.  The repo's own gate intentionally runs with an **empty**
baseline.
"""

from __future__ import annotations

import hashlib
import json
from typing import Set

from repro.core.errors import ReproError
from repro.lint.core import Finding, LintReport


def finding_fingerprint(finding: Finding) -> str:
    """Stable identity of a finding across unrelated edits.

    Deliberately excludes the line number: inserting a line above an
    accepted finding moves it but does not make it new.
    """
    text = f"{finding.rule}|{finding.file or finding.subject}|" \
           f"{finding.message}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def write_baseline(report: LintReport, path: str) -> int:
    """Record every finding in *report* as accepted; returns the count."""
    fingerprints = sorted({finding_fingerprint(f) for f in report})
    payload = {"version": 1, "fingerprints": fingerprints}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(fingerprints)


def load_baseline(path: str) -> Set[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read baseline {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"baseline {path!r} is not valid JSON") from exc
    fingerprints = data.get("fingerprints") if isinstance(data, dict) else None
    if not isinstance(fingerprints, list):
        raise ReproError(f"baseline {path!r} has no 'fingerprints' list")
    return set(fingerprints)


def apply_baseline(report: LintReport,
                   fingerprints: Set[str]) -> LintReport:
    """Drop findings whose fingerprint appears in *fingerprints*."""
    return LintReport([f for f in report
                       if finding_fingerprint(f) not in fingerprints])
