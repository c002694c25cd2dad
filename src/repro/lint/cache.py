"""Persistence plumbing for the linter: result cache and baselines.

Two independent mechanisms share this module because both are about
lint runs remembering earlier lint runs:

* :class:`LintCache` — a content-hash result cache.  Each analyzed file
  is keyed by its path and the SHA-256 of its bytes, together with a
  fingerprint of the active rule set; a re-run over an unchanged tree
  re-parses nothing and is near-instant.  Every code rule looks at one
  file, so a cached entry is just that file's findings.
* **Baselines** — a recorded set of accepted findings.  A baseline file
  maps each finding to a line-number-independent fingerprint
  (``rule|file|message``), so a team can adopt a new rule without first
  fixing every historical hit, while new findings still fail CI.  The
  repo's own gate intentionally runs with an **empty** baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.core.errors import ReproError
from repro.lint.core import Finding, LintReport, RuleRegistry

#: Bump when the cache entry layout changes; old caches are discarded.
CACHE_SCHEMA = 2

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_PATH = ".repro-lint-cache.json"


def file_digest(data: bytes) -> str:
    """Content hash used as the cache key for one file."""
    return hashlib.sha256(data).hexdigest()


def rules_fingerprint(registry: RuleRegistry) -> str:
    """Hash of the active rule set (ids, severities, descriptions).

    Any change to what the rules *are* — a new rule, a reworded message
    category, a severity bump — must invalidate every cached result.
    """
    parts = [f"schema={CACHE_SCHEMA}"]
    for rule in registry:
        parts.append(
            f"{rule.rule_id}|{rule.severity.label}|{rule.description}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


class LintCache:
    """Content-addressed store of per-file lint results.

    Each entry is ``{digest, findings}``: the file's content hash and
    its (already suppression-filtered) findings, everything
    :func:`repro.lint.code.analyze_paths` needs to skip the file.
    """

    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._dirty = False

    # -- persistence ---------------------------------------------------
    @classmethod
    def load(cls, path: str, registry: RuleRegistry) -> "LintCache":
        """Open the cache at *path*; a missing, corrupt, or stale-schema
        file simply yields an empty cache (a cache must never make a
        run fail)."""
        cache = cls(path, rules_fingerprint(registry))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return cache
        if not isinstance(data, dict) or \
                data.get("fingerprint") != cache.fingerprint:
            return cache
        entries = data.get("files")
        if isinstance(entries, dict):
            cache._entries = entries
        return cache

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {"fingerprint": self.fingerprint, "files": self._entries}
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, self.path)
        self._dirty = False

    # -- lookup / store ------------------------------------------------
    def lookup(self, filename: str,
               digest: str) -> Optional[Dict[str, Any]]:
        """The cached entry for *filename* at *digest*, or None.

        Counts toward :attr:`hits` / :attr:`misses`; the stats line the
        CLI prints (and the CI cache smoke asserts on) comes from these.
        """
        entry = self._entries.get(filename)
        if entry is not None and entry.get("digest") == digest:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, filename: str, digest: str,
              findings: Iterable[Finding]) -> None:
        self._entries[filename] = {
            "digest": digest,
            "findings": [f.as_dict() for f in findings],
        }
        self._dirty = True

    def stats_line(self) -> str:
        total = self.hits + self.misses
        return f"lint cache: hits={self.hits} misses={self.misses} " \
               f"files={total}"

    @staticmethod
    def entry_findings(entry: Mapping[str, Any]) -> Tuple[Finding, ...]:
        return tuple(Finding.from_dict(d) for d in entry.get("findings", ()))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

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
