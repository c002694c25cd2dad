"""Pillar 2 — the code analyzer: AST rules for this repository's conventions.

Generic linters cannot know that a :class:`~repro.middleware.scaffold.Scaffold`
serializes handlers per brick, that algorithms are (un)registered through
:class:`~repro.core.registry.AlgorithmRegistry` rather than the removed
``Analyzer.register_algorithm`` shim, that a blocking call inside an
event handler stalls a whole dispatch queue, or that locks here are
only ever taken in ``with`` blocks.  These rules do.  Every rule looks
at one file at a time.  Run them with ``python -m repro lint --code
[paths]`` (CI runs them over ``src/``).

Findings on a line carrying ``# lint: ignore`` (or
``# lint: ignore[CD001]`` for a specific rule) are suppressed, mirroring
``noqa`` so deliberate exceptions stay visible in the diff.
"""

from __future__ import annotations

import ast
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type,
)

from repro.core.errors import ReproError
from repro.lint.cache import LintCache, file_digest
from repro.lint.core import (
    Finding, LintReport, Rule, RuleRegistry, Severity,
)

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9, ]+)\])?")

#: Names whose construction marks an attribute as a lock (CD001).
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore",
                   "BoundedSemaphore"}

#: Method-name shapes treated as event-handler entry points (CD002).
_HANDLER_PREFIXES = ("handle", "on_", "_on_")
_HANDLER_NAMES = {"handle", "notify", "notify_monitors"}

#: Statements with a header and an indented body; a suppression spreads
#: over the header only.
COMPOUND_STATEMENTS = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
                       ast.AsyncWith, ast.Try, ast.Match, ast.FunctionDef,
                       ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class CodeLintContext:
    """One parsed source file."""

    path: str
    source: str
    tree: ast.AST

    #: line number -> set of suppressed rule ids (empty set = all rules).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    #: Every node of *tree* in ``ast.walk`` order, walked once and shared
    #: by the rules.
    nodes: Tuple[ast.AST, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.nodes = tuple(ast.walk(self.tree))

    @classmethod
    def parse(cls, source: str, path: str = "<string>") -> "CodeLintContext":
        context = cls(path, source, ast.parse(source, filename=path))
        for number, text in enumerate(source.splitlines(), start=1):
            match = _IGNORE_RE.search(text)
            if match:
                ids = match.group(1)
                context.suppressions[number] = (
                    {part.strip() for part in ids.split(",")} if ids
                    else set())
        _spread_over_statements(context.suppressions, context.nodes)
        return context

    def is_suppressed(self, finding: Finding) -> bool:
        ids = self.suppressions.get(finding.line or -1)
        if ids is None:
            return False
        return not ids or finding.rule in ids


def _spread_over_statements(suppressions: Dict[int, Set[str]],
                            nodes: Iterable[ast.AST]) -> None:
    """Extend per-line suppressions across multi-line statements.

    A rule reports the line of the node it flagged, but an ignore
    comment can only sit on one physical line of the statement; the two
    need not coincide for a call spanning several lines.  So a comment
    on *any* line of a statement's span suppresses findings on *every*
    line of that span.  Compound statements spread over their header
    only (an ignore inside a loop body must not blanket the loop).
    """
    if not suppressions:
        return
    for node in nodes:
        if not isinstance(node, ast.stmt):
            continue
        first = node.lineno
        last = node.end_lineno or first
        if isinstance(node, COMPOUND_STATEMENTS):
            bodies = [getattr(node, "body", None)]
            heads = [part[0].lineno for part in bodies if part]
            last = min([last] + [head - 1 for head in heads])
        span = range(first, last + 1)
        hits = [suppressions[line] for line in span if line in suppressions]
        if not hits:
            continue
        merged: Optional[Set[str]] = set()
        for ids in hits:
            if not ids:  # blanket `# lint: ignore`
                merged = set()
                break
            merged.update(ids)
        for line in span:
            existing = suppressions.get(line)
            if existing is None:
                suppressions[line] = set(merged)
            elif existing and merged:
                existing.update(merged)
            else:  # either side blanket-suppresses: blanket wins
                suppressions[line] = set()


class CodeRule(Rule):
    """Base class for rules over :class:`CodeLintContext`."""

    def check(self, context: CodeLintContext) -> Iterable[Finding]:
        raise NotImplementedError


def _is_lock_factory(value: ast.AST) -> bool:
    """True for ``threading.Lock()``, ``Lock()``, ``threading.RLock()``..."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    return False


def _self_attribute(node: ast.AST) -> Optional[str]:
    """The attribute name when *node* is ``self.<attr>``, else None."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _mentions_lock(node: ast.AST, lock_attrs: Set[str]) -> bool:
    """Whether any ``self.<lock>`` appears anywhere under *node*."""
    return any(_self_attribute(sub) in lock_attrs for sub in ast.walk(node))


class UnlockedSharedMutationRule(CodeRule):
    rule_id = "CD001"
    severity = Severity.ERROR
    description = ("Classes that create a lock in __init__ declare a lock "
                   "discipline: public methods must mutate self attributes "
                   "only inside a `with <lock>:` block.")
    tags = frozenset({"concurrency"})

    def check(self, context: CodeLintContext) -> Iterable[Finding]:
        for node in context.nodes:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(context, node)

    def _check_class(self, context: CodeLintContext,
                     cls: ast.ClassDef) -> Iterable[Finding]:
        lock_attrs = self._lock_attributes(cls)
        if not lock_attrs:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            # Private helpers are presumed to be called with the lock held
            # by their public callers; flagging them would force lock
            # reentrancy everywhere.
            if method.name.startswith("_"):
                continue
            yield from self._check_method(context, cls, method, lock_attrs)

    @staticmethod
    def _lock_attributes(cls: ast.ClassDef) -> Set[str]:
        locks: Set[str] = set()
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and \
                    method.name == "__init__":
                for node in ast.walk(method):
                    if isinstance(node, ast.Assign) and \
                            _is_lock_factory(node.value):
                        for target in node.targets:
                            attr = _self_attribute(target)
                            if attr is not None:
                                locks.add(attr)
        return locks

    def _check_method(self, context: CodeLintContext, cls: ast.ClassDef,
                      method: ast.AST,
                      lock_attrs: Set[str]) -> Iterable[Finding]:
        guarded: Set[int] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.With) and any(
                    _mentions_lock(item.context_expr, lock_attrs)
                    for item in node.items):
                guarded.update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(method):
            if id(node) in guarded:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    attr = _self_attribute(target)
                    if attr is not None and attr not in lock_attrs:
                        yield self.finding(
                            f"{cls.name}.{method.name} mutates self."
                            f"{attr} outside the lock "
                            f"({', '.join(sorted(lock_attrs))})",
                            file=context.path, line=node.lineno)


class BlockingCallInHandlerRule(CodeRule):
    rule_id = "CD002"
    severity = Severity.ERROR
    description = ("Event-handler methods (handle*/on_*/notify*) must not "
                   "block: a sleeping handler stalls its scaffold's entire "
                   "dispatch queue.")
    tags = frozenset({"concurrency"})

    def check(self, context: CodeLintContext) -> Iterable[Finding]:
        for node in context.nodes:
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) and \
                            self._is_handler(method.name):
                        yield from self._check_body(context, node.name,
                                                    method)

    @staticmethod
    def _is_handler(name: str) -> bool:
        return name in _HANDLER_NAMES or \
            any(name.startswith(p) for p in _HANDLER_PREFIXES)

    def _check_body(self, context: CodeLintContext, cls_name: str,
                    method: ast.AST) -> Iterable[Finding]:
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            label = self._blocking_label(node)
            if label is not None:
                yield self.finding(
                    f"{cls_name}.{method.name} calls blocking {label} "
                    "inside an event handler",
                    file=context.path, line=node.lineno)

    @staticmethod
    def _blocking_label(call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Attribute):
            # time.sleep(...) — any `<x>.sleep(...)` attribute call.
            if func.attr == "sleep":
                return f"{ast.unparse(func)}()"
            # Unbounded thread/queue joins and waits: no positional args
            # (str.join(iterable) takes one; .wait(5.0) is bounded) and no
            # timeout keyword that bounds the wait.  Explicit acquires
            # are CD007's, wherever they appear.
            if func.attr in ("join", "wait"):
                bounded = any(kw.arg == "timeout" for kw in call.keywords)
                if not call.args and not bounded:
                    return f".{func.attr}()"
        return None


class BypassedRegistryRule(CodeRule):
    rule_id = "CD003"
    severity = Severity.ERROR
    description = ("Algorithm (un)registration must go through "
                   "AlgorithmRegistry; the Analyzer "
                   "register_algorithm/unregister_algorithm shims were "
                   "removed.")
    tags = frozenset({"api"})

    _SHIMS = {"register_algorithm", "unregister_algorithm"}

    def check(self, context: CodeLintContext) -> Iterable[Finding]:
        # analyzer.py owns the analyzer's registry wiring; it is exempt.
        if os.path.basename(context.path) == "analyzer.py":
            return
        for node in context.nodes:
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in self._SHIMS:
                yield self.finding(
                    f"call to removed {node.func.attr}() bypasses "
                    "AlgorithmRegistry; use .registry.register(...) "
                    "instead",
                    file=context.path, line=node.lineno)


class BareExceptRule(CodeRule):
    rule_id = "CD004"
    severity = Severity.ERROR
    description = ("No bare `except:` (or `except BaseException:` without "
                   "re-raise): middleware dispatch paths must never eat "
                   "KeyboardInterrupt/SystemExit.")
    tags = frozenset({"errors"})

    def check(self, context: CodeLintContext) -> Iterable[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name) and
                node.type.id == "BaseException")
            if not broad:
                continue
            reraises = any(isinstance(sub, ast.Raise) and sub.exc is None
                           for sub in ast.walk(node))
            if not reraises:
                label = ("bare except:" if node.type is None
                         else "except BaseException:")
                yield self.finding(
                    f"{label} swallows exit exceptions; catch a concrete "
                    "error class",
                    file=context.path, line=node.lineno)


class SwallowedExceptionRule(CodeRule):
    rule_id = "CD005"
    severity = Severity.WARNING
    description = ("An except handler whose whole body is `pass` hides "
                   "failures; use contextlib.suppress to make the intent "
                   "explicit.")
    tags = frozenset({"errors"})

    def check(self, context: CodeLintContext) -> Iterable[Finding]:
        for node in context.nodes:
            if isinstance(node, ast.ExceptHandler) and \
                    len(node.body) == 1 and \
                    isinstance(node.body[0], ast.Pass):
                yield self.finding(
                    "exception silently swallowed (body is just `pass`); "
                    "use contextlib.suppress(...) instead",
                    file=context.path, line=node.lineno)


class MutableDefaultRule(CodeRule):
    rule_id = "CD006"
    severity = Severity.ERROR
    description = ("Mutable default arguments ([] {} set()) are shared "
                   "across calls.")
    tags = frozenset({"api"})

    def check(self, context: CodeLintContext) -> Iterable[Finding]:
        for node in context.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None]:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                        isinstance(default, ast.Call) and
                        isinstance(default.func, ast.Name) and
                        default.func.id in ("list", "dict", "set")):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        f"{name}() has a mutable default argument",
                        file=context.path, line=default.lineno)


class ExplicitAcquireRule(CodeRule):
    rule_id = "CD007"
    severity = Severity.ERROR
    description = ("Locks are taken in a `with` block: an explicit "
                   "`.acquire()` leaks the lock on any return or "
                   "exception that skips its `.release()`.")
    tags = frozenset({"concurrency"})

    def check(self, context: CodeLintContext) -> Iterable[Finding]:
        for node in context.nodes:
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "acquire":
                yield self.finding(
                    f"explicit {ast.unparse(node.func)}(); take the lock "
                    "in a `with` block",
                    file=context.path, line=node.lineno)


CODE_RULES: Tuple[Type[CodeRule], ...] = (
    UnlockedSharedMutationRule,
    BlockingCallInHandlerRule,
    BypassedRegistryRule,
    BareExceptRule,
    SwallowedExceptionRule,
    MutableDefaultRule,
    ExplicitAcquireRule,
)


def code_rule_registry() -> RuleRegistry:
    """A fresh registry holding the built-in code analyzer rules.

    These are the AST rules (CD00x) and the determinism pack (DT00x).
    """
    from repro.lint.determinism import DETERMINISM_RULES
    return RuleRegistry(cls() for cls in CODE_RULES + DETERMINISM_RULES)


def analyze_source(source: str, path: str = "<string>",
                   registry: Optional[RuleRegistry] = None) -> LintReport:
    """Analyze one source string; syntax errors become findings."""
    try:
        context = CodeLintContext.parse(source, path)
    except SyntaxError as exc:
        report = LintReport()
        report.add(Finding("CD000", Severity.ERROR,
                           f"syntax error: {exc.msg}", file=path,
                           line=exc.lineno))
        return report
    active = registry if registry is not None else code_rule_registry()
    return LintReport([f for f in active.run(context)
                       if not context.is_suppressed(f)]).sorted()


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                out.extend(os.path.join(root, name)
                           for name in sorted(files)
                           if name.endswith(".py"))
        elif os.path.isfile(path):
            out.append(path)
        else:
            raise ReproError(f"no such file or directory: {path!r}")
    return out


def _analyze_file(filename: str, data: bytes,
                  registry: Optional[RuleRegistry] = None
                  ) -> List[Dict[str, Any]]:
    """Analyze one file's bytes into JSON-able finding records.

    This shape is what both the result cache stores and the worker
    processes of ``--jobs N`` return, with suppression already applied.
    It must stay picklable and registry-free so it can cross process
    boundaries.
    """
    report = analyze_source(data.decode("utf-8"), filename, registry)
    return [f.as_dict() for f in report]


def _worker_analyze(job: Tuple[str, bytes]) -> List[Dict[str, Any]]:
    """Top-level entry point for ``--jobs`` worker processes (must be
    importable by name; always uses the default rule registry)."""
    filename, data = job
    return _analyze_file(filename, data)


def analyze_paths(paths: Sequence[str],
                  registry: Optional[RuleRegistry] = None,
                  jobs: int = 1,
                  cache: Optional[LintCache] = None) -> LintReport:
    """Analyze every ``.py`` file under *paths* into one report.

    Each file is read once.  Its findings come from *cache* when the
    file's content hash is there, and otherwise from the rules, fanned
    out over *jobs* worker processes when > 1.  A custom *registry*
    forces serial in-process analysis with no cache: rule instances are
    not shipped to workers, and the cache the CLI loads is
    fingerprinted against the default rule set.
    """
    filenames = iter_python_files(paths)
    use_cache = cache is not None and registry is None
    found: Dict[str, Tuple[Finding, ...]] = {}
    digests: Dict[str, str] = {}
    pending: List[Tuple[str, bytes]] = []
    for filename in filenames:
        with open(filename, "rb") as handle:
            data = handle.read()
        if use_cache:
            digest = digests[filename] = file_digest(data)
            entry = cache.lookup(filename, digest)
            if entry is not None:
                found[filename] = LintCache.entry_findings(entry)
                continue
        pending.append((filename, data))

    if jobs > 1 and registry is None and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker_analyze, pending))
    else:
        results = [_analyze_file(filename, data, registry)
                   for filename, data in pending]

    for (filename, _), records in zip(pending, results):
        found[filename] = tuple(Finding.from_dict(d) for d in records)
        if use_cache:
            cache.store(filename, digests[filename], found[filename])

    report = LintReport()
    for filename in filenames:
        report.extend(found[filename])
    return report.sorted()
