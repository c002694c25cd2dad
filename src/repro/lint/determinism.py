"""Determinism analysis pack: seeded randomness, no wall clocks, no
hash-order leaks.

The repository's contract is that every report is byte-identical for the
same inputs and seed (serial vs ``workers=N`` sweeps, fault campaigns,
observability captures are all pinned by tests).  Three failure modes
keep breaking that contract in real systems, and all three are visible
statically with the :mod:`repro.lint.flow` dataflow machinery:

* **DT001** — the process-global RNG (``random.random()``,
  ``numpy.random.*``) or an *unseeded* generator
  (``random.Random()`` / ``default_rng()`` with no arguments) is used:
  results change run to run.  Reaching definitions track unseeded
  generators from construction to their use sites.
* **DT002** — wall-clock time (``time.time``/``perf_counter``/
  ``monotonic``, ``datetime.now``…) is read inside a serialization
  method (``to_dict``/``to_json``/``render``/``summary_line``…): the
  rendered artifact embeds the clock and can never be reproduced.
  (Capturing *elapsed* time into a field that canonical rendering
  excludes — ``include_timing=False`` — is fine and not flagged.)
* **DT003** — a ``set``'s iteration order escapes into rendered output:
  ``for x in some_set`` (or a comprehension / ``str.join``) inside a
  serialization method without a ``sorted(...)`` wrapper.  Reaching
  definitions resolve names back to set-typed assignments.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint import flow
from repro.lint.core import Finding, Rule, Severity
from repro.lint.flow import build_cfg, iter_functions

#: Functions that produce the canonical, rendered form of an artifact.
SERIALIZATION_NAMES = frozenset({
    "to_dict", "to_json", "as_dict", "render", "render_text",
    "render_json", "render_sarif", "summary_line", "summary", "dumps",
    "json_safe", "to_xml",
})

#: ``random.<fn>`` calls that do *not* consume the global RNG stream.
_RANDOM_NON_CONSUMING = frozenset({
    "Random", "SystemRandom", "seed", "getstate", "setstate",
})

_WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "clock",
})
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string when *node* is a plain attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_global_rng_call(call: ast.Call) -> bool:
    dotted = _dotted(call.func)
    if dotted is None:
        return False
    parts = dotted.split(".")
    if len(parts) == 2 and parts[0] == "random" and \
            parts[1] not in _RANDOM_NON_CONSUMING:
        return True
    # numpy.random.shuffle / np.random.rand / numpy.random.randint ...
    if len(parts) >= 3 and parts[-3] in ("numpy", "np") and \
            parts[-2] == "random":
        return True
    if len(parts) == 2 and parts[0] in ("numpy", "np") and \
            parts[1] == "random":  # np.random(...) misuse
        return True
    return False


def _is_unseeded_generator(call: ast.Call) -> bool:
    """``random.Random()`` / ``numpy.random.default_rng()`` with no
    seed argument."""
    if call.args or call.keywords:
        return False
    dotted = _dotted(call.func)
    if dotted is None:
        return False
    return dotted in ("random.Random", "Random") or \
        dotted.endswith("random.default_rng") or dotted == "default_rng"


def _is_wall_clock_call(call: ast.Call) -> bool:
    dotted = _dotted(call.func)
    if dotted is None:
        return False
    parts = dotted.split(".")
    if len(parts) >= 2 and parts[-2] == "time" and \
            parts[-1] in _WALL_CLOCK_ATTRS:
        return True
    if len(parts) >= 2 and parts[-1] in _DATETIME_ATTRS and \
            parts[-2] in ("datetime", "date"):
        return True
    return False


# ---------------------------------------------------------------------------
# Taint tracking over the CFG (reaching definitions of flagged values)
# ---------------------------------------------------------------------------

def tainted_uses(function: flow.FunctionNode,
                 is_source: Any) -> List[Tuple[str, int, int]]:
    """Where values produced by *is_source* calls flow, per function.

    Returns ``(name, def_line, use_line)`` triples: a variable assigned
    from a source expression (or from another tainted variable) whose
    value is *read* on ``use_line``.  Propagation runs on the function's
    CFG via reaching definitions, so flows through branches, loops and
    ``try`` blocks are followed; attribute/subscript stores are out of
    scope (intraprocedural only).
    """
    cfg = build_cfg(function)
    reaching = flow.ReachingDefinitions.at_statements(cfg)

    # Pass 1: assignment lines whose value *directly* contains a source.
    direct: Set[int] = set()
    assigns: Dict[int, ast.stmt] = {}
    for _, statement in cfg.statements():
        if isinstance(statement, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            assigns.setdefault(statement.lineno, statement)
            value = getattr(statement, "value", None)
            if value is not None and any(
                    isinstance(sub, ast.Call) and is_source(sub)
                    for sub in ast.walk(value)):
                direct.add(statement.lineno)

    # Pass 2: fixpoint — a plain alias (``r2 = rng``) of a tainted name
    # is tainted too.  Propagation stops at any other expression, so a
    # value *derived* from the generator (``vals = [rng.random()]``)
    # does not itself read as "an unseeded generator".
    tainted_defs: Set[Tuple[str, int]] = {
        (name, line) for line in direct
        for name in flow.assigned_names(assigns[line])}
    changed = True
    while changed:
        changed = False
        for _, statement in cfg.statements():
            if not (isinstance(statement, ast.Assign)
                    and isinstance(statement.value, ast.Name)):
                continue
            source = statement.value.id
            defs_here = reaching.get(id(statement), frozenset())
            if any((name, line) in tainted_defs
                   for name, line in defs_here if name == source):
                for target in flow.assigned_names(statement):
                    entry = (target, statement.lineno)
                    if entry not in tainted_defs:
                        tainted_defs.add(entry)
                        changed = True

    # Pass 3: report non-assignment reads of tainted definitions.
    uses: List[Tuple[str, int, int]] = []
    for _, statement in cfg.statements():
        reads = flow.used_names(statement)
        if not reads:
            continue
        defs_here = reaching.get(id(statement), frozenset())
        for name, line in sorted(defs_here):
            if name in reads and (name, line) in tainted_defs:
                uses.append((name, line, statement.lineno))
    return sorted(set(uses))


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class UnseededRandomRule(Rule):
    """DT001: all randomness must come from an explicitly seeded
    generator (``random.Random(seed)``), never the process-global RNG
    or an unseeded generator object."""

    rule_id = "DT001"
    severity = Severity.ERROR
    description = ("No process-global RNG (random.*, numpy.random.*) and "
                   "no unseeded generators (random.Random() / "
                   "default_rng() without a seed): results must be "
                   "reproducible from the run's seed.")
    tags = frozenset({"determinism"})

    def check(self, context: Any) -> Iterable[Finding]:
        source_lines: List[int] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_global_rng_call(node):
                label = _dotted(node.func)
                yield self.finding(
                    f"{label}() draws from the process-global RNG; use "
                    "an explicitly seeded random.Random(seed)",
                    file=context.path, line=node.lineno,
                    col=node.col_offset)
            if _is_unseeded_generator(node):
                source_lines.append(node.lineno)
        if not source_lines:
            return  # no generator is constructed, so nothing is tainted
        for function in iter_functions(context.tree):
            # A function with no source call inside it has no taint: skip
            # its CFG and dataflow.
            if not any(function.lineno <= line <= function.end_lineno
                       for line in source_lines):
                continue
            flows = tainted_uses(function, _is_unseeded_generator)
            reported: Set[Tuple[str, int]] = set()
            for name, def_line, use_line in flows:
                if (name, def_line) in reported:
                    continue
                reported.add((name, def_line))
                yield self.finding(
                    f"{name!r} is an unseeded generator (constructed "
                    f"line {def_line}) used on line {use_line}; pass a "
                    "seed so the stream is reproducible",
                    file=context.path, line=def_line,
                    flow=[def_line, use_line])


class WallClockInReportRule(Rule):
    """DT002: serialization must not read the wall clock."""

    rule_id = "DT002"
    severity = Severity.ERROR
    description = ("Serialization methods (to_dict/to_json/render/"
                   "summary_line/...) must not read wall-clock time "
                   "(time.time, perf_counter, datetime.now): rendered "
                   "reports must be byte-identical across runs.")
    tags = frozenset({"determinism"})

    def check(self, context: Any) -> Iterable[Finding]:
        for function in iter_functions(context.tree):
            if function.name not in SERIALIZATION_NAMES:
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and _is_wall_clock_call(node):
                    yield self.finding(
                        f"{function.name}() reads the wall clock "
                        f"({_dotted(node.func)}); rendered output must "
                        "not depend on when it is rendered",
                        file=context.path, line=node.lineno,
                        col=node.col_offset)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        if dotted in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference") and _is_set_expr(node.func.value):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class SetOrderEscapeRule(Rule):
    """DT003: set iteration order must not reach rendered output."""

    rule_id = "DT003"
    severity = Severity.ERROR
    description = ("Serialization methods must not iterate sets directly "
                   "(hash order escapes into the artifact); wrap the set "
                   "in sorted(...).")
    tags = frozenset({"determinism"})

    def check(self, context: Any) -> Iterable[Finding]:
        for function in iter_functions(context.tree):
            if function.name not in SERIALIZATION_NAMES:
                continue
            set_defs = self._set_definition_lines(function)
            for node in ast.walk(function):
                for iterable, line in self._iterations(node):
                    if self._is_set_valued(iterable, node, function,
                                           set_defs):
                        yield self.finding(
                            f"{function.name}() iterates a set on line "
                            f"{line}; its hash order escapes into the "
                            "output — wrap it in sorted(...)",
                            file=context.path, line=line)

    @staticmethod
    def _iterations(node: ast.AST) -> Iterable[Tuple[ast.expr, int]]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node.lineno
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                yield comp.iter, node.lineno
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "join" and node.args:
            yield node.args[0], node.lineno

    def _is_set_valued(self, expr: ast.expr, at: ast.AST,
                       function: flow.FunctionNode,
                       set_defs: Dict[str, Set[int]]) -> bool:
        if _is_set_expr(expr):
            return True
        if isinstance(expr, ast.Name) and expr.id in set_defs:
            return True
        return False

    def _set_definition_lines(self, function: flow.FunctionNode
                              ) -> Dict[str, Set[int]]:
        """Names whose every reaching assignment is set-typed.

        Conservative in the right direction for a lint: a name counts
        only when *all* of its assignments in the function are set
        expressions, so mixed/unknown types never fire.
        """
        set_lines: Dict[str, Set[int]] = {}
        other_lines: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if _is_set_expr(node.value):
                            set_lines.setdefault(target.id, set()).add(
                                node.lineno)
                        else:
                            other_lines.add(target.id)
        return {name: lines for name, lines in set_lines.items()
                if name not in other_lines}


DETERMINISM_RULES = (UnseededRandomRule, WallClockInReportRule,
                     SetOrderEscapeRule)
