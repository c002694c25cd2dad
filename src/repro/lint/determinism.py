"""Determinism analysis pack: seeded randomness, no wall clocks, no
hash-order leaks.

The repository's contract is that every report is byte-identical for the
same inputs and seed (serial vs ``workers=N`` sweeps, fault campaigns,
observability captures are all pinned by tests).  Three failure modes
keep breaking that contract in real systems, and all three are visible
statically in one file's AST:

* **DT001** — the process-global RNG (``random.random()``,
  ``numpy.random.*``) is used, or an *unseeded* generator is built
  (``random.Random()``, or a numpy constructor such as ``default_rng()``,
  ``RandomState()`` or ``PCG64()``, with no seed or a literal ``None``
  seed): results change run to run.  Each such call is reported
  where it is made, wherever its result is stored or used.
* **DT002** — wall-clock time (``time.time``/``perf_counter``/
  ``monotonic``, ``datetime.now``…) is read inside a serialization
  method (``to_dict``/``to_json``/``render``/``summary_line``…): the
  rendered artifact embeds the clock and can never be reproduced.
  (Capturing *elapsed* time into a field that canonical rendering
  excludes — ``include_timing=False`` — is fine and not flagged.)
* **DT003** — a ``set``'s iteration order escapes into rendered output:
  ``for x in some_set`` (or a comprehension / ``str.join``) inside a
  serialization method without a ``sorted(...)`` wrapper.  A name counts
  as a set when every assignment to it in the function is a set
  expression.
"""

from __future__ import annotations

import ast
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union,
)

from repro.lint.core import Finding, Rule, Severity

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

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

#: Generator constructors; a call is unseeded when it passes no seed.
_GENERATOR_FACTORIES = frozenset({"random.Random", "Random", "default_rng"})

#: ``numpy.random`` constructors of a generator, bit generator or seed
#: source: they draw nothing from the global stream, so DT001 checks
#: their seed instead.
_NUMPY_GENERATORS = frozenset({
    "default_rng", "RandomState", "SeedSequence", "Generator",
    "BitGenerator", "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
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
            parts[1] not in _RANDOM_NON_CONSUMING | _NUMPY_GENERATORS:
        return True
    # numpy.random.shuffle / np.random.rand / numpy.random.randint ...
    if len(parts) >= 3 and parts[-3] in ("numpy", "np") and \
            parts[-2] == "random" and parts[-1] not in _NUMPY_GENERATORS:
        return True
    if len(parts) == 2 and parts[0] in ("numpy", "np") and \
            parts[1] == "random":  # np.random(...) misuse
        return True
    return False


def _is_unseeded_generator(call: ast.Call) -> bool:
    """``random.Random()`` / ``numpy.random.default_rng()`` (or another
    numpy generator constructor) with no seed argument, or with a literal
    ``None`` seed."""
    dotted = _dotted(call.func)
    if dotted is None:
        return False
    parts = dotted.split(".")
    if not (dotted in _GENERATOR_FACTORIES or
            (len(parts) >= 2 and parts[-2] == "random"
             and parts[-1] in _NUMPY_GENERATORS)):
        return False
    seeds = call.args + [keyword.value for keyword in call.keywords]
    return not seeds or (len(seeds) == 1 and
                         isinstance(seeds[0], ast.Constant) and
                         seeds[0].value is None)


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


def iter_functions(nodes: Iterable[ast.AST]) -> Iterator[FunctionNode]:
    """The (possibly nested) function/method definitions among *nodes*."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


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
                   "no unseeded generator construction (random.Random() "
                   "or a numpy.random generator, bit-generator or "
                   "SeedSequence constructor with no seed or a None "
                   "seed), wherever the generator is stored or used: "
                   "results must be reproducible from the run's seed.")
    tags = frozenset({"determinism"})

    def check(self, context: Any) -> Iterable[Finding]:
        # id of an assigned call -> the target it is bound to.
        bound: Dict[int, ast.expr] = {}
        for node in context.nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    isinstance(node.value, ast.Call):
                target = (node.targets[0] if isinstance(node, ast.Assign)
                          else node.target)
                bound[id(node.value)] = target
            if not isinstance(node, ast.Call):
                continue
            label = _dotted(node.func)
            if _is_global_rng_call(node):
                yield self.finding(
                    f"{label}() draws from the process-global RNG; use "
                    "an explicitly seeded random.Random(seed)",
                    file=context.path, line=node.lineno,
                    col=node.col_offset)
            elif _is_unseeded_generator(node):
                target = bound.get(id(node))
                where = (f" bound to {ast.unparse(target)!r}"
                         if target is not None else "")
                yield self.finding(
                    f"{label}() builds an unseeded generator{where}; pass "
                    "a seed so the stream is reproducible",
                    file=context.path, line=node.lineno,
                    col=node.col_offset)


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
        for function in iter_functions(context.nodes):
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
        for function in iter_functions(context.nodes):
            if function.name not in SERIALIZATION_NAMES:
                continue
            set_defs = self._set_definition_lines(function)
            for node in ast.walk(function):
                for iterable, line in self._iterations(node):
                    if self._is_set_valued(iterable, set_defs):
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

    @staticmethod
    def _is_set_valued(expr: ast.expr,
                       set_defs: Dict[str, Set[int]]) -> bool:
        if _is_set_expr(expr):
            return True
        if isinstance(expr, ast.Name) and expr.id in set_defs:
            return True
        return False

    def _set_definition_lines(self, function: FunctionNode
                              ) -> Dict[str, Set[int]]:
        """Names whose every assignment in *function* is set-typed.

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
