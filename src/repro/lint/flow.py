"""Intraprocedural control-flow graphs and a worklist dataflow solver.

The per-node AST rules of :mod:`repro.lint.code` answer "does this
statement look wrong?"; they cannot answer "which assignments can this
read see?" or "does this unseeded generator *flow into* that call?".
Those are whole-function questions, and this module supplies the
machinery to ask them:

* :func:`build_cfg` — a :class:`ControlFlowGraph` per function, covering
  branches, ``while``/``for`` loops (with ``break``/``continue`` and
  ``else``), ``try``/``except``/``else``/``finally`` (with exception
  edges), ``with``, and ``match``;
* :func:`solve` — a generic iterate-to-fixpoint worklist solver over a
  forward :class:`DataflowProblem` (set-union join);
* :class:`ReachingDefinitions` — the classic instance, used by the
  determinism pack (taint-style value tracking) and exposed for custom
  rules.

The graphs are an over-approximation by design: every statement that
*may* raise gets an exception edge to the innermost handler (or the
function exit), so "no path reaches X" conclusions are safe to lint on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Edge kinds, recorded so analyses can treat exceptional flow specially.
NORMAL = "normal"
TRUE = "true"
FALSE = "false"
EXCEPTION = "exception"
LOOP = "loop"

#: Compound statements: their *bodies* become separate blocks; only the
#: header expression evaluates in the block holding the statement.
COMPOUND_STATEMENTS = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
                       ast.AsyncWith, ast.Try, ast.Match, ast.FunctionDef,
                       ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class BasicBlock:
    """A maximal straight-line sequence of simple statements."""

    index: int
    statements: List[ast.stmt] = field(default_factory=list)
    successors: List[Tuple["BasicBlock", str]] = field(default_factory=list)
    predecessors: List[Tuple["BasicBlock", str]] = field(default_factory=list)

    def succ(self, kinds: Optional[Iterable[str]] = None
             ) -> Tuple["BasicBlock", ...]:
        wanted = None if kinds is None else set(kinds)
        return tuple(block for block, kind in self.successors
                     if wanted is None or kind in wanted)

    @property
    def line(self) -> Optional[int]:
        return self.statements[0].lineno if self.statements else None

    def __repr__(self) -> str:
        return (f"BasicBlock({self.index}, "
                f"{len(self.statements)} stmts, "
                f"-> {[b.index for b, _ in self.successors]})")


class ControlFlowGraph:
    """CFG of one function: blocks, a unique entry, a unique exit."""

    def __init__(self, function: FunctionNode):
        self.function = function
        self.blocks: List[BasicBlock] = []
        self.entry = self.new_block()
        self.exit = self.new_block()

    def new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def add_edge(self, src: BasicBlock, dst: BasicBlock,
                 kind: str = NORMAL) -> None:
        if any(b is dst and k == kind for b, k in src.successors):
            return
        src.successors.append((dst, kind))
        dst.predecessors.append((src, kind))

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def statements(self) -> Iterator[Tuple[BasicBlock, ast.stmt]]:
        for block in self.blocks:
            for statement in block.statements:
                yield block, statement

    def reachable(self, start: BasicBlock) -> Set[int]:
        """Block indices reachable from *start* (inclusive)."""
        seen: Set[int] = set()
        stack = [start]
        while stack:
            block = stack.pop()
            if block.index in seen:
                continue
            seen.add(block.index)
            stack.extend(succ for succ, _ in block.successors)
        return seen


def may_raise(statement: ast.stmt) -> bool:
    """Whether *statement* can plausibly raise.

    Over-approximate: any call, subscript, attribute access, binary
    arithmetic, ``raise``, or ``assert`` may raise; plain constant/name
    rebinding and ``pass``/``break``/``continue``/``global`` cannot.
    """
    if isinstance(statement, (ast.Raise, ast.Assert)):
        return True
    if isinstance(statement, COMPOUND_STATEMENTS):
        # Only the header expression belongs to the enclosing block.
        return any(_expression_may_raise(expr)
                   for expr in header_expressions(statement))
    return _expression_may_raise(statement)


def _expression_may_raise(node: ast.AST) -> bool:
    return any(isinstance(sub, (ast.Call, ast.Subscript, ast.Attribute,
                                ast.BinOp, ast.Await, ast.Yield,
                                ast.YieldFrom, ast.Starred))
               for sub in ast.walk(node))


def header_expressions(statement: ast.stmt) -> List[ast.expr]:
    """The expressions a compound statement evaluates in its own block
    (the loop iterable, the branch test, the ``with`` context items)."""
    if isinstance(statement, ast.If) or isinstance(statement, ast.While):
        return [statement.test]
    if isinstance(statement, (ast.For, ast.AsyncFor)):
        return [statement.iter]
    if isinstance(statement, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in statement.items]
    if isinstance(statement, ast.Match):
        return [statement.subject]
    return []


class _Builder:
    """Recursive-descent CFG construction.

    ``_loops`` is a stack of ``(header, after)`` targets for
    ``continue``/``break``; ``_handlers`` is a stack of exception targets
    (innermost first) — the dispatch block of the nearest enclosing
    ``try`` (or its ``finally``), falling back to the function exit.
    """

    def __init__(self, function: FunctionNode):
        self.cfg = ControlFlowGraph(function)
        self._loops: List[Tuple[BasicBlock, BasicBlock]] = []
        self._handlers: List[BasicBlock] = [self.cfg.exit]
        tail = self._sequence(function.body, self.cfg.entry)
        if tail is not None:
            self.cfg.add_edge(tail, self.cfg.exit)

    # -- helpers -----------------------------------------------------------
    def _place(self, statement: ast.stmt,
               block: BasicBlock) -> BasicBlock:
        """Append *statement* to *block*, adding its exception edge."""
        block.statements.append(statement)
        if may_raise(statement):
            self.cfg.add_edge(block, self._handlers[-1], EXCEPTION)
        return block

    def _sequence(self, statements: Iterable[ast.stmt],
                  block: Optional[BasicBlock]) -> Optional[BasicBlock]:
        """Thread *statements* through the graph; returns the open tail
        block, or None when the sequence cannot fall through."""
        for statement in statements:
            if block is None:  # dead code after return/raise/break
                block = self.cfg.new_block()
            block = self._statement(statement, block)
        return block

    # -- dispatch ----------------------------------------------------------
    def _statement(self, statement: ast.stmt,
                   block: BasicBlock) -> Optional[BasicBlock]:
        if isinstance(statement, ast.If):
            return self._if(statement, block)
        if isinstance(statement, (ast.While,)):
            return self._while(statement, block)
        if isinstance(statement, (ast.For, ast.AsyncFor)):
            return self._for(statement, block)
        if isinstance(statement, ast.Try):
            return self._try(statement, block)
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            return self._with(statement, block)
        if isinstance(statement, ast.Match):
            return self._match(statement, block)
        if isinstance(statement, (ast.Return, ast.Raise)):
            self._place(statement, block)
            target = (self._handlers[-1] if isinstance(statement, ast.Raise)
                      else self.cfg.exit)
            kind = EXCEPTION if isinstance(statement, ast.Raise) else NORMAL
            self.cfg.add_edge(block, target, kind)
            return None
        if isinstance(statement, ast.Break):
            self._place(statement, block)
            if self._loops:
                self.cfg.add_edge(block, self._loops[-1][1])
            return None
        if isinstance(statement, ast.Continue):
            self._place(statement, block)
            if self._loops:
                self.cfg.add_edge(block, self._loops[-1][0], LOOP)
            return None
        # Nested defs/classes are opaque single statements here; their own
        # bodies get their own CFGs via iter_functions().
        return self._place(statement, block)

    # -- compound forms ----------------------------------------------------
    def _if(self, statement: ast.If, block: BasicBlock) -> Optional[BasicBlock]:
        self._place(statement, block)
        after = self.cfg.new_block()
        then_entry = self.cfg.new_block()
        self.cfg.add_edge(block, then_entry, TRUE)
        then_tail = self._sequence(statement.body, then_entry)
        if then_tail is not None:
            self.cfg.add_edge(then_tail, after)
        if statement.orelse:
            else_entry = self.cfg.new_block()
            self.cfg.add_edge(block, else_entry, FALSE)
            else_tail = self._sequence(statement.orelse, else_entry)
            if else_tail is not None:
                self.cfg.add_edge(else_tail, after)
        else:
            self.cfg.add_edge(block, after, FALSE)
        return after if after.predecessors else None

    def _while(self, statement: ast.While,
               block: BasicBlock) -> Optional[BasicBlock]:
        header = self.cfg.new_block()
        self.cfg.add_edge(block, header)
        self._place(statement, header)
        after = self.cfg.new_block()
        body_entry = self.cfg.new_block()
        self.cfg.add_edge(header, body_entry, TRUE)
        self._loops.append((header, after))
        body_tail = self._sequence(statement.body, body_entry)
        self._loops.pop()
        if body_tail is not None:
            self.cfg.add_edge(body_tail, header, LOOP)
        if statement.orelse:
            else_entry = self.cfg.new_block()
            self.cfg.add_edge(header, else_entry, FALSE)
            else_tail = self._sequence(statement.orelse, else_entry)
            if else_tail is not None:
                self.cfg.add_edge(else_tail, after)
        else:
            self.cfg.add_edge(header, after, FALSE)
        return after if after.predecessors else None

    def _for(self, statement: Union[ast.For, ast.AsyncFor],
             block: BasicBlock) -> Optional[BasicBlock]:
        header = self.cfg.new_block()
        self.cfg.add_edge(block, header)
        self._place(statement, header)
        after = self.cfg.new_block()
        body_entry = self.cfg.new_block()
        self.cfg.add_edge(header, body_entry, TRUE)
        self._loops.append((header, after))
        body_tail = self._sequence(statement.body, body_entry)
        self._loops.pop()
        if body_tail is not None:
            self.cfg.add_edge(body_tail, header, LOOP)
        if statement.orelse:
            else_entry = self.cfg.new_block()
            self.cfg.add_edge(header, else_entry, FALSE)
            else_tail = self._sequence(statement.orelse, else_entry)
            if else_tail is not None:
                self.cfg.add_edge(else_tail, after)
        else:
            self.cfg.add_edge(header, after, FALSE)
        return after if after.predecessors else None

    def _with(self, statement: Union[ast.With, ast.AsyncWith],
              block: BasicBlock) -> Optional[BasicBlock]:
        self._place(statement, block)
        body_entry = self.cfg.new_block()
        self.cfg.add_edge(block, body_entry)
        body_tail = self._sequence(statement.body, body_entry)
        if body_tail is None:
            return None
        after = self.cfg.new_block()
        self.cfg.add_edge(body_tail, after)
        return after

    def _match(self, statement: ast.Match,
               block: BasicBlock) -> Optional[BasicBlock]:
        self._place(statement, block)
        after = self.cfg.new_block()
        exhaustive = False
        for case in statement.cases:
            case_entry = self.cfg.new_block()
            self.cfg.add_edge(block, case_entry, TRUE)
            case_tail = self._sequence(case.body, case_entry)
            if case_tail is not None:
                self.cfg.add_edge(case_tail, after)
            if (isinstance(case.pattern, ast.MatchAs)
                    and case.pattern.pattern is None and case.guard is None):
                exhaustive = True
        if not exhaustive:
            self.cfg.add_edge(block, after, FALSE)
        return after if after.predecessors else None

    def _try(self, statement: ast.Try,
             block: BasicBlock) -> Optional[BasicBlock]:
        self._place(statement, block)
        after = self.cfg.new_block()
        final_entry: Optional[BasicBlock] = (
            self.cfg.new_block() if statement.finalbody else None)
        # Where exceptions raised in the try body go: the handler dispatch
        # block when handlers exist, else straight to finally/outer.
        outer_handler = self._handlers[-1]
        dispatch = (self.cfg.new_block() if statement.handlers
                    else (final_entry or outer_handler))

        body_entry = self.cfg.new_block()
        self.cfg.add_edge(block, body_entry)
        self._handlers.append(dispatch)
        body_tail = self._sequence(statement.body, body_entry)
        self._handlers.pop()
        if body_tail is not None and statement.orelse:
            body_tail = self._sequence(statement.orelse, body_tail)

        join = final_entry if final_entry is not None else after
        if body_tail is not None:
            self.cfg.add_edge(body_tail, join)

        if statement.handlers:
            # A handler body may itself raise: it propagates to finally
            # (when present) or to the enclosing handler.
            escape = final_entry if final_entry is not None else outer_handler
            self._handlers.append(escape)
            for handler in statement.handlers:
                handler_entry = self.cfg.new_block()
                self.cfg.add_edge(dispatch, handler_entry, EXCEPTION)
                handler_tail = self._sequence(handler.body, handler_entry)
                if handler_tail is not None:
                    self.cfg.add_edge(handler_tail, join)
            self._handlers.pop()
            # No handler may match: the exception escapes past this try.
            self.cfg.add_edge(dispatch, escape, EXCEPTION)

        if final_entry is not None:
            final_tail = self._sequence(statement.finalbody, final_entry)
            if final_tail is not None:
                self.cfg.add_edge(final_tail, after)
                # The finally block also runs on the exceptional path out;
                # conservatively it may then propagate to the outer target.
                self.cfg.add_edge(final_tail, outer_handler, EXCEPTION)
        return after if after.predecessors else None


def build_cfg(function: FunctionNode) -> ControlFlowGraph:
    """Construct the control-flow graph of one function definition."""
    return _Builder(function).cfg


def iter_functions(tree: ast.AST) -> Iterator[FunctionNode]:
    """Every (possibly nested) function/method definition under *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ---------------------------------------------------------------------------
# Worklist dataflow solver
# ---------------------------------------------------------------------------

Fact = FrozenSet
Facts = Dict[int, Tuple[Fact, Fact]]  # block index -> (in, out)

EMPTY: Fact = frozenset()


class DataflowProblem:
    """A forward, monotone dataflow problem with set-union join.

    Subclasses implement :meth:`transfer`, mapping the facts entering a
    block to the facts leaving it.  The solver iterates transfer
    functions to a fixpoint, so ``transfer`` must be monotone (growing
    inputs never shrink outputs).
    """

    def boundary(self, cfg: ControlFlowGraph) -> Fact:
        """Facts at the entry block."""
        return EMPTY

    def transfer(self, block: BasicBlock, facts: Fact) -> Fact:
        raise NotImplementedError


def solve(cfg: ControlFlowGraph, problem: DataflowProblem) -> Facts:
    """Iterate *problem* over *cfg* to a fixpoint; returns per-block
    ``(in, out)`` fact pairs: the facts at block entry and at block
    exit."""
    start = cfg.entry
    facts_in: Dict[int, Fact] = {block.index: EMPTY for block in cfg}
    facts_out: Dict[int, Fact] = {block.index: EMPTY for block in cfg}
    facts_in[start.index] = problem.boundary(cfg)

    pending = [block for block in cfg]
    on_queue = {block.index for block in cfg}
    while pending:
        block = pending.pop(0)
        on_queue.discard(block.index)
        merged: Set = set(facts_in[start.index]) if block is start else set()
        for source, _ in block.predecessors:
            merged |= facts_out[source.index]
        facts_in[block.index] = frozenset(merged)
        out = problem.transfer(block, facts_in[block.index])
        if out != facts_out[block.index]:
            facts_out[block.index] = out
            for target, _ in block.successors:
                if target.index not in on_queue:
                    pending.append(target)
                    on_queue.add(target.index)
    return {index: (facts_in[index], facts_out[index])
            for index in facts_in}


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------

def assigned_names(statement: ast.stmt) -> Set[str]:
    """Local names (re)bound by *statement* (assignment targets, loop
    variables, ``with ... as`` bindings, aug-assignments)."""
    names: Set[str] = set()

    def target_names(target: ast.AST) -> Iterator[str]:
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store,)):
                yield node.id

    if isinstance(statement, ast.Assign):
        for target in statement.targets:
            names.update(target_names(target))
    elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
        names.update(target_names(statement.target))
    elif isinstance(statement, (ast.For, ast.AsyncFor)):
        names.update(target_names(statement.target))
    elif isinstance(statement, (ast.With, ast.AsyncWith)):
        for item in statement.items:
            if item.optional_vars is not None:
                names.update(target_names(item.optional_vars))
    elif isinstance(statement, ast.NamedExpr):  # pragma: no cover
        names.update(target_names(statement.target))
    for node in walk_headers(statement):
        if isinstance(node, ast.NamedExpr):
            names.update(target_names(node.target))
    return names


def walk_headers(statement: ast.stmt) -> Iterator[ast.AST]:
    """Walk the statement, excluding nested compound bodies (those belong
    to other blocks)."""
    if isinstance(statement, COMPOUND_STATEMENTS):
        for expr in header_expressions(statement):
            yield from ast.walk(expr)
    else:
        yield from ast.walk(statement)


def used_names(statement: ast.stmt) -> Set[str]:
    """Local names read by *statement* (header only for compounds)."""
    return {node.id for node in walk_headers(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


#: A definition site: (variable name, line number of the defining stmt).
Definition = Tuple[str, int]


class ReachingDefinitions(DataflowProblem):
    """Which ``(name, line)`` definitions may reach each block."""

    def transfer(self, block: BasicBlock, facts: Fact) -> Fact:
        live: Set[Definition] = set(facts)
        for statement in block.statements:
            killed = assigned_names(statement)
            if killed:
                live = {(name, line) for name, line in live
                        if name not in killed}
                live.update((name, statement.lineno) for name in killed)
        return frozenset(live)

    @staticmethod
    def at_statements(cfg: ControlFlowGraph
                      ) -> Dict[int, FrozenSet[Definition]]:
        """Definitions reaching each statement, keyed by ``id(stmt)``."""
        solution = solve(cfg, ReachingDefinitions())
        reaching: Dict[int, FrozenSet[Definition]] = {}
        for block in cfg:
            live: Set[Definition] = set(solution[block.index][0])
            for statement in block.statements:
                reaching[id(statement)] = frozenset(live)
                killed = assigned_names(statement)
                if killed:
                    live = {(name, line) for name, line in live
                            if name not in killed}
                    live.update((name, statement.lineno) for name in killed)
        return reaching
