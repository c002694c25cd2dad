"""Incremental neighborhood-search state shared by the portfolio.

Before this module, every local-search round re-scanned all C×H candidate
moves, and each legality probe cost O(C) inside the object constraint path
— O(C²·H) per round around kernels that already answer a move delta in
O(degree).  :class:`SearchState` turns the round into O(affected):

* **Constraint checkers.**  :func:`make_checker` resolves either the
  compiled fast path (:class:`CompiledConstraintChecker`, O(1)
  ``allows_index`` over
  :class:`~repro.core.constraints_compiled.CompiledConstraintSet`) or the
  object fallback (:class:`ObjectConstraintChecker`) when a constraint
  type is not compilable.  Both expose the same index-only protocol
  (``allows_index``/``probe_index``/``place_index``/``undo`` over the
  component and host indices of ``checker.cm``) and hold the assignment
  as a host-index list (``checker.assignment``); callers translate ids
  through ``checker.cm`` at their edges.  Both count their queries into
  ``EvaluationStats.constraint_checks``, and are equivalent by
  construction/property test.  ``swap_allows`` (swap feasibility) is
  arithmetic on the compiled set's loads for memory, CPU and location
  terms, and the place/probe/undo sequence otherwise, with the same
  answers and charges; ``violation_count(assignment)`` counts an index
  list without rebinding.

* **Legal-move frontier with dirty-move invalidation.**  The frontier
  caches each component's best improving move and the per-move deltas.
  After component *c* moves h₁→h₂, only the affected slice is re-scored:
  rows {c} ∪ neighbors(c) (their deltas reference c's host), rows coupled
  through collocation groups or through traffic into h₁/h₂ (their
  *legality* may have changed), and columns h₁/h₂ for every row (residual
  capacity changed there).  Rows whose cached best survives are served
  from the cache (``frontier_hits``); rows with no improving move stay
  parked until an invalidation touches them — the classic don't-look bit.
  A lazy best-move heap orders the surviving row bests.

* **Exactness.**  Deltas always come from the evaluation engine's kernels
  (its ``delta_route`` and ``swap_route``, resolved once per state, on
  the checker's array), whichever checker answers legality, so
  fixed-seed trajectories are pinned by the regression suite's golden
  move logs.  :meth:`SearchState.best_swap` scans every exchange with
  one ``swap_allows`` and one swap-route call per pair; the route scores
  both halves in one ``Kernel.swap_delta`` call, charged and counted as
  the two move deltas it is.  Objectives whose deltas are not
  neighbor-local (``Objective.local_delta`` False, e.g. throughput's
  bottleneck max) invalidate the whole frontier each move: still a win,
  because legality stays O(1) and deltas never re-encode.

See ``docs/PERFORMANCE.md`` (search-engine section) for the invalidation
rules and the measured speedups (``BENCH_search.json``).
"""

from __future__ import annotations

import heapq
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.algorithms.compiled import UNDEPLOYED, CompiledModel, compiled_model
from repro.algorithms.engine import EvaluationEngine, EvaluationStats
from repro.core.constraints import ConstraintSet
from repro.core.constraints_compiled import (
    CompiledConstraintSet, compile_constraints,
)
from repro.core.model import DeploymentModel

#: Minimum gain for a move to count as strictly improving (matches the
#: historical scan-loop tolerance).
GAIN_EPS = 1e-12


def _probe_swap(checker, ca: int, cb: int) -> bool:
    """Swap feasibility by the probe sequence (place, allows, undo).

    *ca* must be allowed on *cb*'s host with *cb* removed (one check),
    then the exchanged state must satisfy the set (a second check); both
    trial placements are undone.  Each side is thus judged with the other
    hypothetically removed, so exact-fit exchanges pass.
    """
    ha, hb = checker.assignment[ca], checker.assignment[cb]
    removed = checker.place_index(cb, UNDEPLOYED)
    ok = checker.allows_index(ca, hb)
    checker.undo(removed)
    if not ok:
        return False
    first = checker.place_index(ca, hb)
    second = checker.place_index(cb, ha)
    ok = checker.satisfied_partial()
    checker.undo(second)
    checker.undo(first)
    return ok


class ObjectConstraintChecker:
    """Constraint checker over the object ``ConstraintSet`` path.

    The semantics of record: ``allows_index`` is ``ConstraintSet.allows``
    on the mirrored partial mapping.  Used when a constraint type cannot be
    compiled, and by the regression/property suites as the ground truth the
    compiled checker must match.  Like the compiled checker it keeps the
    host index of every component in :attr:`assignment`.
    """

    compiled = False

    def __init__(self, model: DeploymentModel, constraints: ConstraintSet,
                 stats: Optional[EvaluationStats] = None,
                 cm: Optional[CompiledModel] = None):
        self.model = model
        self.constraints = constraints
        self.stats = stats if stats is not None else EvaluationStats()
        self.cm = cm if cm is not None else compiled_model(model)
        self.partial: Dict[str, str] = {}
        self.assignment: List[int] = [UNDEPLOYED] * self.cm.n_components

    def reset(self, assignment: Union[Mapping[str, str], Sequence[int]],
              ) -> None:
        """Rebind to a mapping or a host-index assignment.

        A short list, such as ``()``, leaves the remaining components
        undeployed.
        """
        if isinstance(assignment, Mapping):
            encoded = self.cm.encode(assignment)
            if encoded is None:
                raise ValueError("assignment references unknown hosts")
            self.partial = dict(assignment)
        else:
            encoded = list(assignment)
            self.partial = self.cm.decode(encoded)
        self.assignment = encoded + [UNDEPLOYED] * (self.cm.n_components
                                                    - len(encoded))

    def allows_index(self, ci: int, hi: int) -> bool:
        self.stats.constraint_checks += 1
        return self.probe_index(ci, hi)

    def probe_index(self, ci: int, hi: int) -> bool:
        """:meth:`allows_index` without counting; the caller counts."""
        return self.constraints.allows(self.model, self.partial,
                                       self.cm.component_ids[ci],
                                       self.cm.host_ids[hi])

    def place_index(self, ci: int, hi: int):
        token = (ci, self.assignment[ci])
        self._set(ci, hi)
        return token

    def undo(self, token) -> None:
        self._set(*token)

    def _set(self, ci: int, hi: int) -> None:
        self.assignment[ci] = hi
        component = self.cm.component_ids[ci]
        if hi == UNDEPLOYED:
            self.partial.pop(component, None)
        else:
            self.partial[component] = self.cm.host_ids[hi]

    def satisfied(self) -> bool:
        self.stats.constraint_checks += 1
        return self.constraints.is_satisfied(self.model, self.partial)

    def satisfied_partial(self) -> bool:
        self.stats.constraint_checks += 1
        return self.constraints.is_satisfied_partial(self.model, self.partial)

    def swap_allows(self, ca: int, cb: int) -> bool:
        """Feasibility of exchanging *ca* and *cb*, by the probe sequence."""
        return _probe_swap(self, ca, cb)

    def violation_count(self, assignment: Optional[Sequence[int]] = None,
                        ) -> int:
        """Violations of the bound state, or of *assignment*.

        *assignment* holds a host index or ``UNDEPLOYED`` per component;
        counting it leaves the bound state untouched.
        """
        self.stats.constraint_checks += 1
        partial = (self.partial if assignment is None
                   else self.cm.decode(assignment))
        return len(self.constraints.violations(self.model, partial))


class CompiledConstraintChecker:
    """O(1) checker over a bound :class:`CompiledConstraintSet`."""

    compiled = True

    def __init__(self, cm: CompiledModel, compiled_set: CompiledConstraintSet,
                 stats: Optional[EvaluationStats] = None):
        self.cm = cm
        self.ccs = compiled_set
        self.stats = stats if stats is not None else EvaluationStats()
        # The uncounted probe (the caller counts), placement and undo,
        # bound straight to the compiled set.
        self.probe_index = compiled_set.allows
        self.place_index = compiled_set.place
        self.undo = compiled_set.undo
        self._swap_arithmetic = compiled_set.swap_by_arithmetic

    @property
    def assignment(self) -> List[int]:
        """Host index per component (``bind`` replaces the list)."""
        return self.ccs.assignment

    def reset(self, assignment: Union[Mapping[str, str], Sequence[int]],
              ) -> None:
        """Rebind to a mapping or a host-index assignment."""
        self.ccs.bind(assignment)

    def allows_index(self, ci: int, hi: int) -> bool:
        self.stats.constraint_checks += 1
        return self.ccs.allows(ci, hi)

    def satisfied(self) -> bool:
        self.stats.constraint_checks += 1
        return self.ccs.satisfied()

    def satisfied_partial(self) -> bool:
        self.stats.constraint_checks += 1
        return self.ccs.satisfied_partial()

    def swap_allows(self, ca: int, cb: int) -> bool:
        """Feasibility of exchanging *ca* and *cb*.

        Arithmetic on the bound state when the set has only memory, CPU
        and location terms and both sides are deployed on distinct hosts;
        the probe sequence (:func:`_probe_swap`) otherwise.  Either way
        the answer, the checks charged (one when *ca* does not fit, two
        otherwise) and the state afterwards are the probe sequence's.
        """
        ccs = self.ccs
        assignment = ccs.assignment
        ha, hb = assignment[ca], assignment[cb]
        if (not self._swap_arithmetic or ha == hb or ha == UNDEPLOYED
                or hb == UNDEPLOYED):
            return _probe_swap(self, ca, cb)
        stats = self.stats
        stats.constraint_checks += 1
        if not ccs.swap_enters(ca, cb):
            return False
        stats.constraint_checks += 1
        return ccs.swap_satisfied(ca, cb)

    def violation_count(self, assignment: Optional[Sequence[int]] = None,
                        ) -> int:
        """Violations of the bound state, or of *assignment*.

        *assignment* holds a host index or ``UNDEPLOYED`` per component;
        counting it leaves the bound state untouched.
        """
        self.stats.constraint_checks += 1
        return self.ccs.violation_count(assignment)


def make_checker(model: DeploymentModel, constraints: ConstraintSet,
                 stats: Optional[EvaluationStats] = None):
    """The fastest applicable constraint checker for *constraints*.

    Compiled when every member constraint is a built-in type (by exact
    type); the object path otherwise.
    """
    cm = compiled_model(model)
    compiled_set = compile_constraints(constraints, cm)
    if compiled_set is not None:
        return CompiledConstraintChecker(cm, compiled_set, stats)
    return ObjectConstraintChecker(model, constraints, stats, cm)


class SearchState:
    """Shared incremental state for one local-search run.

    Owns the constraint checker, whose host-index array
    (``checker.assignment``, aliased as :attr:`array`) is the assignment,
    the legal-move frontier, and the move log.  Algorithms drive it
    through :meth:`best_move` / :meth:`apply` (steepest-ascent),
    :meth:`allows` / :meth:`delta` (stochastic proposals), and
    :meth:`best_swap` / :meth:`apply_swap`, all by component and host
    index; ``cm.decode(state.array)`` turns the result back into a
    mapping.
    """

    def __init__(self, model: DeploymentModel, constraints: ConstraintSet,
                 engine: EvaluationEngine,
                 assignment: Union[Mapping[str, str], Sequence[int]], *,
                 count: Optional[Callable[[int], None]] = None):
        self.model = model
        self.constraints = constraints
        self.engine = engine
        self._count = count
        self.stats = engine.stats
        self.checker = make_checker(model, constraints, self.stats)
        self.cm = self.checker.cm
        # Resolved once: the checker pins this run's snapshot anyway.
        self._delta = engine.delta_route(model)
        self._swap = engine.swap_route(model, count)
        # Raises ValueError for a mapping that names an unknown host.
        self.checker.reset(assignment)
        #: The checker's array IS the assignment — one mutation source.
        self.array: List[int] = self.checker.assignment
        # The compiled set doubles as the invalidation metadata
        # (collocation closures, bandwidth presence).
        info = self.checker.ccs if self.checker.compiled else None
        self._compilable = info is not None
        self._partners: List[Tuple[int, ...]] = (
            info.colloc_partners if info is not None
            else [()] * self.cm.n_components)
        self._has_bandwidth = info.has_bandwidth if info is not None else True
        objective = engine.objective
        self._maximize = objective.direction == "max"
        self.local_delta = bool(getattr(objective, "local_delta", False))
        #: Applied placements, in order: (component_id, host_id).
        self.moves: List[Tuple[str, str]] = []
        self._on_host: List[set] = [set() for _ in range(self.cm.n_hosts)]
        for ci, hi in enumerate(self.array):
            if hi != UNDEPLOYED:
                self._on_host[hi].add(ci)
        # -- frontier ----------------------------------------------------
        self._built = False
        self._deltas: List[List[Optional[float]]] = []
        self._row_best: List[Optional[Tuple[float, int]]] = []
        self._heap: List[Tuple[float, int, int]] = []
        self._clear: set = set()      # rows whose delta caches are stale
        self._rescan: set = set()     # rows whose legality is stale
        self._cols: set = set()       # host columns with legality changes
        self._all_dirty = False       # non-local objective: rebuild all
        self._legal_all = False       # uncompilable constraints: rescan all
        self._base_ok = True

    # -- primitive queries -------------------------------------------------
    def allows(self, ci: int, hi: int) -> bool:
        """Constraint legality of moving component *ci* to host *hi*."""
        return self.checker.allows_index(ci, hi)

    def delta(self, ci: int, hi: int) -> float:
        """Raw objective delta for the move, via the engine's kernels."""
        return self._score(ci, hi)

    def satisfied(self) -> bool:
        return self.checker.satisfied()

    def _score(self, ci: int, hi: int) -> float:
        if self._count is not None:
            self._count(1)
        return self._delta(self.array, ci, hi)

    # -- mutation ----------------------------------------------------------
    def apply(self, ci: int, hi: int) -> None:
        """Commit the move of component *ci* to host *hi*."""
        old = self.array[ci]
        if old == hi:
            return
        self.checker.place_index(ci, hi)
        if old != UNDEPLOYED:
            self._on_host[old].discard(ci)
        self._on_host[hi].add(ci)
        self.moves.append((self.cm.component_ids[ci], self.cm.host_ids[hi]))
        if self._built:
            self._invalidate(ci, old, hi)

    def apply_swap(self, ca: int, cb: int) -> None:
        """Commit the exchange of two components' hosts."""
        ha, hb = self.array[ca], self.array[cb]
        self.checker.place_index(ca, hb)
        self.checker.place_index(cb, ha)
        self._on_host[ha].discard(ca)
        self._on_host[hb].add(ca)
        self._on_host[hb].discard(cb)
        self._on_host[ha].add(cb)
        component_ids, host_ids = self.cm.component_ids, self.cm.host_ids
        self.moves.append((component_ids[ca], host_ids[hb]))
        self.moves.append((component_ids[cb], host_ids[ha]))
        if self._built:
            self._invalidate(ca, ha, hb)
            self._invalidate(cb, hb, ha)

    # -- swap scan -------------------------------------------------------
    def best_swap(self, threshold: float,
                  ) -> Optional[Tuple[int, int, float]]:
        """The best feasible exchange whose gain beats *threshold*.

        Returns ``(ca, cb, delta)`` for the highest direction-adjusted
        gain, or ``None``; pairs ``ca < cb`` on distinct hosts are scanned
        in index order, so the first pair wins ties."""
        array = self.array
        allows = self.checker.swap_allows
        swap = self._swap
        maximize = self._maximize
        n = self.cm.n_components
        best: Optional[Tuple[int, int, float]] = None
        for ca in range(n):
            ha = array[ca]
            for cb in range(ca + 1, n):
                if array[cb] == ha or not allows(ca, cb):
                    continue
                delta = swap(array, ca, cb)
                gain = delta if maximize else -delta
                if gain > threshold:
                    threshold = gain
                    best = (ca, cb, delta)
        return best

    # -- frontier ----------------------------------------------------------
    def best_move(self) -> Optional[Tuple[int, int, float]]:
        """The best strictly-improving legal move, or ``None``.

        Deterministic selection rule (identical in both checker modes):
        maximum direction-adjusted gain > 1e-12, ties broken by lowest
        component index then lowest host index.
        """
        self._refresh()
        heap = self._heap
        while heap:
            neg_gain, ci, hi = heap[0]
            row = self._row_best[ci]
            if row is not None and row[0] == -neg_gain and row[1] == hi:
                return ci, hi, self._deltas[ci][hi]
            heapq.heappop(heap)  # stale entry
        return None

    def _refresh(self) -> None:
        n = self.cm.n_components
        if not self._built:
            self._deltas = [[None] * self.cm.n_hosts for _ in range(n)]
            self._row_best = [None] * n
            for ci in range(n):
                self._rescan_row(ci)
            if self._has_bandwidth:
                self._base_ok = self.checker.satisfied()
            self._built = True
            return
        if self._all_dirty:
            for ci in range(n):
                row = self._deltas[ci]
                for hi in range(self.cm.n_hosts):
                    row[hi] = None
                self._rescan_row(ci)
        elif self._legal_all or self._clear or self._rescan or self._cols:
            for ci in self._clear:
                row = self._deltas[ci]
                for hi in range(self.cm.n_hosts):
                    row[hi] = None
            stale = self._clear | self._rescan
            if self._legal_all:
                for ci in range(n):
                    self._rescan_row(ci)
            else:
                for ci in stale:
                    self._rescan_row(ci)
                if self._cols:
                    cols = self._cols
                    for ci in range(n):
                        if ci not in stale:
                            self._column_update(ci, cols)
        self._all_dirty = False
        self._legal_all = False
        self._clear.clear()
        self._rescan.clear()
        self._cols.clear()
        if len(self._heap) > 4 * n + 16:  # compact stale heap entries
            self._heap = [(-gain, ci, hi)
                          for ci, row in enumerate(self._row_best)
                          if row is not None
                          for gain, hi in [row]]
            heapq.heapify(self._heap)

    def _rescan_row(self, ci: int) -> None:
        deltas = self._deltas[ci]
        cur = self.array[ci]
        checker = self.checker
        stats = self.stats
        best: Optional[Tuple[float, int]] = None
        for hi in range(self.cm.n_hosts):
            if hi == cur:
                continue
            if not checker.allows_index(ci, hi):
                continue
            value = deltas[hi]
            if value is None:
                value = self._score(ci, hi)
                deltas[hi] = value
                stats.moves_rescored += 1
            else:
                stats.frontier_hits += 1
            gain = value if self._maximize else -value
            if gain > GAIN_EPS and (best is None or gain > best[0]):
                best = (gain, hi)
        self._row_best[ci] = best
        if best is not None:
            heapq.heappush(self._heap, (-best[0], ci, best[1]))

    def _column_update(self, ci: int, cols: set) -> None:
        best = self._row_best[ci]
        if best is not None and best[1] in cols:
            # The cached best targets a changed column — rescan the row
            # (delta cache intact, only legality is re-derived).
            self._rescan_row(ci)
            return
        cur = self.array[ci]
        deltas = self._deltas[ci]
        improved = False
        for hi in cols:
            if hi == cur or hi == UNDEPLOYED:
                continue
            if not self.checker.allows_index(ci, hi):
                continue
            value = deltas[hi]
            if value is None:
                value = self._score(ci, hi)
                deltas[hi] = value
                self.stats.moves_rescored += 1
            else:
                self.stats.frontier_hits += 1
            gain = value if self._maximize else -value
            if gain > GAIN_EPS and (
                    best is None or gain > best[0]
                    or (gain == best[0] and hi < best[1])):
                best = (gain, hi)
                improved = True
        if improved:
            self._row_best[ci] = best
            heapq.heappush(self._heap, (-best[0], ci, best[1]))

    def _invalidate(self, ci: int, old: int, new: int) -> None:
        if not self.local_delta:
            # Bottleneck-shaped objective: any move can shift every delta.
            self._all_dirty = True
            return
        cm = self.cm
        clear = self._clear
        clear.add(ci)
        for neighbor, __ in cm.adjacency[ci]:
            clear.add(neighbor)
        if not self._compilable:
            # Unknown constraint types may couple arbitrary components:
            # re-derive every row's legality (delta caches stay valid).
            self._legal_all = True
        else:
            rescan = self._rescan
            for partner in self._partners[ci]:
                rescan.add(partner)
            if self._has_bandwidth:
                # Legality of (x, h) depends on pair demands touching the
                # changed hosts: rows on old/new plus their neighbors.
                for host in (old, new):
                    if host == UNDEPLOYED:
                        continue
                    for member in self._on_host[host]:
                        rescan.add(member)
                        for neighbor, __ in cm.adjacency[member]:
                            rescan.add(neighbor)
                # The global overload tally enters every allows() answer;
                # if base feasibility changed, nothing cached is safe.
                ok = self.checker.satisfied()
                if not ok or not self._base_ok:
                    self._legal_all = True
                self._base_ok = ok
        if old != UNDEPLOYED:
            self._cols.add(old)
        self._cols.add(new)
