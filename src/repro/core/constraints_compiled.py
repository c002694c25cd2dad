"""Compiled, incrementally-maintained constraint checking.

The object-path :class:`~repro.core.constraints.ConstraintSet` re-derives
per-host loads and per-link demands from scratch on every ``allows`` query —
O(components) work per candidate move, which dominates a local-search round
now that objective scoring is served by the compiled kernels.  This module
is the constraint-side counterpart of :mod:`repro.algorithms.compiled`:
:func:`compile_constraints` lowers a ``ConstraintSet`` onto a
:class:`~repro.algorithms.compiled.CompiledModel` snapshot, producing a
:class:`CompiledConstraintSet` whose state — residual memory/CPU load
vectors, location bitmasks, collocation group tallies (merged into
invalidation groups by union-find), and bandwidth demand accumulators — is
updated in O(degree) per :meth:`~CompiledConstraintSet.place` and queried in
O(1) per :meth:`~CompiledConstraintSet.allows`.  A pairwise swap over memory,
CPU and location terms is judged without moving anything
(:meth:`~CompiledConstraintSet.swap_enters`,
:meth:`~CompiledConstraintSet.swap_satisfied`): the loads two ``place`` calls
would write are computed in the same operand order, so the answers are those
of the place/probe/undo sequence.

Exactness contract (property-tested in
``tests/core/test_constraints_compiled.py``; swaps in
``tests/algorithms/test_swap_allows.py``): for any assignment reachable
by ``bind``/``place``/``undo``, ``allows``/``satisfied``/``violations``
return exactly what the object path returns on the equivalent mapping.
Compilation is by *exact* constraint type — a subclassed or unknown
constraint makes :func:`compile_constraints` return ``None`` and callers
keep the object path, so user extensions are never silently reinterpreted.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.constraints import (
    BandwidthConstraint, CollocationConstraint, Constraint, ConstraintSet,
    CpuConstraint, LocationConstraint, MemoryConstraint,
)
from repro.algorithms.compiled import UNDEPLOYED, CompiledModel

#: Sentinel recorded in undo tokens for dict keys that did not exist.
_MISSING = object()

#: One reversible write: (container, key, prior value or _MISSING).
_UndoEntry = Tuple[Union[list, dict], Union[int, Tuple[int, int], str], object]

#: Opaque token returned by :meth:`CompiledConstraintSet.place`.
UndoToken = List[_UndoEntry]


class _UnionFind:
    """Tiny union-find over component indices (collocation groups)."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _pair(i: int, j: int) -> Tuple[int, int]:
    return (i, j) if i < j else (j, i)


class CompiledConstraintSet:
    """Index-based incremental mirror of one ``ConstraintSet``.

    Built by :func:`compile_constraints`; holds a mutable assignment array
    (host index per component, ``UNDEPLOYED`` when absent) plus the derived
    state needed to answer ``allows`` in O(1) and keep itself consistent in
    O(degree) per move.  :meth:`place` returns an undo token that restores
    the *exact* prior floats, so trial moves (swap feasibility probes,
    search backtracking) round-trip bit-identically.
    """

    def __init__(self, cm: CompiledModel):
        self.cm = cm
        n_c, n_h = cm.n_components, cm.n_hosts
        self.assignment: List[int] = [UNDEPLOYED] * n_c
        #: Original-order entries driving ``violations``/``violation_count``.
        self.entries: List[tuple] = []
        # -- memory / cpu ------------------------------------------------
        self.n_memory = 0
        self.n_cpu = 0
        self.mem_load: List[float] = [0.0] * n_h
        self.cpu_load: List[float] = [0.0] * n_h
        #: Scalar overload tallies (dict-held so undo tokens can restore
        #: them through the same generic (container, key, old) mechanism).
        self.tally: Dict[str, int] = {"mem_over": 0, "cpu_over": 0,
                                      "loc_over": 0}
        # -- location ----------------------------------------------------
        #: Per-component AND of every location constraint's host bitmask.
        self.loc_mask: List[int] = [(1 << n_h) - 1] * n_c
        self.has_location = False
        # -- collocation -------------------------------------------------
        #: Per "together" constraint: counts per host, members, tallies.
        self.together: List[dict] = []
        self.comp_together: List[List[int]] = [[] for _ in range(n_c)]
        #: Per "apart" constraint: counts per host plus collision tally.
        self.apart: List[dict] = []
        self.comp_apart: List[List[int]] = [[] for _ in range(n_c)]
        #: Union-find closure over all collocation constraints' members —
        #: the conservative "whose legality may depend on this component"
        #: set SearchState uses for dirty-row invalidation.
        self.colloc_partners: List[Tuple[int, ...]] = [()] * n_c
        # -- bandwidth ---------------------------------------------------
        #: One state dict per BandwidthConstraint entry:
        #: demand[(i,j)] KB/s, count[(i,j)] contributing edges, over tally.
        self.bandwidth: List[dict] = []

    # -- derived flags ---------------------------------------------------
    @property
    def has_memory(self) -> bool:
        return self.n_memory > 0

    @property
    def has_cpu(self) -> bool:
        return self.n_cpu > 0

    @property
    def has_bandwidth(self) -> bool:
        return bool(self.bandwidth)

    @property
    def has_collocation(self) -> bool:
        return bool(self.together or self.apart)

    # -- binding ---------------------------------------------------------
    def bind(self, assignment: Union[Mapping[str, str], Sequence[int]],
             ) -> None:
        """Rebuild all incremental state for *assignment* from scratch."""
        cm = self.cm
        if isinstance(assignment, Mapping):
            encoded = cm.encode(assignment)
            if encoded is None:
                raise ValueError("assignment references unknown hosts")
        else:
            encoded = list(assignment)
        self.assignment = [UNDEPLOYED] * cm.n_components
        self.mem_load = [0.0] * cm.n_hosts
        self.cpu_load = [0.0] * cm.n_hosts
        self.tally["mem_over"] = self.tally["cpu_over"] = 0
        self.tally["loc_over"] = 0
        for state in self.together:
            state["counts"] = {}
            state["placed"] = 0
            state["distinct"] = 0
        for state in self.apart:
            state["counts"] = {}
            state["collisions"] = 0
        for state in self.bandwidth:
            state["demand"] = {}
            state["count"] = {}
            state["over"] = 0
        for ci, hi in enumerate(encoded):
            if hi != UNDEPLOYED:
                self.place(ci, hi)

    # -- queries ----------------------------------------------------------
    def allows(self, ci: int, hi: int) -> bool:
        """May component *ci* be placed on host *hi* given current state?

        Replicates ``ConstraintSet.allows`` on the equivalent mapping: the
        component's own current contribution (if placed) is excluded from
        resource sums and moved in bandwidth demands.
        """
        cm = self.cm
        cur = self.assignment[ci]
        if self.has_location and not (self.loc_mask[ci] >> hi) & 1:
            return False
        if self.n_memory:
            need = cm.component_memory[ci]
            if cur == hi:
                if self.mem_load[hi] > cm.host_memory[hi]:
                    return False
            elif self.mem_load[hi] + need > cm.host_memory[hi]:
                return False
        if self.n_cpu:
            need = cm.component_cpu[ci]
            if cur == hi:
                if self.cpu_load[hi] > cm.host_cpu[hi]:
                    return False
            elif self.cpu_load[hi] + need > cm.host_cpu[hi]:
                return False
        for gi in self.comp_together[ci]:
            state = self.together[gi]
            on_self = 1 if cur != UNDEPLOYED else 0
            placed_others = state["placed"] - on_self
            on_target = state["counts"].get(hi, 0) - (1 if cur == hi else 0)
            if placed_others != on_target:
                return False
        for gi in self.comp_apart[ci]:
            state = self.apart[gi]
            if state["counts"].get(hi, 0) - (1 if cur == hi else 0) > 0:
                return False
        if self.bandwidth and not self._bandwidth_allows(ci, hi, cur):
            return False
        return True

    def _bandwidth_allows(self, ci: int, hi: int, cur: int) -> bool:
        cm = self.cm
        assignment = self.assignment
        for state in self.bandwidth:
            if cur == hi:  # extension changes nothing
                if state["over"]:
                    return False
                continue
            touched: Dict[Tuple[int, int], List[float]] = {}
            for neighbor, edge in cm.adjacency[ci]:
                nh = assignment[neighbor]
                if nh == UNDEPLOYED:
                    continue
                vol = cm.edge_volume[edge]
                if cur != UNDEPLOYED and cur != nh:
                    entry = touched.setdefault(_pair(cur, nh), [0.0, 0])
                    entry[0] -= vol
                    entry[1] -= 1
                if hi != nh:
                    entry = touched.setdefault(_pair(hi, nh), [0.0, 0])
                    entry[0] += vol
                    entry[1] += 1
            over = state["over"]
            demand, count = state["demand"], state["count"]
            for key, (dvol, dcount) in touched.items():
                old_demand = demand.get(key, 0.0)
                old_count = count.get(key, 0)
                cap = cm.bandwidth[key[0]][key[1]]
                if old_count > 0 and old_demand > cap:
                    over -= 1
                if old_count + dcount > 0 and old_demand + dvol > cap:
                    over += 1
            if over:
                return False
        return True

    def satisfied(self) -> bool:
        """``ConstraintSet.is_satisfied`` of the current (partial) state."""
        if self.tally["mem_over"] or self.tally["cpu_over"] \
                or self.tally["loc_over"]:
            return False
        for state in self.together:
            if state["placed"] >= 2 and state["distinct"] > 1:
                return False
        for state in self.apart:
            if state["collisions"]:
                return False
        for state in self.bandwidth:
            if state["over"]:
                return False
        return True

    # ``is_satisfied_partial`` coincides with ``is_satisfied`` for every
    # compilable constraint type (Collocation's override delegates to it).
    satisfied_partial = satisfied

    # -- swap arithmetic ---------------------------------------------------
    @property
    def swap_by_arithmetic(self) -> bool:
        """Whether :meth:`swap_enters`/:meth:`swap_satisfied` apply.

        They do when every term is per host (memory, CPU, location);
        collocation and bandwidth terms couple other components' hosts.
        """
        return not (self.together or self.apart or self.bandwidth)

    def swap_enters(self, ca: int, cb: int) -> bool:
        """``allows(ca, hb)`` with *cb* removed from its host ``hb``.

        The first probe of a swap, answered without moving anything: the
        loads are the floats ``place(cb, UNDEPLOYED)`` would leave.  Only
        for :attr:`swap_by_arithmetic` sets and deployed *ca*, *cb* on
        distinct hosts.
        """
        cm = self.cm
        hb = self.assignment[cb]
        if self.has_location and not (self.loc_mask[ca] >> hb) & 1:
            return False
        if self.n_memory:
            need = cm.component_memory
            if (self.mem_load[hb] - need[cb]) + need[ca] > cm.host_memory[hb]:
                return False
        if self.n_cpu:
            need = cm.component_cpu
            if (self.cpu_load[hb] - need[cb]) + need[ca] > cm.host_cpu[hb]:
                return False
        return True

    def swap_satisfied(self, ca: int, cb: int) -> bool:
        """:meth:`satisfied` once *ca* and *cb* exchange hosts, unmoved.

        ``place(ca, hb)`` then ``place(cb, ha)`` change each overload
        tally only through the two hosts, so the tally after the exchange
        is the current one minus both hosts' overload now plus their
        overload at the loads those two calls would write (same operand
        order).  Same
        preconditions as :meth:`swap_enters`.
        """
        cm = self.cm
        assignment, tally = self.assignment, self.tally
        ha, hb = assignment[ca], assignment[cb]
        if self.n_memory and _swapped_over(
                tally["mem_over"], self.mem_load, cm.component_memory,
                cm.host_memory, ca, cb, ha, hb):
            return False
        if self.n_cpu and _swapped_over(
                tally["cpu_over"], self.cpu_load, cm.component_cpu,
                cm.host_cpu, ca, cb, ha, hb):
            return False
        if self.has_location:
            mask_a, mask_b = self.loc_mask[ca], self.loc_mask[cb]
            # A component is off-limits where its mask bit is clear.
            if (tally["loc_over"] + ((mask_a >> ha) & 1)
                    - ((mask_a >> hb) & 1) + ((mask_b >> hb) & 1)
                    - ((mask_b >> ha) & 1)):
                return False
        return True

    # -- mutation ----------------------------------------------------------
    def place(self, ci: int, hi: int) -> UndoToken:
        """Move component *ci* to host *hi* (``UNDEPLOYED`` removes it).

        Returns an undo token; :meth:`undo` restores every touched float
        and count to its exact prior value.
        """
        token: UndoToken = []
        cur = self.assignment[ci]
        if cur == hi:
            return token
        cm = self.cm
        token.append((self.assignment, ci, cur))
        self.assignment[ci] = hi
        if self.n_memory:
            self._shift_load(token, self.mem_load, cm.component_memory[ci],
                             cm.host_memory, "mem_over", cur, hi)
        if self.n_cpu:
            self._shift_load(token, self.cpu_load, cm.component_cpu[ci],
                             cm.host_cpu, "cpu_over", cur, hi)
        if self.has_location:
            mask = self.loc_mask[ci]
            was_bad = cur != UNDEPLOYED and not (mask >> cur) & 1
            is_bad = hi != UNDEPLOYED and not (mask >> hi) & 1
            if was_bad != is_bad:
                self._bump(token, self.tally, "loc_over",
                           1 if is_bad else -1)
        for gi in self.comp_together[ci]:
            self._shift_together(token, self.together[gi], cur, hi)
        for gi in self.comp_apart[ci]:
            self._shift_apart(token, self.apart[gi], cur, hi)
        if self.bandwidth:
            for state in self.bandwidth:
                self._shift_bandwidth(token, state, ci, cur, hi)
        return token

    def undo(self, token: UndoToken) -> None:
        """Revert one :meth:`place`, restoring exact prior state."""
        for container, key, old in reversed(token):
            if old is _MISSING:
                del container[key]
            else:
                container[key] = old

    # -- internal mutation helpers ----------------------------------------
    def _set(self, token: UndoToken, container, key, value) -> None:
        if isinstance(container, dict):
            token.append((container, key, container.get(key, _MISSING)))
        else:
            token.append((container, key, container[key]))
        container[key] = value

    def _bump(self, token: UndoToken, container: dict, key, delta: int,
              ) -> None:
        self._set(token, container, key, container.get(key, 0) + delta)

    def _shift_load(self, token: UndoToken, load: List[float], need: float,
                    cap: List[float], over_key: str, cur: int, new: int,
                    ) -> None:
        # The hottest writer of ``place``: it appends its undo entries
        # itself instead of going through ``_set``/``_bump``.
        tally = self.tally
        for host, delta in ((cur, -need), (new, need)):
            if host == UNDEPLOYED:
                continue
            old = load[host]
            token.append((load, host, old))
            load[host] = shifted = old + delta
            before = old > cap[host]
            if before != (shifted > cap[host]):
                count = tally[over_key]
                token.append((tally, over_key, count))
                tally[over_key] = count - 1 if before else count + 1

    def _shift_together(self, token: UndoToken, state: dict, cur: int,
                        new: int) -> None:
        counts = state["counts"]
        if cur != UNDEPLOYED:
            remaining = counts[cur] - 1
            if remaining:
                self._set(token, counts, cur, remaining)
            else:
                token.append((counts, cur, counts[cur]))
                del counts[cur]
                self._bump(token, state, "distinct", -1)
            self._bump(token, state, "placed", -1)
        if new != UNDEPLOYED:
            if new in counts:
                self._set(token, counts, new, counts[new] + 1)
            else:
                self._set(token, counts, new, 1)
                self._bump(token, state, "distinct", 1)
            self._bump(token, state, "placed", 1)

    def _shift_apart(self, token: UndoToken, state: dict, cur: int,
                     new: int) -> None:
        counts = state["counts"]
        if cur != UNDEPLOYED:
            if counts[cur] >= 2:
                self._bump(token, state, "collisions", -1)
            remaining = counts[cur] - 1
            if remaining:
                self._set(token, counts, cur, remaining)
            else:
                token.append((counts, cur, counts[cur]))
                del counts[cur]
        if new != UNDEPLOYED:
            had = counts.get(new, 0)
            self._set(token, counts, new, had + 1)
            if had >= 1:
                self._bump(token, state, "collisions", 1)

    def _shift_bandwidth(self, token: UndoToken, state: dict, ci: int,
                         cur: int, new: int) -> None:
        cm = self.cm
        assignment = self.assignment
        demand, count = state["demand"], state["count"]
        for neighbor, edge in cm.adjacency[ci]:
            nh = assignment[neighbor]
            if nh == UNDEPLOYED:
                continue
            vol = cm.edge_volume[edge]
            for host, sign in ((cur, -1), (new, 1)):
                if host == UNDEPLOYED or host == nh:
                    continue
                key = _pair(host, nh)
                old_demand = demand.get(key, 0.0)
                old_count = count.get(key, 0)
                cap = cm.bandwidth[key[0]][key[1]]
                was_over = old_count > 0 and old_demand > cap
                new_count = old_count + sign
                if new_count:
                    self._set(token, demand, key, old_demand + sign * vol)
                    self._set(token, count, key, new_count)
                    is_over = demand[key] > cap
                else:
                    # Last contributing edge gone: drop the pair entirely
                    # (resets any accumulated float drift to exact zero).
                    token.append((demand, key, old_demand))
                    del demand[key]
                    token.append((count, key, old_count))
                    del count[key]
                    is_over = False
                if was_over != is_over:
                    self._bump(token, state, "over", 1 if is_over else -1)

    # -- reporting ---------------------------------------------------------
    def violation_count(self, assignment: Optional[Sequence[int]] = None,
                        ) -> int:
        """``len(ConstraintSet.violations(...))``.

        Counts the bound assignment, or *assignment* (a host index or
        ``UNDEPLOYED`` per component) without rebinding: the rows are
        recomputed from the list either way.
        """
        if assignment is None:
            assignment = self.assignment
        return sum(len(rows) for rows in self._violation_rows(assignment))

    def violations(self) -> List[str]:
        """Exact object-path violation messages, in constraint order."""
        out: List[str] = []
        for rows in self._violation_rows(self.assignment):
            out.extend(rows)
        return out

    def _violation_rows(self, assignment: Sequence[int]):
        """Per-entry violation lists, recomputed fresh from *assignment*.

        Cold path: recomputing (rather than reading incremental floats)
        reproduces the object path's accumulation order, keeping the
        rendered ``:g`` numbers bit-identical.
        """
        cm = self.cm
        mem_rows: Optional[List[str]] = None
        for entry in self.entries:
            kind = entry[0]
            if kind == "memory":
                if mem_rows is None:
                    loads: Dict[int, float] = {}
                    for ci, hi in enumerate(assignment):
                        if hi != UNDEPLOYED:
                            loads[hi] = loads.get(hi, 0.0) + \
                                cm.component_memory[ci]
                    mem_rows = [
                        (f"host {cm.host_ids[hi]!r}: components need "
                         f"{used:g} KB but only {cm.host_memory[hi]:g} KB "
                         f"available")
                        for hi, used in sorted(loads.items())
                        if used > cm.host_memory[hi]
                    ]
                yield mem_rows
            elif kind == "cpu":
                loads = {}
                violated = False
                for ci, hi in enumerate(assignment):
                    if hi != UNDEPLOYED:
                        loads[hi] = loads.get(hi, 0.0) + cm.component_cpu[ci]
                        if loads[hi] > cm.host_cpu[hi]:
                            violated = True
                yield ["CpuConstraint() violated"] if violated else []
            elif kind == "location":
                __, component_id, ci, mask = entry
                rows: List[str] = []
                if ci is not None:
                    hi = assignment[ci]
                    if hi != UNDEPLOYED and not (mask >> hi) & 1:
                        rows = [f"component {component_id!r} may not be "
                                f"deployed on {cm.host_ids[hi]!r}"]
                yield rows
            elif kind in ("together", "apart"):
                __, member_ids, known_idx, member_idx = entry
                hosts = [assignment[ci] for ci in known_idx
                         if assignment[ci] != UNDEPLOYED]
                if kind == "together":
                    bad = len(hosts) >= 2 and len(set(hosts)) != 1
                else:
                    bad = len(set(hosts)) != len(hosts)
                if not bad:
                    yield []
                    continue
                placement = {}
                for cid, ci in zip(member_ids, member_idx, strict=True):
                    if ci is None or assignment[ci] == UNDEPLOYED:
                        placement[cid] = None
                    else:
                        placement[cid] = cm.host_ids[assignment[ci]]
                mode = ("must share a host" if kind == "together"
                        else "must be separated")
                yield [f"components {placement} {mode}"]
            elif kind == "bandwidth":
                demand: Dict[Tuple[int, int], float] = {}
                for e in range(len(cm.edge_a)):
                    ha = assignment[cm.edge_a[e]]
                    hb = assignment[cm.edge_b[e]]
                    if ha == UNDEPLOYED or hb == UNDEPLOYED or ha == hb:
                        continue
                    key = _pair(ha, hb)
                    demand[key] = demand.get(key, 0.0) + cm.edge_volume[e]
                rows = []
                for (ha, hb), need in sorted(demand.items()):
                    cap = cm.bandwidth[ha][hb]
                    if need > cap:
                        rows.append(
                            f"link {cm.host_ids[ha]!r}<->{cm.host_ids[hb]!r}"
                            f": needs {need:g} KB/s, capacity {cap:g} KB/s")
                yield rows


def _swapped_over(over: int, load: List[float], need: List[float],
                  cap: List[float], ca: int, cb: int, ha: int, hb: int,
                  ) -> int:
    """Overload tally after *ca* (on *ha*) and *cb* (on *hb*) exchange."""
    return (over - (load[ha] > cap[ha]) - (load[hb] > cap[hb])
            + ((load[ha] - need[ca]) + need[cb] > cap[ha])
            + ((load[hb] + need[ca]) - need[cb] > cap[hb]))


def _flatten(constraints: ConstraintSet) -> Optional[List[Constraint]]:
    flat: List[Constraint] = []
    for constraint in constraints.constraints:
        if type(constraint) is ConstraintSet:
            nested = _flatten(constraint)
            if nested is None:
                return None
            flat.extend(nested)
        else:
            flat.append(constraint)
    return flat


_COMPILABLE = (MemoryConstraint, CpuConstraint, LocationConstraint,
               CollocationConstraint, BandwidthConstraint)


def compile_constraints(constraints: ConstraintSet, cm: CompiledModel,
                        ) -> Optional[CompiledConstraintSet]:
    """Lower *constraints* onto the *cm* snapshot, or ``None``.

    Returns ``None`` — meaning "use the object path" — when any member is
    not one of the built-in constraint types by *exact* type (subclasses may
    override semantics), or is a collocation constraint with duplicate
    members (whose object-path semantics are degenerate).
    """
    flat = _flatten(constraints)
    if flat is None:
        return None
    for constraint in flat:
        if type(constraint) not in _COMPILABLE:
            return None
    compiled = CompiledConstraintSet(cm)
    all_hosts_mask = (1 << cm.n_hosts) - 1
    uf = _UnionFind(cm.n_components)
    colloc_members: List[List[int]] = []
    for constraint in flat:
        if type(constraint) is MemoryConstraint:
            compiled.n_memory += 1
            compiled.entries.append(("memory",))
        elif type(constraint) is CpuConstraint:
            compiled.n_cpu += 1
            compiled.entries.append(("cpu",))
        elif type(constraint) is LocationConstraint:
            ci = cm.component_index.get(constraint.component)
            mask = 0
            for hi, host_id in enumerate(cm.host_ids):
                if constraint.permits_host(host_id):
                    mask |= 1 << hi
            if ci is not None:
                compiled.loc_mask[ci] &= mask
                compiled.has_location = True
            compiled.entries.append(
                ("location", constraint.component, ci, mask))
        elif type(constraint) is CollocationConstraint:
            members = constraint.components
            if len(set(members)) != len(members):
                return None
            member_idx = [cm.component_index.get(c) for c in members]
            known = [ci for ci in member_idx if ci is not None]
            state = {"counts": {}, "placed": 0, "distinct": 0,
                     "collisions": 0}
            if constraint.together:
                gi = len(compiled.together)
                compiled.together.append(state)
                for ci in known:
                    compiled.comp_together[ci].append(gi)
            else:
                gi = len(compiled.apart)
                compiled.apart.append(state)
                for ci in known:
                    compiled.comp_apart[ci].append(gi)
            for ci in known[1:]:
                uf.union(known[0], ci)
            colloc_members.append(known)
            compiled.entries.append(
                ("together" if constraint.together else "apart",
                 tuple(members), known, member_idx))
        else:  # BandwidthConstraint
            compiled.bandwidth.append({"demand": {}, "count": {}, "over": 0})
            compiled.entries.append(("bandwidth",))
    if colloc_members:
        groups: Dict[int, List[int]] = {}
        for members in colloc_members:
            for ci in members:
                groups.setdefault(uf.find(ci), []).append(ci)
        for root, members in groups.items():
            closure = tuple(sorted(set(members)))
            for ci in closure:
                compiled.colloc_partners[ci] = closure
    return compiled
