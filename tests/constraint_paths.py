"""Route a constraint set through the object-path checker.

Constraint compilation dispatches on each constraint's *exact* type, so a
set whose members are re-typed as trivial subclasses of the built-in
constraints never compiles: searches over it take
:class:`~repro.algorithms.search.ObjectConstraintChecker` (and the
frontier's conservative legality rescans) while judging placements exactly
as the original set does.  Tests use it as the reference the compiled
checker must agree with.
"""

from __future__ import annotations

import copy

from repro.core.constraints import ConstraintSet


def object_path(constraints: ConstraintSet) -> ConstraintSet:
    """A behaviourally identical copy of *constraints* that never compiles."""
    members = []
    for constraint in constraints:
        cls = type(constraint)
        clone = copy.copy(constraint)
        clone.__class__ = type(f"Uncompiled{cls.__name__}", (cls,), {})
        members.append(clone)
    return ConstraintSet(members)
