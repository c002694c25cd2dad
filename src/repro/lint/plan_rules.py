"""Pillar 1d — the schedule verifier: static rules over migration schedules.

A :class:`~repro.plan.MigrationSchedule` is a promise: every wave's
barrier state stays inside the constraint set, every recorded prediction
accounts for link contention, and every move can actually traverse its
route.  The planner establishes those properties at build time, but a
schedule is a plain document — it can be saved, edited, replayed against
a drifted model, or produced by other tooling — so the promise deserves
independent verification, through the same rule engine as the model and
fault-plan verifiers.

Rules:

* ``PL001`` (error) — a wave's barrier state violates the constraint set
  (beyond the violations already present in the starting deployment);
* ``PL002`` (warning) — a wave's recorded predictions undercut the
  contention-aware recomputation (the packing oversubscribes a link, or
  the schedule is stale for this model);
* ``PL003`` (error) — a scheduled move is unreachable: a route leg has
  no positive-bandwidth link under the current model, the move departs
  from a host its component is not on, or a component the schedule
  itself declared unreachable appears in a wave anyway.

Entry points: :func:`verify_schedule` and
``python -m repro plan lint`` (see ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Type

from repro.algorithms.search import make_checker
from repro.core.constraints import ConstraintSet
from repro.core.model import DeploymentModel
from repro.lint.core import (
    Finding, LintReport, Rule, RuleRegistry, Severity,
)
from repro.plan.planner import predict_wave_eta
from repro.plan.schedule import MigrationSchedule

SCHEDULE = "schedule"

#: Relative slack granted to recorded etas before PL002 fires; predictions
#: are floats recomputed in a different summation order.
_ETA_TOLERANCE = 1e-6


@dataclass
class ScheduleLintContext:
    """A schedule paired with the model it is to run against.

    ``constraints`` defaults to the constraints stored on the model, the
    same default the planner uses at build time.
    """

    model: DeploymentModel
    schedule: MigrationSchedule
    constraints: Optional[ConstraintSet] = None

    def __post_init__(self) -> None:
        if self.constraints is None:
            self.constraints = ConstraintSet(self.model.constraints)


class ScheduleRule(Rule):
    """Base class for rules over :class:`ScheduleLintContext`."""

    tags = frozenset({SCHEDULE})

    def check(self, context: ScheduleLintContext) -> Iterable[Finding]:
        raise NotImplementedError


class WaveConstraintViolationRule(ScheduleRule):
    rule_id = "PL001"
    severity = Severity.ERROR
    description = ("Every post-wave barrier state must satisfy the "
                   "constraint set (no worse than the starting "
                   "deployment): barriers are rollback targets, and "
                   "rolling back into a violating deployment defeats the "
                   "schedule's safety guarantee.")
    tags = frozenset({SCHEDULE})

    def check(self, context: ScheduleLintContext) -> Iterable[Finding]:
        schedule = context.schedule
        checker = make_checker(context.model, context.constraints)
        checker.reset(dict(schedule.current))
        baseline = checker.violation_count()
        for wave in schedule.waves:
            state = schedule.state_after(wave.index)
            checker.reset(state)
            violations = checker.violation_count()
            if violations > baseline:
                yield self.finding(
                    f"barrier state violates {violations} constraint"
                    f"{'' if violations == 1 else 's'} "
                    f"(starting deployment violates {baseline})",
                    subject=f"wave {wave.index}",
                    violations=violations, baseline=baseline)


class WaveOversubscriptionRule(ScheduleRule):
    rule_id = "PL002"
    severity = Severity.WARNING
    description = ("A wave's recorded eta must cover the contention-aware "
                   "recomputation of its route packing; an undercut eta "
                   "means the wave oversubscribes a link (or the schedule "
                   "was packed against a different model) and the "
                   "predicted makespan is optimistic.")
    tags = frozenset({SCHEDULE})

    def check(self, context: ScheduleLintContext) -> Iterable[Finding]:
        for wave in context.schedule.waves:
            if not wave.moves:
                continue
            eta, __ = predict_wave_eta(context.model, wave.moves)
            if eta == float("inf"):
                continue  # PL003 reports the broken route itself
            if eta > wave.eta * (1.0 + _ETA_TOLERANCE) + _ETA_TOLERANCE:
                yield self.finding(
                    f"recorded eta {wave.eta:.3f} s undercuts the "
                    f"contention-aware recomputation {eta:.3f} s",
                    subject=f"wave {wave.index}",
                    recorded=wave.eta, recomputed=eta)


class UnreachableMoveRule(ScheduleRule):
    rule_id = "PL003"
    severity = Severity.ERROR
    description = ("Every scheduled move must be enactable: each route leg "
                   "needs a positive-bandwidth link in the current model, "
                   "the move must depart from the host its component "
                   "occupies at that wave, and components the schedule "
                   "declares unreachable must not appear in any wave.")
    tags = frozenset({SCHEDULE})

    def check(self, context: ScheduleLintContext) -> Iterable[Finding]:
        model = context.model
        schedule = context.schedule
        declared = set(schedule.unreachable)
        state = dict(schedule.current)
        for wave in schedule.waves:
            for move in wave.moves:
                subject = (f"wave {wave.index} move {move.component!r} "
                           f"({move.source} -> {move.target})")
                if move.component in declared:
                    yield self.finding(
                        "component is declared unreachable but appears "
                        "in a wave", subject=subject)
                located = state.get(move.component)
                if located != move.source:
                    yield self.finding(
                        f"move departs from {move.source!r} but the "
                        f"component is on {located!r} at this wave",
                        subject=subject)
                if (len(move.route) < 2 or move.route[0] != move.source
                        or move.route[-1] != move.target):
                    yield self.finding(
                        f"route {'-'.join(move.route)} does not connect "
                        f"source to target", subject=subject)
                    continue
                for a, b in zip(move.route, move.route[1:]):
                    if model.bandwidth(a, b) <= 0.0:
                        yield self.finding(
                            f"route leg {a}-{b} has no positive-bandwidth "
                            f"link", subject=subject, leg=[a, b])
            state.update(wave.placements())


#: The built-in schedule verifier rules, in rule-id order.
PLAN_RULES: Tuple[Type[ScheduleRule], ...] = (
    WaveConstraintViolationRule,
    WaveOversubscriptionRule,
    UnreachableMoveRule,
)


def plan_rule_registry() -> RuleRegistry:
    """A fresh registry holding the built-in schedule verifier rules."""
    return RuleRegistry(cls() for cls in PLAN_RULES)


def verify_schedule(model: DeploymentModel, schedule: MigrationSchedule,
                    constraints: Optional[ConstraintSet] = None,
                    registry: Optional[RuleRegistry] = None) -> LintReport:
    """Run the schedule verifier (``PL001``–``PL003``) over *schedule*.

    This is the static half of the wave-safety story: the planner
    guarantees these properties for the model it built against, and
    ``verify_schedule`` re-establishes them for the model you are about
    to execute against (``python -m repro plan lint``).
    """
    context = ScheduleLintContext(model, schedule, constraints=constraints)
    active = registry if registry is not None else plan_rule_registry()
    return active.run(context)
