"""repro.plan — constraint-safe migration scheduling.

Turns a ``(current, target)`` deployment delta into a
:class:`MigrationSchedule`: moves grouped into parallel **waves** whose
barrier states all satisfy the model's constraint set, with per-wave
transfers routed and packed against per-link bandwidth so the predicted
makespan reflects contention.  Each wave is a rollback barrier for
:class:`~repro.core.effector.MiddlewareEffector`, which on a wave
failure restores only the last barrier and re-plans from there.

Entry points:

* :class:`MigrationPlanner` / :func:`build_schedule` — build a schedule;
* :func:`naive_schedule` — the single all-at-once wave every planner-less
  :class:`~repro.core.effector.RedeploymentPlan` carries;
* :func:`repro.lint.verify_schedule` — static verification (PL001–PL003);
* ``python -m repro plan`` — build, render, lint, and diff schedules.

See ``docs/PLANNING.md`` for the schedule model and wave semantics.
"""

from repro.plan.planner import (
    MigrationPlanner, build_schedule, candidate_routes, isolation_route,
    naive_schedule, pack_wave, predict_wave_eta,
)
from repro.plan.schedule import (
    MigrationSchedule, ScheduledMove, Wave, schedule_from_dict,
    schedule_from_json,
)

__all__ = [
    "MigrationPlanner",
    "MigrationSchedule",
    "ScheduledMove",
    "Wave",
    "build_schedule",
    "candidate_routes",
    "isolation_route",
    "naive_schedule",
    "pack_wave",
    "predict_wave_eta",
    "schedule_from_dict",
    "schedule_from_json",
]
