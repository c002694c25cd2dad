"""The migration-schedule data model.

A :class:`MigrationSchedule` answers "how do we get from *current* to
*target*?": the move set of a
:class:`~repro.core.effector.RedeploymentPlan` ordered into **waves**.
Every plan carries one — the planner's constraint-safe waves, or without
a planner the single all-at-once wave of
:func:`~repro.plan.planner.naive_schedule`.  Moves inside one wave
transfer concurrently; waves execute strictly in sequence, and the
deployment reached after each wave — its **barrier state** — is, for a
planner-built schedule, required to satisfy the model's constraint set.
Barriers are also the rollback unit: when a wave fails mid-flight the
effector restores the last barrier state, so a single-wave plan is
rolled back whole (see
:meth:`~repro.core.effector.MiddlewareEffector.effect` and
``docs/PLANNING.md``).

Every move carries the **route** its prediction was packed against: a
host path ``(source, ..., target)`` of length 2 (direct link) or 3
(relayed through the Deployer-mediated path).  Per-wave predicted
durations charge each physical link with the total volume routed over
it, so the schedule's ``makespan`` reflects link contention; it is the
plan's ``estimated_time``.

The schedule is a plain-data :class:`~repro.core.report.Report`: it
serializes to canonical JSON (``to_json``), round-trips via
:func:`schedule_from_dict`, renders as a wave table, and diffs against
another schedule — the surface behind ``python -m repro plan``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Tuple

from repro.core.errors import ScheduleError
from repro.core.report import ReportBase

__all__ = [
    "MigrationSchedule", "ScheduledMove", "Wave", "schedule_from_dict",
    "schedule_from_json",
]


@dataclass(frozen=True)
class ScheduledMove:
    """One component transfer inside a wave."""

    component: str
    source: str
    target: str
    #: Serialized size shipped over the route, KB.
    kb: float
    #: Host path the prediction charges: ``(source, target)`` for a
    #: direct link, ``(source, relay, target)`` for a relayed transfer.
    route: Tuple[str, ...]
    #: Predicted transfer seconds over the route *including* the volume
    #: of every other same-wave move sharing its links.
    eta: float = 0.0
    #: True when this hop parks the component on a buffer host rather
    #: than its final destination (a later wave completes the journey).
    staged: bool = False

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "component": self.component,
            "source": self.source,
            "target": self.target,
            "kb": self.kb,
            "route": list(self.route),
            "eta": self.eta,
        }
        if self.staged:
            out["staged"] = True
        return out


@dataclass(frozen=True)
class Wave:
    """One batch of concurrent transfers ending at a rollback barrier."""

    index: int
    moves: Tuple[ScheduledMove, ...]
    #: Predicted wall (simulated) seconds for the slowest transfer in
    #: the wave under the recorded route packing.
    eta: float = 0.0

    def placements(self) -> Dict[str, str]:
        """Where the wave leaves each component it moves."""
        return {move.component: move.target for move in self.moves}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "eta": self.eta,
            "moves": [move.to_dict() for move in self.moves],
        }


@dataclass
class MigrationSchedule(ReportBase):
    """A constraint-safe, bandwidth-packed ordering of a migration."""

    current: Dict[str, str]
    target: Dict[str, str]
    waves: Tuple[Wave, ...]
    #: Component ids whose moves have no route with positive bandwidth
    #: (directly or via one relay); they appear in no wave.
    unreachable: Tuple[str, ...] = ()
    #: Sum of per-wave predicted durations, simulated seconds.
    makespan: float = 0.0
    #: Total volume shipped across all waves (staging hops count twice).
    total_kb: float = 0.0
    #: Components routed through a buffer host.
    staged_components: Tuple[str, ...] = ()
    detail: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def moves(self) -> Tuple[ScheduledMove, ...]:
        """Every scheduled move in execution order."""
        return tuple(move for wave in self.waves for move in wave.moves)

    @property
    def move_count(self) -> int:
        return sum(len(wave.moves) for wave in self.waves)

    def state_after(self, wave_index: int) -> Dict[str, str]:
        """Barrier deployment after ``waves[wave_index]`` completes.

        ``wave_index == -1`` yields the starting deployment.
        """
        if wave_index >= len(self.waves):
            raise ScheduleError(
                f"wave index {wave_index} out of range "
                f"({len(self.waves)} waves)")
        state = dict(self.current)
        for wave in self.waves[:wave_index + 1]:
            state.update(wave.placements())
        return state

    def barrier_states(self) -> Iterator[Dict[str, str]]:
        """Yield the deployment after each wave, in order."""
        state = dict(self.current)
        for wave in self.waves:
            state.update(wave.placements())
            yield dict(state)

    def final_state(self) -> Dict[str, str]:
        """The deployment the schedule terminates in.

        Equals ``current`` overlaid with ``target`` except for
        ``unreachable`` components, which stay where they are.
        """
        if not self.waves:
            return dict(self.current)
        return self.state_after(len(self.waves) - 1)

    # ------------------------------------------------------------------
    # Report protocol
    # ------------------------------------------------------------------
    def to_dict(self, **opts: Any) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "current": dict(sorted(self.current.items())),
            "target": dict(sorted(self.target.items())),
            "waves": [wave.to_dict() for wave in self.waves],
            "unreachable": list(self.unreachable),
            "makespan": self.makespan,
            "total_kb": self.total_kb,
            "staged_components": list(self.staged_components),
        }
        if self.detail:
            out["detail"] = dict(sorted(self.detail.items()))
        return out

    def summary_line(self) -> str:
        line = (f"MigrationSchedule({self.move_count} moves in "
                f"{len(self.waves)} waves, ~{self.total_kb:.1f} KB, "
                f"makespan ~{self.makespan:.3f} s)")
        if self.staged_components:
            line += f", {len(self.staged_components)} staged"
        if self.unreachable:
            line += f", {len(self.unreachable)} unreachable"
        return line

    def render(self, **opts: Any) -> str:
        lines = [self.summary_line()]
        for wave in self.waves:
            lines.append(f"  wave {wave.index} (~{wave.eta:.3f} s):")
            for move in wave.moves:
                hop = ("via " + "-".join(move.route[1:-1])
                       if len(move.route) > 2 else "direct")
                tag = " [staged]" if move.staged else ""
                lines.append(
                    f"    {move.component}: {move.source} -> {move.target} "
                    f"({move.kb:.1f} KB, {hop}, ~{move.eta:.3f} s){tag}")
        for component in self.unreachable:
            lines.append(f"  unreachable: {component} "
                         f"(no route with positive bandwidth)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Diff
    # ------------------------------------------------------------------
    def diff(self, other: "MigrationSchedule") -> str:
        """Human-readable wave-by-wave difference against *other*."""
        lines: List[str] = []
        if self.makespan != other.makespan:
            lines.append(f"makespan: {self.makespan:.3f} -> "
                         f"{other.makespan:.3f}")
        if self.total_kb != other.total_kb:
            lines.append(f"total_kb: {self.total_kb:.1f} -> "
                         f"{other.total_kb:.1f}")

        def placements(schedule: "MigrationSchedule"
                       ) -> Dict[Tuple[str, str, str, bool], int]:
            table: Dict[Tuple[str, str, str, bool], int] = {}
            for wave in schedule.waves:
                for move in wave.moves:
                    key = (move.component, move.source, move.target,
                           move.staged)
                    table[key] = wave.index
            return table

        ours, theirs = placements(self), placements(other)
        for key in sorted(set(ours) | set(theirs)):
            component, source, target, staged = key
            label = (f"{component}: {source} -> {target}"
                     + (" [staged]" if staged else ""))
            if key not in theirs:
                lines.append(f"- {label} (wave {ours[key]})")
            elif key not in ours:
                lines.append(f"+ {label} (wave {theirs[key]})")
            elif ours[key] != theirs[key]:
                lines.append(f"~ {label}: wave {ours[key]} -> "
                             f"wave {theirs[key]}")
        if not lines:
            lines.append("schedules are identical")
        return "\n".join(lines)


def schedule_from_dict(data: Mapping[str, Any]) -> MigrationSchedule:
    """Rebuild a :class:`MigrationSchedule` from its ``to_dict`` form."""
    try:
        waves = tuple(
            Wave(index=int(wave["index"]), eta=float(wave["eta"]),
                 moves=tuple(
                     ScheduledMove(
                         component=move["component"],
                         source=move["source"],
                         target=move["target"],
                         kb=float(move["kb"]),
                         route=tuple(move["route"]),
                         eta=float(move.get("eta", 0.0)),
                         staged=bool(move.get("staged", False)),
                     ) for move in wave["moves"]))
            for wave in data["waves"])
        return MigrationSchedule(
            current=dict(data["current"]),
            target=dict(data["target"]),
            waves=waves,
            unreachable=tuple(data.get("unreachable", ())),
            makespan=float(data.get("makespan", 0.0)),
            total_kb=float(data.get("total_kb", 0.0)),
            staged_components=tuple(data.get("staged_components", ())),
            detail=dict(data.get("detail", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc


def schedule_from_json(text: str) -> MigrationSchedule:
    """Parse a schedule previously serialized with ``to_json``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"schedule is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScheduleError("schedule document must be a JSON object")
    return schedule_from_dict(data)
