"""The migration planner: waves, routes, and makespan packing.

:class:`MigrationPlanner` turns a ``(current, target)`` deployment delta
into a :class:`~repro.plan.schedule.MigrationSchedule` in three stages:

1. **Constraint-safe wave ordering.**  Moves are admitted into the
   earliest wave whose barrier state stays inside the model's
   constraint set, probed through the same incremental
   ``place_index``/``undo`` checker protocol the neighborhood-search engine
   uses (:func:`repro.algorithms.search.make_checker`, compiled
   O(1)-``allows`` path when every constraint type compiles).  When no
   single move can go first the planner tries placing interdependent
   moves *simultaneously* (swaps, collocated groups), and when even
   that fails it **stages** a blocked component through a buffer host,
   splitting its journey across two waves.

2. **Bandwidth packing.**  Within a wave every transfer gets a route —
   the direct link or a two-hop relay — and each physical link is
   charged the total volume routed over it.  Routes are assigned
   greedily (largest transfer first, onto the route that finishes it
   soonest under current loads) and then refined by steepest-descent
   local search, so concurrent transfers spread across parallel paths
   instead of piling onto the first link found.

3. **Cross-wave refinement.**  A second local-search pass moves whole
   transfers between waves when doing so shrinks the summed makespan
   while every barrier state stays feasible (re-verified by replay
   through the checker).

:func:`naive_schedule` builds the planner-less schedule — every move
at once, each on the route it would pick in isolation, priced with the
resulting link contention.  It is what
:func:`~repro.core.effector.plan_redeployment` attaches when no planner
is given, and the baseline the benchmarks compare the planner against.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.search import make_checker
from repro.core.constraints import ConstraintSet
from repro.core.errors import ScheduleError
from repro.core.model import Deployment, DeploymentModel
from repro.obs import Observability, get_observability
from repro.plan.schedule import MigrationSchedule, ScheduledMove, Wave

__all__ = ["MigrationPlanner", "build_schedule", "naive_schedule",
           "predict_wave_eta"]

#: Minimum makespan gain for a refinement step to be taken.
_GAIN_EPS = 1e-12

#: A transfer in flight through the planner: (component, source, target,
#: kb, staged).
_Pending = Tuple[str, str, str, float, bool]


def _place(checker, component: str, host: str):
    """Place *component* on *host*, translating ids through ``checker.cm``."""
    cm = checker.cm
    return checker.place_index(cm.component_index[component],
                               cm.host_index[host])


def _component_kb(model: DeploymentModel, component: str) -> float:
    """Serialized size shipped per hop (matches the plan's ``estimated_kb``)."""
    return max(model.component(component).memory, 0.1)


def _leg_time(model: DeploymentModel, a: str, b: str, kb: float) -> float:
    bandwidth = model.bandwidth(a, b)
    delay = model.delay(a, b)
    if bandwidth <= 0.0 or delay == float("inf"):
        return float("inf")
    transfer = 0.0 if bandwidth == float("inf") else kb / bandwidth
    return delay + transfer


def candidate_routes(model: DeploymentModel, source: str, target: str,
                     ) -> Tuple[Tuple[str, ...], ...]:
    """Usable host paths from *source* to *target*: the direct link plus
    every two-hop relay whose legs both have positive bandwidth."""
    routes: List[Tuple[str, ...]] = []
    if model.bandwidth(source, target) > 0.0:
        routes.append((source, target))
    for relay in model.host_ids:
        if relay in (source, target):
            continue
        if (model.bandwidth(source, relay) > 0.0
                and model.bandwidth(relay, target) > 0.0):
            routes.append((source, relay, target))
    return tuple(routes)


def _link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _route_legs(route: Sequence[str]) -> List[Tuple[str, str]]:
    return [(route[i], route[i + 1]) for i in range(len(route) - 1)]


def isolation_route(model: DeploymentModel, source: str, target: str,
                    kb: float) -> Optional[Tuple[str, ...]]:
    """The route a single transfer would pick with the network to itself
    (shortest predicted time; ties break on route length then lexically)."""
    best: Optional[Tuple[str, ...]] = None
    best_time = float("inf")
    for route in candidate_routes(model, source, target):
        total = sum(_leg_time(model, a, b, kb)
                    for a, b in _route_legs(route))
        if (total < best_time - _GAIN_EPS
                or (abs(total - best_time) <= _GAIN_EPS
                    and best is not None
                    and (len(route), route) < (len(best), best))):
            best = route
            best_time = total
    return best


# ---------------------------------------------------------------------------
# Wave packing: route assignment under shared link loads
# ---------------------------------------------------------------------------

def _wave_eta(model: DeploymentModel,
              pendings: Sequence[_Pending],
              routes: Sequence[Tuple[str, ...]],
              ) -> Tuple[float, List[float]]:
    """Predicted wave duration and per-move etas for a route assignment.

    Every link carries the summed volume of all wave moves routed over
    it; a move finishes when its slowest-loaded leg drains, and the wave
    when its slowest move does.
    """
    loads: Dict[Tuple[str, str], float] = {}
    for pending, route in zip(pendings, routes, strict=True):
        kb = pending[3]
        for a, b in _route_legs(route):
            key = _link_key(a, b)
            loads[key] = loads.get(key, 0.0) + kb
    etas: List[float] = []
    for route in routes:
        eta = 0.0
        for a, b in _route_legs(route):
            eta += _leg_time(model, a, b, loads[_link_key(a, b)])
        etas.append(eta)
    return (max(etas) if etas else 0.0), etas


def pack_wave(model: DeploymentModel, pendings: Sequence[_Pending],
              refine_passes: int = 4,
              ) -> Tuple[List[Tuple[str, ...]], float, List[float]]:
    """Assign a route to every wave move, minimizing the wave's eta.

    Greedy first (largest transfer onto the route that finishes it
    soonest given loads committed so far), then steepest-descent
    refinement re-routing one move at a time while the wave eta keeps
    dropping.
    """
    order = sorted(range(len(pendings)),
                   key=lambda i: (-pendings[i][3], pendings[i][0]))
    choices: List[Tuple[Tuple[str, ...], ...]] = []
    for pending in pendings:
        component, source, target = pending[0], pending[1], pending[2]
        routes = candidate_routes(model, source, target)
        if not routes:
            raise ScheduleError(
                f"no route with positive bandwidth for {component!r} "
                f"({source} -> {target})")
        choices.append(routes)

    assigned: List[Optional[Tuple[str, ...]]] = [None] * len(pendings)
    loads: Dict[Tuple[str, str], float] = {}
    for i in order:
        kb = pendings[i][3]
        best_route: Optional[Tuple[str, ...]] = None
        best_finish = float("inf")
        for route in choices[i]:
            finish = 0.0
            for a, b in _route_legs(route):
                key = _link_key(a, b)
                finish += _leg_time(model, a, b, loads.get(key, 0.0) + kb)
            if (finish < best_finish - _GAIN_EPS
                    or (abs(finish - best_finish) <= _GAIN_EPS
                        and best_route is not None
                        and (len(route), route)
                        < (len(best_route), best_route))):
                best_route = route
                best_finish = finish
        assert best_route is not None  # choices[i] is non-empty
        assigned[i] = best_route
        for a, b in _route_legs(best_route):
            key = _link_key(a, b)
            loads[key] = loads.get(key, 0.0) + kb

    routes = [route for route in assigned if route is not None]
    eta, etas = _wave_eta(model, pendings, routes)
    for __ in range(refine_passes):
        improved = False
        for i in range(len(pendings)):
            for alternative in choices[i]:
                if alternative == routes[i]:
                    continue
                trial = list(routes)
                trial[i] = alternative
                trial_eta, trial_etas = _wave_eta(model, pendings, trial)
                if trial_eta < eta - _GAIN_EPS:
                    routes, eta, etas = trial, trial_eta, trial_etas
                    improved = True
        if not improved:
            break
    return routes, eta, etas


def predict_wave_eta(model: DeploymentModel,
                     moves: Sequence[ScheduledMove],
                     ) -> Tuple[float, List[float]]:
    """Recompute a wave's contention-aware prediction from its recorded
    routes and volumes.

    This is the reference oracle behind lint rule ``PL002``: a schedule
    whose recorded etas undercut this recomputation was packed against a
    different (cheaper) model and oversubscribes some link.
    """
    pendings: List[_Pending] = [
        (move.component, move.source, move.target, move.kb, move.staged)
        for move in moves]
    routes = [move.route for move in moves]
    return _wave_eta(model, pendings, routes)


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------

class MigrationPlanner:
    """Builds constraint-safe, bandwidth-packed migration schedules.

    Args:
        model: The deployment model supplying sizes, links, and (by
            default) the starting deployment.
        constraints: Hard constraints every barrier state must satisfy;
            defaults to the constraints stored on the model.  When the
            *starting* deployment already violates them (mid-fault), the
            bar is "no worse than the start" instead.
        max_wave_moves: Cap on concurrent transfers per wave; ``None``
            lets a wave take every admissible move.  Smaller waves give
            finer rollback barriers at the price of a longer predicted
            makespan.
        max_stagings: Total buffer-host hops the planner may introduce
            before declaring the delta unschedulable.
        refine: Run the cross-wave makespan refinement pass.
        obs: Observability bundle for ``plan.*`` metrics and spans.
    """

    def __init__(self, model: DeploymentModel,
                 constraints: Optional[ConstraintSet] = None,
                 max_wave_moves: Optional[int] = 8,
                 max_stagings: Optional[int] = None,
                 refine: bool = True,
                 obs: Optional[Observability] = None):
        self.model = model
        self.constraints = (constraints if constraints is not None
                            else ConstraintSet(model.constraints))
        self.max_wave_moves = max_wave_moves
        self.max_stagings = max_stagings
        self.refine = refine
        self.obs = obs if obs is not None else get_observability()
        self._c_schedules = self.obs.counter("plan.schedules")
        self._c_waves = self.obs.counter("plan.waves")
        self._c_staged = self.obs.counter("plan.staged_moves")
        self._c_unreachable = self.obs.counter("plan.unreachable_moves")
        self._h_makespan = self.obs.histogram("plan.makespan")

    # ------------------------------------------------------------------
    def schedule(self, target: Mapping[str, str],
                 current: Optional[Mapping[str, str]] = None,
                 ) -> MigrationSchedule:
        """Plan the migration from *current* (default: the model's
        deployment) to *target*.

        Raises :class:`~repro.core.errors.ScheduleError` when no wave
        ordering — even through buffer-host staging — keeps every
        barrier state inside the constraint set.
        """
        current_map = (self.model.deployment.as_dict() if current is None
                       else dict(current))
        target_map = dict(target)
        with self.obs.span("plan.build",
                           components=len(current_map)) as span:
            schedule = self._schedule(current_map, target_map)
            span.set(waves=len(schedule.waves),
                     moves=schedule.move_count,
                     makespan=schedule.makespan,
                     staged=len(schedule.staged_components),
                     unreachable=len(schedule.unreachable))
        self._c_schedules.inc()
        self._c_waves.inc(len(schedule.waves))
        self._c_staged.inc(len(schedule.staged_components))
        self._c_unreachable.inc(len(schedule.unreachable))
        self._h_makespan.observe(schedule.makespan)
        return schedule

    def _schedule(self, current_map: Dict[str, str],
                  target_map: Dict[str, str]) -> MigrationSchedule:
        model = self.model
        moves = Deployment(current_map).diff(Deployment(target_map))

        pending: List[_Pending] = []
        unreachable: List[str] = []
        for move in moves:  # already sorted by component id
            if not candidate_routes(model, move.source, move.target):
                unreachable.append(move.component)
                continue
            pending.append((move.component, move.source, move.target,
                            _component_kb(model, move.component), False))

        checker = make_checker(model, self.constraints)
        checker.reset(current_map)
        baseline = checker.violation_count()

        staging_budget = (2 * max(len(pending), 1)
                          if self.max_stagings is None
                          else self.max_stagings)
        staged: List[str] = []
        wave_sets: List[List[_Pending]] = []
        while pending:
            admitted = self._admit_wave(checker, baseline, pending)
            if not admitted:
                staged_move = self._stage(checker, baseline, pending)
                if staged_move is None or staging_budget <= 0:
                    blocked = ", ".join(sorted(p[0] for p in pending))
                    raise ScheduleError(
                        "no constraint-safe wave ordering exists for "
                        f"pending moves ({blocked}); staging exhausted")
                staging_budget -= 1
                staged.append(staged_move[0])
                admitted = [staged_move]
            wave_sets.append(admitted)

        if self.refine and len(wave_sets) > 1:
            wave_sets = self._refine_waves(checker, baseline, current_map,
                                           wave_sets)

        waves: List[Wave] = []
        total_kb = 0.0
        makespan = 0.0
        for index, members in enumerate(wave_sets):
            routes, eta, etas = pack_wave(model, members)
            scheduled = tuple(
                ScheduledMove(component=p[0], source=p[1], target=p[2],
                              kb=p[3], route=routes[i], eta=etas[i],
                              staged=p[4])
                for i, p in enumerate(members))
            waves.append(Wave(index=index, moves=scheduled, eta=eta))
            total_kb += sum(p[3] for p in members)
            makespan += eta
        return MigrationSchedule(
            current=current_map, target=target_map, waves=tuple(waves),
            unreachable=tuple(sorted(unreachable)),
            makespan=makespan, total_kb=total_kb,
            staged_components=tuple(sorted(set(staged))),
            detail={"baseline_violations": baseline})

    # ------------------------------------------------------------------
    # Wave admission: singles, then simultaneous groups
    # ------------------------------------------------------------------
    def _admit_wave(self, checker, baseline: int,
                    pending: List[_Pending]) -> List[_Pending]:
        """Pull the next wave's moves out of *pending*, leaving the
        checker bound to the wave's barrier state."""
        cap = (len(pending) if self.max_wave_moves is None
               else self.max_wave_moves)
        admitted: List[_Pending] = []
        for move in list(pending):
            if len(admitted) >= cap:
                break
            token = _place(checker, move[0], move[2])
            if checker.violation_count() <= baseline:
                admitted.append(move)
                pending.remove(move)
            else:
                checker.undo(token)
        if admitted:
            return admitted
        # No single move can go first: look for a pair that must land
        # together (a swap between full hosts, a collocated group).
        for i in range(len(pending)):
            for j in range(i + 1, len(pending)):
                first, second = pending[i], pending[j]
                token_a = _place(checker, first[0], first[2])
                token_b = _place(checker, second[0], second[2])
                if checker.violation_count() <= baseline:
                    pending.remove(first)
                    pending.remove(second)
                    return [first, second]
                checker.undo(token_b)
                checker.undo(token_a)
        return []

    def _stage(self, checker, baseline: int,
               pending: List[_Pending]) -> Optional[_Pending]:
        """Park one blocked component on a buffer host, rewriting its
        pending move to resume from there.  Returns the staging hop (the
        checker is left at its barrier state), or None."""
        model = self.model
        for index, move in enumerate(pending):
            component, source, target = move[0], move[1], move[2]
            for buffer_host in model.host_ids:
                if buffer_host in (source, target):
                    continue
                if not candidate_routes(model, source, buffer_host):
                    continue
                if not candidate_routes(model, buffer_host, target):
                    continue
                token = _place(checker, component, buffer_host)
                if checker.violation_count() <= baseline:
                    hop: _Pending = (component, source, buffer_host,
                                     move[3], True)
                    pending[index] = (component, buffer_host, target,
                                      move[3], move[4])
                    return hop
                checker.undo(token)
        return None

    # ------------------------------------------------------------------
    # Cross-wave refinement
    # ------------------------------------------------------------------
    def _feasible(self, checker, baseline: int,
                  current_map: Mapping[str, str],
                  wave_sets: Sequence[Sequence[_Pending]]) -> bool:
        """Replay *wave_sets* from *current_map*: every barrier state
        must stay within the baseline violation count, and a staged
        component's hops must run in journey order."""
        position = dict(current_map)
        checker.reset(position)
        for members in wave_sets:
            for component, source, __t, __kb, __staged in members:
                if position.get(component) != source:
                    return False
            for component, __s, target, __kb, __staged in members:
                _place(checker, component, target)
                position[component] = target
            if checker.violation_count() > baseline:
                return False
        return True

    def _makespan_of(self, wave_sets: Sequence[Sequence[_Pending]],
                     ) -> float:
        total = 0.0
        for members in wave_sets:
            __, eta, __etas = pack_wave(self.model, members)
            total += eta
        return total

    def _refine_waves(self, checker, baseline: int,
                      current_map: Mapping[str, str],
                      wave_sets: List[List[_Pending]],
                      ) -> List[List[_Pending]]:
        """Steepest-descent pass moving single transfers between waves
        while every barrier state stays feasible and the summed makespan
        drops."""
        cap = self.max_wave_moves
        best = [list(members) for members in wave_sets]
        best_makespan = self._makespan_of(best)

        def improvement() -> Optional[Tuple[List[List[_Pending]], float]]:
            for src in range(len(best)):
                for move in list(best[src]):
                    for dst in range(len(best)):
                        if dst == src:
                            continue
                        if cap is not None and len(best[dst]) >= cap:
                            continue
                        trial = [list(members) for members in best]
                        trial[src].remove(move)
                        trial[dst].append(move)
                        trial = [members for members in trial if members]
                        if not self._feasible(checker, baseline,
                                              current_map, trial):
                            continue
                        trial_makespan = self._makespan_of(trial)
                        if trial_makespan < best_makespan - _GAIN_EPS:
                            return trial, trial_makespan
            return None

        while True:
            step = improvement()
            if step is None:
                break
            best, best_makespan = step
        # Leave the checker bound to the final state for reuse.
        self._feasible(checker, baseline, current_map, best)
        return best


def build_schedule(model: DeploymentModel, target: Mapping[str, str],
                   current: Optional[Mapping[str, str]] = None,
                   constraints: Optional[ConstraintSet] = None,
                   **options) -> MigrationSchedule:
    """One-shot convenience wrapper around :class:`MigrationPlanner`."""
    planner = MigrationPlanner(model, constraints=constraints, **options)
    return planner.schedule(target, current=current)


def naive_schedule(model: DeploymentModel, target: Mapping[str, str],
                   current: Optional[Mapping[str, str]] = None,
                   ) -> MigrationSchedule:
    """The all-at-once schedule: every move in a single wave, each on the
    route it would pick in isolation, with the wave's duration honestly
    accounting for the resulting link contention.

    This is the schedule of a planner-less
    :func:`~repro.core.effector.plan_redeployment` — what actually
    happens when the whole delta is shipped in one shot over the obvious
    paths.  Moves with no route are left out of the wave and listed in
    ``unreachable``.
    """
    current_map = (model.deployment.as_dict() if current is None
                   else dict(current))
    target_map = dict(target)
    moves = Deployment(current_map).diff(Deployment(target_map))
    pendings: List[_Pending] = []
    routes: List[Tuple[str, ...]] = []
    unreachable: List[str] = []
    for move in moves:
        kb = _component_kb(model, move.component)
        route = isolation_route(model, move.source, move.target, kb)
        if route is None:
            unreachable.append(move.component)
            continue
        pendings.append((move.component, move.source, move.target, kb,
                         False))
        routes.append(route)
    eta, etas = _wave_eta(model, pendings, routes)
    scheduled = tuple(
        ScheduledMove(component=p[0], source=p[1], target=p[2], kb=p[3],
                      route=routes[i], eta=etas[i])
        for i, p in enumerate(pendings))
    waves = (Wave(index=0, moves=scheduled, eta=eta),) if scheduled else ()
    return MigrationSchedule(
        current=current_map, target=target_map, waves=waves,
        unreachable=tuple(sorted(unreachable)),
        makespan=eta if scheduled else 0.0,
        total_kb=sum(p[3] for p in pendings),
        detail={"strategy": "naive-all-at-once"})
