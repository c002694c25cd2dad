"""Command-line interface: ``python -m repro <command>``.

Headless DeSi for the terminal — generate hypothetical architectures,
inspect them, run the algorithm suite, simulate the closed improvement
loop, and sweep experiment grids, all without writing code.

Commands:

* ``generate`` — create a random-but-feasible architecture as xADL;
* ``inspect``  — print an xADL architecture's tables / graph / DOT;
* ``improve``  — run redeployment algorithms against an xADL architecture;
* ``simulate`` — run the closed centralized or decentralized loop on a
  built-in scenario and print the availability trajectory;
* ``sweep``    — batch-compare algorithms over generated families;
* ``lint``     — statically verify models/xADL documents (or, with
  ``--code``, this repository's middleware conventions) before anything
  searches or enacts them;
* ``faults``   — fault-injection campaigns and resilience reports;
* ``plan``     — build, render, verify, and diff constraint-safe wave
  migration schedules (``repro.plan``);
* ``obs``      — record, render, and diff observability captures
  (metrics + span trees) of instrumented runs.

Every verb that produces a :class:`repro.core.report.Report` accepts the
shared ``--json`` (canonical ``Report.to_json``) and ``--quiet``
(``Report.summary_line``) output flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.algorithms import (
    AvalaAlgorithm, DecApAlgorithm, ExactAlgorithm, GeneticAlgorithm,
    HillClimbingAlgorithm, SimulatedAnnealingAlgorithm, StochasticAlgorithm,
    SwapSearchAlgorithm,
)
from repro.core import (
    AvailabilityObjective, CommunicationCostObjective, ConstraintSet,
    DurabilityObjective, LatencyObjective, MemoryConstraint,
    SecurityObjective, ThroughputObjective,
)
from repro.core.errors import FaultPlanError, ReproError, ScheduleError
from repro.core.framework import CentralizedFramework
from repro.core.objectives import Objective
from repro.decentralized import DecentralizedFramework
from repro.faults import (
    CAMPAIGNS, SCENARIOS as FAULT_SCENARIOS, generate_campaign, load_plan,
    run_campaign, save_plan,
)
from repro.desi import (
    DeSiModel, ExperimentRunner, Generator, GeneratorConfig, GraphView,
    TableView, xadl,
)
from repro.lint import (
    LintReport, Severity, analyze_paths, apply_baseline,
    code_rule_registry, load_baseline, render_sarif, verify_fault_plan,
    verify_model, verify_schedule, verify_xadl_file, write_baseline,
)
from repro.plan import build_schedule, naive_schedule, schedule_from_json
from repro.middleware import DistributedSystem
from repro.obs import Observability
from repro.obs.capture import Capture
from repro.scenarios import (
    CrisisConfig, build_client_server, build_crisis_scenario,
    build_sensor_field,
)
from repro.sim import InteractionWorkload, SimClock, StepChange

OBJECTIVES: Dict[str, type] = {
    "availability": AvailabilityObjective,
    "latency": LatencyObjective,
    "communication": CommunicationCostObjective,
    "security": SecurityObjective,
    "throughput": ThroughputObjective,
    "durability": DurabilityObjective,
}

ALGORITHM_BUILDERS = {
    "exact": lambda o, c, seed: ExactAlgorithm(o, c, seed=seed),
    "avala": lambda o, c, seed: AvalaAlgorithm(o, c, seed=seed),
    "stochastic": lambda o, c, seed: StochasticAlgorithm(
        o, c, seed=seed, iterations=100),
    "hillclimb": lambda o, c, seed: HillClimbingAlgorithm(o, c, seed=seed),
    "annealing": lambda o, c, seed: SimulatedAnnealingAlgorithm(
        o, c, seed=seed),
    "genetic": lambda o, c, seed: GeneticAlgorithm(o, c, seed=seed),
    "decap": lambda o, c, seed: DecApAlgorithm(o, c, seed=seed),
    "swapsearch": lambda o, c, seed: SwapSearchAlgorithm(o, c, seed=seed),
}


def _objective(name: str) -> Objective:
    return OBJECTIVES[name]()


def add_output_flags(parser: argparse.ArgumentParser) -> None:
    """The shared Report output flags every reporting verb carries."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="machine-readable output (Report.to_json)")
    group.add_argument("--quiet", action="store_true",
                       help="one-line summary only (Report.summary_line)")


def emit(report, args: argparse.Namespace, **opts) -> None:
    """Print *report* through the Report protocol, honouring the shared
    ``--json``/``--quiet`` flags."""
    if getattr(args, "json", False):
        print(report.to_json(**opts))
    elif getattr(args, "quiet", False):
        print(report.summary_line())
    else:
        print(report.render(**opts))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        hosts=args.hosts, components=args.components,
        physical_density=args.density,
        reliability=(args.min_reliability, args.max_reliability),
        memory_headroom=args.headroom)
    model = Generator(config, seed=args.seed).generate(args.name)
    document = xadl.to_xml(model)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {model.stats()} to {args.output}")
    else:
        print(document)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    model = xadl.load(args.file)
    desi = DeSiModel(model)
    if args.dot:
        print(GraphView(desi).render_dot())
    elif args.graph:
        print(GraphView(desi).render_text())
    else:
        print(TableView(desi).render())
        objective = _objective(args.objective)
        if model.is_fully_deployed():
            value = objective.evaluate(model, model.deployment)
            print(f"{objective.name} of current deployment: {value:.4f}")
    return 0


def cmd_improve(args: argparse.Namespace) -> int:
    model = xadl.load(args.file)
    objective = _objective(args.objective)
    constraints = ConstraintSet([MemoryConstraint()])
    for constraint in model.constraints:
        constraints.add(constraint)
    initial = objective.evaluate(model, model.deployment)
    quiet, as_json = args.quiet, args.json
    if not (quiet or as_json):
        print(f"initial {objective.name}: {initial:.4f}")
    best = None
    results = []
    for name in args.algorithms:
        algorithm = ALGORITHM_BUILDERS[name](objective, constraints,
                                             args.seed)
        result = algorithm.run(model)
        results.append(result)
        if not (quiet or as_json):
            print(f"  {result.summary_line()}")
        if result.valid and (best is None
                             or objective.is_better(result.value,
                                                    best.value)):
            best = result
    if as_json:
        payload = [r.to_dict() for r in results]
        import json as _json
        print(_json.dumps(payload, indent=2, sort_keys=True))
    if best is None:
        print("no algorithm produced a valid deployment", file=sys.stderr)
        return 1
    if quiet:
        print(best.summary_line())
    if args.apply:
        model.set_deployment(best.deployment)
        output = args.output or args.file
        xadl.save(model, output)
        print(f"applied {best.algorithm}'s deployment -> {output}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    objective = AvailabilityObjective()
    if args.scenario == "crisis":
        scenario = build_crisis_scenario(CrisisConfig(seed=args.seed))
        model = scenario.model
        clock = SimClock()
        system = DistributedSystem(model, clock, master_host=scenario.hq,
                                   seed=args.seed)
        framework = CentralizedFramework(
            system, objective, scenario.constraints,
            user_input=scenario.user_input, monitor_interval=2.0,
            seed=args.seed)
        framework.start(cycles_per_analysis=2)
        if args.degrade_at is not None:
            StepChange(system.network, scenario.hq, scenario.commanders[0],
                       at=args.degrade_at, attribute="reliability",
                       value=0.3).start()
        decentralized = None
    else:
        scenario = build_sensor_field(seed=args.seed)
        model = scenario.model
        clock = SimClock()
        system = DistributedSystem(model, clock, decentralized=True,
                                   seed=args.seed)
        system.install_monitoring(ping_interval=0.5, pings_per_round=5)
        decentralized = DecentralizedFramework(
            system, objective, bid_timeout=0.3, availability_goal=0.99)
        framework = None

    workload = InteractionWorkload(model, clock, system.emit,
                                   seed=args.seed + 1).start()
    steps = max(1, int(args.duration / 10))
    print(f"t=0      availability "
          f"{objective.evaluate(model, system.actual_deployment()):.4f}")
    for step in range(steps):
        if decentralized is not None:
            decentralized.improvement_round()
        clock.run((step + 1) * 10.0 - clock.now)
        system.network.apply_to_model(model)
        value = objective.evaluate(model, system.actual_deployment())
        print(f"t={clock.now:<7.1f}availability {value:.4f}")
    workload.stop()
    if framework is not None:
        framework.stop()
        for cycle in framework.cycles:
            print(f"  {cycle.summary_line()}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    objective = _objective(args.objective)
    constraints = ConstraintSet([MemoryConstraint()])
    algorithms = {
        name: (lambda n=name: ALGORITHM_BUILDERS[n](objective, constraints,
                                                    args.seed))
        for name in args.algorithms
    }
    families = {}
    for spec in args.family:
        try:
            label, hosts, components = spec.split(":")
            families[label] = GeneratorConfig(
                hosts=int(hosts), components=int(components),
                host_memory=(20.0, 50.0), memory_headroom=1.2)
        except ValueError:
            print(f"bad family spec {spec!r}; use label:hosts:components",
                  file=sys.stderr)
            return 2
    runner = ExperimentRunner(objective, algorithms,
                              replicates=args.replicates, seed=args.seed)
    report = runner.run(families)
    emit(report, args)
    if not (args.json or args.quiet):
        for family in families:
            best = report.best_algorithm(
                family, direction=objective.direction)
            print(f"best for {family}: {best}")
    return 0


def _load_or_generate_plan(args: argparse.Namespace):
    if args.plan:
        return load_plan(args.plan)
    model = FAULT_SCENARIOS[args.scenario](args.seed).model
    return generate_campaign(args.campaign, model,
                             duration=args.duration or 60.0, seed=args.seed)


def cmd_faults_run(args: argparse.Namespace) -> int:
    obs = Observability() if args.capture else None
    try:
        plan = _load_or_generate_plan(args)
        report = run_campaign(plan, seed=args.seed, scenario=args.scenario,
                              duration=args.duration,
                              improve=not args.no_improve, obs=obs)
    except FaultPlanError as exc:
        print(f"fault plan rejected: {exc}", file=sys.stderr)
        return 2
    if obs is not None:
        capture = obs.capture(label=f"faults {plan.name} seed={args.seed}")
        capture.save(args.capture)
        print(f"wrote observability capture to {args.capture}",
              file=sys.stderr)
    if args.output:
        document = report.render(include_timing=args.timing)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        print(report.summary_line())
        print(f"wrote resilience report to {args.output}")
    else:
        emit(report, args, include_timing=args.timing)
    return 0


def cmd_faults_generate(args: argparse.Namespace) -> int:
    try:
        model = FAULT_SCENARIOS[args.scenario](args.seed).model
        plan = generate_campaign(args.campaign, model,
                                 duration=args.duration or 60.0,
                                 seed=args.seed)
        plan.validate(model)
    except FaultPlanError as exc:
        print(f"campaign generation failed: {exc}", file=sys.stderr)
        return 2
    if args.output:
        save_plan(plan, args.output)
        print(f"wrote plan {plan.name!r} ({len(plan)} actions) "
              f"to {args.output}")
    else:
        print(plan.to_xml() if args.xml else plan.to_json())
    return 0


def cmd_faults_lint(args: argparse.Namespace) -> int:
    try:
        plan = load_plan(args.plan)
    except FaultPlanError as exc:
        print(f"fault plan rejected: {exc}", file=sys.stderr)
        return 2
    model = (FAULT_SCENARIOS[args.scenario](args.seed).model
             if args.scenario else None)
    report = verify_fault_plan(plan, model=model)
    emit(report, args, title=f"fault plan {plan.name}")
    return report.exit_code(Severity.parse(args.fail_on))


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiling import profile_campaign
    try:
        report = profile_campaign(
            campaign=args.campaign, scenario=args.scenario, seed=args.seed,
            duration=args.duration, improve=not args.no_improve,
            top=args.top, sort=args.sort)
    except FaultPlanError as exc:
        print(f"campaign generation failed: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(report.summary_line())
        print(f"wrote profile to {args.output}")
    else:
        emit(report, args)
    return 0


def _load_schedule(path: str):
    with open(path, encoding="utf-8") as handle:
        return schedule_from_json(handle.read())


def cmd_plan_build(args: argparse.Namespace) -> int:
    model = xadl.load(args.file)
    objective = _objective(args.objective)
    constraints = ConstraintSet([MemoryConstraint()])
    for constraint in model.constraints:
        constraints.add(constraint)
    algorithm = ALGORITHM_BUILDERS[args.algorithm](objective, constraints,
                                                   args.seed)
    result = algorithm.run(model)
    if not result.valid:
        print(f"{args.algorithm} produced no valid deployment",
              file=sys.stderr)
        return 1
    try:
        if args.naive:
            schedule = naive_schedule(model, result.deployment)
        else:
            schedule = build_schedule(model, result.deployment,
                                      constraints=constraints,
                                      max_wave_moves=args.max_wave_moves)
    except ScheduleError as exc:
        print(f"scheduling failed: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(schedule.to_json() + "\n")
        print(schedule.summary_line())
        print(f"wrote schedule to {args.output}")
    else:
        emit(schedule, args)
    return 0


def cmd_plan_show(args: argparse.Namespace) -> int:
    try:
        schedule = _load_schedule(args.schedule)
    except (OSError, ScheduleError) as exc:
        print(f"cannot read schedule: {exc}", file=sys.stderr)
        return 2
    emit(schedule, args)
    return 0


def cmd_plan_lint(args: argparse.Namespace) -> int:
    try:
        schedule = _load_schedule(args.schedule)
    except (OSError, ScheduleError) as exc:
        print(f"cannot read schedule: {exc}", file=sys.stderr)
        return 2
    model = xadl.load(args.model)
    report = verify_schedule(model, schedule)
    emit(report, args, title=f"schedule {args.schedule}")
    return report.exit_code(Severity.parse(args.fail_on))


def cmd_plan_diff(args: argparse.Namespace) -> int:
    try:
        old = _load_schedule(args.old)
        new = _load_schedule(args.new)
    except (OSError, ScheduleError) as exc:
        print(f"cannot read schedule: {exc}", file=sys.stderr)
        return 2
    print(old.diff(new))
    return 0


SCENARIO_BUILDERS = {
    "crisis": lambda: build_crisis_scenario(),
    "sensorfield": lambda: build_sensor_field(),
    "clientserver": lambda: build_client_server(),
}


def cmd_obs_record(args: argparse.Namespace) -> int:
    """Run the instrumented crisis improvement loop and save a capture."""
    obs = Observability()
    objective = AvailabilityObjective()
    scenario = build_crisis_scenario(CrisisConfig(seed=args.seed))
    model = scenario.model
    clock = SimClock()
    obs.bind_clock(clock)
    system = DistributedSystem(model, clock, master_host=scenario.hq,
                               seed=args.seed, obs=obs)
    framework = CentralizedFramework(
        system, objective, scenario.constraints,
        user_input=scenario.user_input, monitor_interval=2.0,
        seed=args.seed, obs=obs)
    framework.start(cycles_per_analysis=2)
    if args.degrade_at is not None:
        StepChange(system.network, scenario.hq, scenario.commanders[0],
                   at=args.degrade_at, attribute="reliability",
                   value=0.3).start()
    workload = InteractionWorkload(model, clock, system.emit,
                                   seed=args.seed + 1).start()
    clock.run(args.duration)
    workload.stop()
    framework.stop()
    capture = obs.capture(label=f"crisis seed={args.seed} "
                                f"t={args.duration:g}")
    capture.save(args.output)
    print(f"recorded {len(capture.spans)} root spans and "
          f"{len(capture.metrics)} instruments over "
          f"{len(capture.subsystems())} subsystems "
          f"({', '.join(capture.subsystems())}) -> {args.output}")
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    try:
        capture = Capture.load(args.capture)
    except (OSError, ReproError) as exc:
        print(f"cannot read capture: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(capture.dumps(), end="")
    else:
        print(capture.render(show_spans=not args.metrics_only,
                             show_metrics=not args.spans_only))
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    try:
        old = Capture.load(args.old)
        new = Capture.load(args.new)
    except (OSError, ReproError) as exc:
        print(f"cannot read capture: {exc}", file=sys.stderr)
        return 2
    print(old.diff(new))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    fail_on = Severity.parse(args.fail_on)
    reports: List[tuple] = []  # (title, LintReport)
    if args.code:
        paths = args.targets or ["src/repro"]
        try:
            reports.append((", ".join(paths), analyze_paths(paths)))
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        targets = args.targets or sorted(SCENARIO_BUILDERS)
        for target in targets:
            if target in SCENARIO_BUILDERS:
                scenario = SCENARIO_BUILDERS[target]()
                reports.append((f"scenario {target}", verify_model(
                    scenario.model, constraints=scenario.constraints)))
            elif os.path.exists(target):
                reports.append((target, verify_xadl_file(target)))
            else:
                print(f"unknown lint target {target!r}: not a scenario "
                      f"({', '.join(sorted(SCENARIO_BUILDERS))}) or a file",
                      file=sys.stderr)
                return 2

    if args.baseline:
        try:
            accepted = load_baseline(args.baseline)
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        reports = [(title, apply_baseline(report, accepted).sorted())
                   for title, report in reports]

    if args.write_baseline:
        merged = LintReport()
        for _, report in reports:
            merged.merge(report)
        count = write_baseline(merged.sorted(), args.write_baseline)
        print(f"recorded {count} fingerprint(s) in {args.write_baseline}",
              file=sys.stderr)
        return 0

    if args.sarif:
        merged = LintReport()
        for _, report in reports:
            merged.merge(report)
        registry = code_rule_registry() if args.code else None
        text = render_sarif(merged.sorted(), registry=registry)
    else:
        chunks = []
        for title, report in reports:
            if args.json:
                chunks.append(report.to_json(title=title))
            elif args.quiet:
                chunks.append(report.summary_line())
            else:
                chunks.append(report.render(title=title))
        text = "\n".join(chunks)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    else:
        print(text)

    exit_code = 0
    for _, report in reports:
        exit_code = max(exit_code, report.exit_code(fail_on))
    if exit_code and args.force:
        print("findings at or above the failure threshold ignored (--force)",
              file=sys.stderr)
        return 0
    return exit_code


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deployment improvement framework (DSN 2004 "
                    "reproduction) command line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an architecture as xADL")
    p.add_argument("--hosts", type=int, default=4)
    p.add_argument("--components", type=int, default=10)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--min-reliability", type=float, default=0.3)
    p.add_argument("--max-reliability", type=float, default=1.0)
    p.add_argument("--headroom", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="generated")
    p.add_argument("-o", "--output", help="xADL output path (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("inspect", help="show an xADL architecture")
    p.add_argument("file")
    p.add_argument("--graph", action="store_true",
                   help="text graph view instead of tables")
    p.add_argument("--dot", action="store_true", help="Graphviz DOT output")
    p.add_argument("--objective", choices=sorted(OBJECTIVES),
                   default="availability")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("improve", help="run algorithms on an architecture")
    p.add_argument("file")
    p.add_argument("-a", "--algorithms", nargs="+",
                   choices=sorted(ALGORITHM_BUILDERS),
                   default=["avala", "stochastic"])
    p.add_argument("--objective", choices=sorted(OBJECTIVES),
                   default="availability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--apply", action="store_true",
                   help="write the best deployment back to the file")
    p.add_argument("-o", "--output",
                   help="write the improved xADL here instead of in place")
    add_output_flags(p)
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("simulate", help="run a closed-loop scenario")
    p.add_argument("--scenario", choices=["crisis", "sensorfield"],
                   default="crisis")
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--degrade-at", type=float, default=30.0,
                   help="time of the mid-run link degradation (crisis)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="batch-compare algorithms")
    p.add_argument("--family", nargs="+", required=True,
                   metavar="LABEL:HOSTS:COMPONENTS")
    p.add_argument("-a", "--algorithms", nargs="+",
                   choices=sorted(ALGORITHM_BUILDERS),
                   default=["avala", "stochastic", "hillclimb"])
    p.add_argument("--objective", choices=sorted(OBJECTIVES),
                   default="availability")
    p.add_argument("--replicates", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "profile",
        help="profile a fault campaign under cProfile (simulation-core "
             "hot-path triage)")
    p.add_argument("--campaign", choices=sorted(CAMPAIGNS),
                   default="random-churn")
    p.add_argument("--scenario", choices=sorted(FAULT_SCENARIOS),
                   default="crisis")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=20.0,
                   help="simulated seconds to run (default 20)")
    p.add_argument("--no-improve", action="store_true",
                   help="endure only: no monitoring/analysis/redeployment")
    p.add_argument("--top", type=int, default=20,
                   help="number of functions to report (default 20)")
    p.add_argument("--sort", choices=["cumulative", "tottime"],
                   default="cumulative")
    p.add_argument("-o", "--output", help="write the profile JSON here")
    add_output_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "faults", help="fault-injection campaigns and resilience reports")
    fsub = p.add_subparsers(dest="faults_command", required=True)

    f = fsub.add_parser("run", help="run a campaign and score resilience")
    f.add_argument("--plan", help="JSON/XML fault plan file; omit to "
                                  "generate --campaign on the fly")
    f.add_argument("--campaign", choices=sorted(CAMPAIGNS),
                   default="random-churn",
                   help="generator used when no --plan is given")
    f.add_argument("--scenario", choices=sorted(FAULT_SCENARIOS),
                   default="crisis")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--duration", type=float, default=None,
                   help="simulated seconds (default: the plan's duration)")
    f.add_argument("--no-improve", action="store_true",
                   help="endure only: no monitoring/analysis/redeployment")
    f.add_argument("--timing", action="store_true",
                   help="include wall-clock timing in the JSON "
                        "(breaks byte-for-byte reproducibility)")
    f.add_argument("-o", "--output",
                   help="write the ResilienceReport JSON here")
    f.add_argument("--capture",
                   help="record an observability capture (metrics + spans) "
                        "of the campaign to this JSON-lines file")
    add_output_flags(f)
    f.set_defaults(func=cmd_faults_run)

    f = fsub.add_parser("generate", help="emit a campaign as a plan file")
    f.add_argument("--campaign", choices=sorted(CAMPAIGNS),
                   default="random-churn")
    f.add_argument("--scenario", choices=sorted(FAULT_SCENARIOS),
                   default="crisis")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--duration", type=float, default=60.0)
    f.add_argument("--xml", action="store_true",
                   help="print xADL-adjacent XML instead of JSON")
    f.add_argument("-o", "--output",
                   help="plan output path (.json or .xml)")
    f.set_defaults(func=cmd_faults_generate)

    f = fsub.add_parser("lint", help="statically verify a fault plan")
    f.add_argument("plan", help="JSON/XML fault plan file")
    f.add_argument("--scenario", choices=sorted(FAULT_SCENARIOS),
                   help="also check host/link references against this "
                        "scenario's model")
    f.add_argument("--seed", type=int, default=0)
    add_output_flags(f)
    f.add_argument("--fail-on", choices=["error", "warning", "info"],
                   default="error")
    f.set_defaults(func=cmd_faults_lint)

    p = sub.add_parser(
        "plan", help="build, verify, and diff wave migration schedules")
    psub = p.add_subparsers(dest="plan_command", required=True)

    w = psub.add_parser(
        "build", help="plan a constraint-safe wave schedule")
    w.add_argument("file", help="xADL architecture file")
    w.add_argument("--algorithm", choices=sorted(ALGORITHM_BUILDERS),
                   default="avala",
                   help="algorithm that proposes the target deployment")
    w.add_argument("--objective", choices=sorted(OBJECTIVES),
                   default="availability")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--max-wave-moves", type=int, default=8,
                   help="rollback-barrier granularity (moves per wave)")
    w.add_argument("--naive", action="store_true",
                   help="emit the all-at-once contrast schedule instead")
    w.add_argument("-o", "--output", help="write the schedule JSON here")
    add_output_flags(w)
    w.set_defaults(func=cmd_plan_build)

    w = psub.add_parser("show", help="render a saved schedule")
    w.add_argument("schedule", help="schedule JSON file")
    add_output_flags(w)
    w.set_defaults(func=cmd_plan_show)

    w = psub.add_parser(
        "lint", help="statically verify a schedule (PL001-PL003)")
    w.add_argument("schedule", help="schedule JSON file")
    w.add_argument("--model", required=True,
                   help="xADL architecture the schedule must hold against")
    add_output_flags(w)
    w.add_argument("--fail-on", choices=["error", "warning", "info"],
                   default="error")
    w.set_defaults(func=cmd_plan_lint)

    w = psub.add_parser("diff", help="compare two schedules wave by wave")
    w.add_argument("old", help="schedule JSON file")
    w.add_argument("new", help="schedule JSON file")
    w.set_defaults(func=cmd_plan_diff)

    p = sub.add_parser(
        "lint", help="statically verify models or middleware code")
    p.add_argument("targets", nargs="*",
                   help="xADL files or scenario names "
                        "(crisis, sensorfield, clientserver); with --code, "
                        "source files/directories. Default: all bundled "
                        "scenarios (or src/repro with --code)")
    p.add_argument("--code", action="store_true",
                   help="run the AST code analyzer instead of the model "
                        "verifier")
    add_output_flags(p)
    p.add_argument("--fail-on", choices=["error", "warning", "info"],
                   default="error",
                   help="lowest severity that makes the exit code non-zero")
    p.add_argument("--force", action="store_true",
                   help="report findings but exit zero anyway")
    p.add_argument("--sarif", action="store_true",
                   help="emit SARIF 2.1.0 instead of text/JSON")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write the report to PATH instead of stdout")
    p.add_argument("--baseline", metavar="PATH",
                   help="suppress findings recorded in this baseline file")
    p.add_argument("--write-baseline", metavar="PATH",
                   help="record the current findings as accepted and exit 0")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "obs", help="record, render, and diff observability captures")
    osub = p.add_subparsers(dest="obs_command", required=True)

    o = osub.add_parser(
        "record", help="run the instrumented crisis loop, save a capture")
    o.add_argument("-o", "--output", required=True,
                   help="capture output path (JSON lines)")
    o.add_argument("--duration", type=float, default=60.0)
    o.add_argument("--degrade-at", type=float, default=30.0,
                   help="time of the mid-run link degradation")
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(func=cmd_obs_record)

    o = osub.add_parser("report", help="render a saved capture")
    o.add_argument("capture", help="JSON-lines capture file")
    o.add_argument("--json", action="store_true",
                   help="re-emit the canonical JSON-lines form")
    o.add_argument("--spans-only", action="store_true",
                   help="only the span tree")
    o.add_argument("--metrics-only", action="store_true",
                   help="only the metrics table")
    o.set_defaults(func=cmd_obs_report)

    o = osub.add_parser("diff", help="diff two captures")
    o.add_argument("old")
    o.add_argument("new")
    o.set_defaults(func=cmd_obs_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early — not an error.
        # Point stdout at devnull so the interpreter's exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
