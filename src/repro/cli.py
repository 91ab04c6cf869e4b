"""Command-line interface.

Thin wrappers over :mod:`repro.analysis` so the main workflows run
without writing code::

    python -m repro detect --drop-rate 0.015
    python -m repro detect --healthy
    python -m repro roc --trials 8
    python -m repro closed-loop --drop-rate 0.05
    python -m repro fleet loadgen --out workload.fprec
    python -m repro fleet serve --input workload.fprec --shards 4
    python -m repro chaos --events-out events.jsonl
    python -m repro report events.jsonl --out forensics/

Exit codes are script-friendly and consistent across commands: 0 on
success, 1 when the run's own check fails (a missed or false detection,
an unrecovered loop, a chaos invariant, a fleet validation or parity
mismatch), 2 on bad input (unknown parameters, malformed files,
invalid configuration).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .analysis import (
    ExperimentConfig,
    format_percent,
    format_table,
    run_fastsim_loop,
)
from .analysis.experiments import build_trial
from .core import ClosedLoop, ConfirmationPolicy
from .scenarios import (
    ChaosConfig,
    FaultEvent,
    SimnetClosedLoopConfig,
    run_chaos_batch,
    run_simnet_closed_loop,
)
from .simnet.faults import DropFault
from .units import GIB


def _add_fabric_args(
    parser: argparse.ArgumentParser,
    predictors: tuple[str, ...] = ("analytical", "simulation", "learned"),
) -> None:
    parser.add_argument("--leaves", type=int, default=32, help="leaf switches")
    parser.add_argument("--spines", type=int, default=16, help="spine switches")
    parser.add_argument(
        "--collective-gib",
        type=float,
        default=8.0,
        help="collective size in GiB (default 8)",
    )
    parser.add_argument("--mtu", type=int, default=1024, help="packet MTU bytes")
    parser.add_argument("--threshold", type=float, default=0.01, help="detection threshold")
    parser.add_argument("--iterations", type=int, default=5, help="monitored iterations")
    parser.add_argument("--preexisting", type=int, default=0, help="pre-existing faulty cables")
    parser.add_argument("--predictor", choices=predictors, default="analytical")
    parser.add_argument("--seed", type=int, default=0)


def _config(args: argparse.Namespace, drop_rate: float) -> ExperimentConfig:
    return ExperimentConfig(
        n_leaves=args.leaves,
        n_spines=args.spines,
        collective_bytes=int(args.collective_gib * GIB),
        mtu=args.mtu,
        threshold=args.threshold,
        drop_rate=drop_rate,
        n_preexisting=args.preexisting,
        predictor=args.predictor,
        n_iterations=args.iterations,
        warmup_iterations=min(3, max(1, args.iterations - 2)),
    )


# ----------------------------------------------------------------------
# Telemetry plumbing (shared by detect / roc / sweep)
# ----------------------------------------------------------------------
def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write telemetry (structured events + metric snapshots) "
        "as JSONL, one JSON object per line",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of a companion "
        "packet-level capture (open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="report live progress on stderr",
    )


def _telemetry_session(args: argparse.Namespace):
    """A TelemetrySession when any telemetry output was requested.

    Telemetry is imported lazily and only here: the simulation packages
    never import it, and without the flags the CLI does not either.
    """
    if args.metrics_out is None and args.trace_out is None:
        return None
    from .telemetry import TelemetrySession

    return TelemetrySession()


def _progress_callback(args: argparse.Namespace):
    if not args.progress:
        return None

    def report(done: int, total: int, elapsed_s: float) -> None:
        rate = done / elapsed_s if elapsed_s > 0 else 0.0
        print(
            f"\r[{done}/{total}] {elapsed_s:.1f}s ({rate:.1f} trials/sec)",
            end="\n" if done >= total else "",
            file=sys.stderr,
            flush=True,
        )

    return report


def _write_telemetry(
    args: argparse.Namespace,
    session,
    config: ExperimentConfig,
    fault_link: str | None,
) -> None:
    """Write ``--metrics-out`` / ``--trace-out`` artifacts.

    The Chrome trace comes from a companion packet-level capture (see
    :mod:`repro.telemetry.capture`) mirroring the reported fabric shape
    and fault — the statistical simulator the commands run on has no
    per-packet timeline of its own.
    """
    if session is None:
        return
    if args.trace_out is not None:
        from .telemetry import capture_fabric_trace, write_chrome_trace

        if args.progress:
            print("capturing packet-level trace...", file=sys.stderr)
        capture = capture_fabric_trace(
            n_leaves=config.n_leaves,
            n_spines=config.n_spines,
            mtu=config.mtu,
            fault_link=fault_link,
            drop_rate=config.drop_rate if fault_link is not None else 0.0,
            seed=args.seed,
            spray=config.spraying,
            telemetry=session,
        )
        n_events = write_chrome_trace(
            args.trace_out,
            capture.tracer,
            metadata={
                "fabric": f"{config.n_leaves}x{config.n_spines}",
                "fault_link": fault_link,
                "drop_rate": capture.drop_rate,
                "fault_drops": capture.fault_drops,
            },
        )
        print(
            f"wrote {n_events} trace events to {args.trace_out} "
            f"({capture.fault_drops} fault drops captured)",
            file=sys.stderr,
        )
    if args.metrics_out is not None:
        n_lines = session.write_jsonl(args.metrics_out)
        print(
            f"wrote {n_lines} telemetry lines to {args.metrics_out}",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_detect(args: argparse.Namespace) -> int:
    from .analysis import incident_report
    from .analysis.experiments import run_trial_with_verdict

    config = _config(args, args.drop_rate)
    inject = not args.healthy
    session = _telemetry_session(args)
    outcome, verdict = run_trial_with_verdict(
        config, injected=inject, base_seed=args.seed, trial=0, telemetry=session
    )
    print(f"fabric: {args.leaves} leaves x {args.spines} spines, "
          f"{args.collective_gib:g} GiB ring collective, "
          f"threshold {format_percent(args.threshold)}")
    if inject:
        print(f"injected: {outcome.fault_link} at "
              f"{format_percent(args.drop_rate)} drop")
    else:
        print("injected: nothing (healthy control run)")
    print(f"detected: {outcome.triggered}"
          + (f" (iteration {outcome.first_detection_iteration})"
             if outcome.triggered else ""))
    print(f"worst deviation: {format_percent(outcome.score)}")
    if outcome.suspected_links:
        print(f"suspects: {', '.join(sorted(outcome.suspected_links))}")
    if args.report:
        print()
        print(incident_report(verdict, threshold=args.threshold))
    _write_telemetry(
        args, session, config, outcome.fault_link if inject else None
    )
    if inject:
        return 0 if outcome.triggered and outcome.localized_correctly else 1
    return 0 if not outcome.triggered else 1


def cmd_roc(args: argparse.Namespace) -> int:
    from .analysis import SweepRunner

    config = _config(args, 0.015)
    session = _telemetry_session(args)
    runner = SweepRunner(telemetry=session, progress=_progress_callback(args))
    grid = runner.roc(
        config, args.drop_rates, args.thresholds, n_trials=args.trials, base_seed=args.seed
    )
    rows = []
    for index, (batch, points) in enumerate(grid):
        drop = batch.config.drop_rate
        if session is not None:
            # The shared healthy trials report once, ahead of the first rate.
            for outcomes in ((batch.negatives,) if index == 0 else ()) + (batch.positives,):
                for trial, outcome in enumerate(outcomes):
                    session.emit(
                        "roc.trial",
                        drop_rate=drop if outcome.injected else 0.0,
                        trial=trial,
                        injected=outcome.injected,
                        score=outcome.score,
                    )
            for point in points:
                session.emit(
                    "roc.point",
                    drop_rate=drop,
                    threshold=point.threshold,
                    fpr=point.fpr,
                    tpr=point.tpr,
                )
        rows.extend(
            [
                format_percent(drop, 1),
                format_percent(point.threshold, 2),
                format_percent(point.fpr, 1),
                format_percent(point.tpr, 1),
            ]
            for point in points
        )
    print(
        format_table(
            ["drop rate", "threshold", "FPR", "TPR"],
            rows,
            title=f"ROC ({args.trials}+{args.trials} trials per drop rate)",
        )
    )
    _write_telemetry(
        args,
        session,
        replace(config, drop_rate=max(args.drop_rates)),
        build_trial(config, base_seed=args.seed, trial=0).fault_link,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from dataclasses import fields

    from .analysis import SweepRunner

    config = _config(args, args.drop_rate)
    field_types = {f.name: f.type for f in fields(ExperimentConfig)}
    if args.parameter not in field_types:
        print(f"unknown sweep parameter {args.parameter!r}", file=sys.stderr)
        return 2
    casters = {
        "int": int,
        "float": float,
        "str": str,
        "bool": lambda v: v.lower() in ("1", "true", "yes"),
    }
    caster = casters.get(field_types[args.parameter], float)
    try:
        values = [caster(v) for v in args.values]
    except ValueError:
        print(
            f"cannot parse --values as {field_types[args.parameter]} "
            f"for parameter {args.parameter!r}",
            file=sys.stderr,
        )
        return 2
    session = _telemetry_session(args)
    runner = SweepRunner(
        jobs=args.jobs, telemetry=session, progress=_progress_callback(args)
    )
    results = runner.sweep(
        config,
        args.parameter,
        values,
        n_trials=args.trials,
        base_seed=args.seed,
    )
    rows = []
    for value, batch in results.items():
        confusion = batch.confusion()
        rows.append(
            [
                value,
                format_percent(confusion.fpr, 1),
                format_percent(confusion.tpr, 1),
                format_percent(batch.localization_rate, 0),
            ]
        )
    stats = runner.last_stats
    print(
        format_table(
            [args.parameter, "FPR", "TPR", "localized"],
            rows,
            title=f"sweep over {args.parameter} "
            f"({args.trials}+{args.trials} trials per value, jobs={runner.jobs})",
        )
    )
    if stats is not None:
        utilization = (
            f", worker utilization {format_percent(stats.utilization, 0)}"
            if stats.busy_s > 0
            else ""
        )
        print(
            f"\n{stats.n_trials} trials in {stats.elapsed_s:.2f}s "
            f"({stats.trials_per_sec:.1f} trials/sec, jobs={stats.jobs}"
            f"{utilization})"
        )
    _write_telemetry(
        args,
        session,
        config,
        build_trial(config, base_seed=args.seed, trial=0).fault_link,
    )
    return 0


def _events_session(args: argparse.Namespace):
    """A TelemetrySession when ``--events-out`` was requested."""
    if args.events_out is None:
        return None
    from .telemetry import TelemetrySession

    return TelemetrySession()


def _write_events(args: argparse.Namespace, session) -> None:
    if session is None:
        return
    n_lines = session.write_jsonl(args.events_out)
    print(
        f"wrote {n_lines} forensics events to {args.events_out}",
        file=sys.stderr,
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    chaos = ChaosConfig(
        n_scenarios=args.scenarios,
        base_seed=args.seed,
        n_iterations=args.iterations,
        threshold=args.threshold,
        detection_slack=args.detection_slack,
        verify_determinism=args.verify_determinism,
    )
    session = _events_session(args)
    report = run_chaos_batch(chaos, telemetry=session)
    for outcome in report.outcomes:
        status = "ok  " if outcome.ok else "FAIL"
        detected = outcome.result.detection_iteration
        print(
            f"{status} {outcome.scenario.describe():55s} "
            f"detect={'-' if detected is None else detected} "
            f"actions={len(outcome.result.actions)} "
            f"digest={outcome.digest[:12]}"
        )
    print()
    print(report.summary())
    _write_events(args, session)
    return 0 if report.ok else 1


def cmd_greylab(args: argparse.Namespace) -> int:
    from .analysis import SweepRunner
    from .greylab import (
        StudyConfig,
        compare_remediations,
        run_greylab_study,
    )

    config = StudyConfig(
        kinds=tuple(args.kinds),
        sprays=tuple(args.sprays),
        congestion_levels=tuple(args.levels),
        seeds_per_cell=args.seeds_per_cell,
        base_seed=args.seed,
        n_iterations=args.iterations,
        detection_slack=args.detection_slack,
        remediation=args.remediation,
    )
    session = _events_session(args)
    runner = SweepRunner(jobs=args.jobs)
    study = run_greylab_study(config, runner=runner, telemetry=session)
    rows = []
    for row in study.rows():
        rows.append(
            [
                row["kind"],
                row["spray"],
                row["congestion"],
                format_percent(row["threshold"], 0),
                f"{row['false_positives']}/{row['n_runs']}",
                f"{row['detections']}/{row['demanded_detections']}"
                if row["demanded_detections"]
                else "-",
                f"{row['mean_latency']:.1f}"
                if row["mean_latency"] is not None
                else "-",
                row["stalls"] or "",
            ]
        )
    print(
        format_table(
            ["kind", "spray", "congestion", "thresh", "FP", "detected", "latency", "stalls"],
            rows,
            title=f"greylab: {len(study.cells)} cells x "
            f"{config.seeds_per_cell} seeds on "
            f"{config.fabric[0]}x{config.fabric[1]}",
        )
    )
    print()
    print(study.summary())
    if args.out is not None:
        n_rows = study.write_csv(args.out)
        print(f"wrote {n_rows} matrix rows to {args.out}", file=sys.stderr)
    if args.compare_remediations:
        comparison = compare_remediations(
            seeds=range(args.seed, args.seed + args.compare_seeds),
            spray=args.compare_spray,
            runner=runner,
        )
        print()
        print(comparison.summary())
        comparison_rows = [
            [
                row["seed"],
                row["mode"],
                "-" if row["detection_iteration"] is None else row["detection_iteration"],
                "-" if row["remediation_iteration"] is None else row["remediation_iteration"],
                f"{row['post_remediation_deviation']:.4f}",
                "yes" if row["recovered"] else "no",
                "-" if row["recovery_iterations"] is None else row["recovery_iterations"],
            ]
            for row in comparison.rows()
        ]
        print(
            format_table(
                ["seed", "mode", "detect", "remediate", "post-dev", "recovered", "recovery iters"],
                comparison_rows,
                title=f"remediation face-off ({args.compare_spray} spray)",
            )
        )
    _write_events(args, session)
    return 0 if study.ok else 1


def cmd_closed_loop(args: argparse.Namespace) -> int:
    # Fabric flags left unset take the engine's own defaults: paper
    # scale for fastsim, packet scale for simnet.
    given = dict(
        n_leaves=args.leaves, n_spines=args.spines, mtu=args.mtu, n_iterations=args.iterations
    )
    if args.collective_gib is not None:
        given["collective_bytes"] = int(args.collective_gib * GIB)
    base = SimnetClosedLoopConfig() if args.engine == "simnet" else ExperimentConfig()
    config = replace(
        base,
        threshold=args.threshold,
        **{name: value for name, value in given.items() if value is not None},
    )
    session = _events_session(args)
    if args.engine == "simnet":
        config = replace(
            config, confirm_after=args.confirm_after, predictor=args.predictor, seed=args.seed
        )
        fault_link = args.fault_link or f"up:L{config.n_leaves // 2}->S1"
        fault = FaultEvent(0, "inject", fault_link, DropFault(args.drop_rate))
        result = run_simnet_closed_loop(
            config, iteration_faults={args.fault_start: [fault]}, telemetry=session
        )
    else:
        config = replace(config, drop_rate=args.drop_rate, n_preexisting=args.preexisting)
        setup = build_trial(config, base_seed=args.seed, trial=0)
        fault_link = args.fault_link or setup.fault_link
        loop = ClosedLoop(
            setup.demand,
            setup.model.control(),
            threshold=args.threshold,
            policy=ConfirmationPolicy(confirm_after=args.confirm_after),
            predictor=args.predictor,
            telemetry=session,
        )
        result = run_fastsim_loop(
            loop,
            setup.model,
            {fault_link: args.drop_rate},
            config.n_iterations,
            args.fault_start,
            args.seed,
        )
    rows = []
    for step in result.steps:
        remediation = ""
        if step.action:
            remediation = "DISABLED " + ", ".join(sorted(step.action.disabled_links))
        elif step.vetoed:
            remediation = "VETOED (would partition)"
        rows.append(
            [
                step.iteration,
                f"{step.max_score:.4f}",
                "ALARM" if step.triggered else "",
                ", ".join(sorted(step.suspected_links)) or "-",
                remediation,
            ]
        )
    print(
        format_table(
            ["iter", "score", "detection", "suspects", "remediation"],
            rows,
            title=f"{args.engine} closed loop: {fault_link} drops "
            f"{format_percent(args.drop_rate)} from iteration {args.fault_start}",
        )
    )
    print(f"\niterations completed: {result.iterations_completed}/{config.n_iterations}")
    print(f"failed messages: {result.failed_messages}")
    if result.stalled:
        print(f"STALLED: {result.stall.summary()}")
    print(f"recovered (quiet after remediation): {result.recovered}")
    _write_events(args, session)
    return 0 if result.recovered and not result.stalled else 1


# ----------------------------------------------------------------------
# Fleet: sharded streaming monitoring service
# ----------------------------------------------------------------------
def _add_fleet_workload_args(parser: argparse.ArgumentParser) -> None:
    """Workload-shape flags shared by ``fleet loadgen`` and inline
    generation.  Defaults are fleet-scale (small fabric, many jobs), not
    the single-trial paper defaults."""
    parser.add_argument("--jobs", type=int, default=8, help="concurrent jobs")
    parser.add_argument("--iterations", type=int, default=20, help="iterations per job")
    parser.add_argument(
        "--fault-fraction",
        type=float,
        default=0.25,
        help="fraction of jobs with an injected silent fault",
    )
    parser.add_argument("--leaves", type=int, default=8, help="leaf switches per job fabric")
    parser.add_argument("--spines", type=int, default=4, help="spine switches per job fabric")
    parser.add_argument(
        "--collective-gib", type=float, default=1.0, help="collective size in GiB"
    )
    parser.add_argument("--threshold", type=float, default=0.01, help="detection threshold")
    parser.add_argument("--drop-rate", type=float, default=0.015, help="fault drop rate")
    parser.add_argument(
        "--predictor",
        choices=("analytical", "simulation", "learned"),
        default="analytical",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_wire_version_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--wire-version",
        type=int,
        choices=(1, 2),
        default=1,
        help="fprec wire format: 1 = readable JSON lines (replay/debug), "
        "2 = binary columnar frames (ingest hot path)",
    )


def _add_fleet_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=2, help="shard worker processes")
    _add_wire_version_arg(parser)
    parser.add_argument(
        "--queue-depth", type=int, default=1024,
        help="messages posted to a shard and not yet taken by its worker",
    )
    parser.add_argument(
        "--policy",
        choices=("block", "shed-oldest"),
        default="block",
        help="backpressure when a shard inbox fills: block ingest "
        "(lossless) or shed the oldest batch not yet written to the "
        "pipe (lossy, counted)",
    )
    parser.add_argument(
        "--incidents-out",
        metavar="PATH",
        default=None,
        help="write the incident lifecycle log (opened/closed rollups) as JSONL",
    )
    parser.add_argument(
        "--fleet-metrics-out",
        metavar="PATH",
        default=None,
        help="write the merged fleet metrics snapshot as JSONL",
    )


def _loadgen_config(args: argparse.Namespace):
    from .fleet import LoadGenConfig

    experiment = ExperimentConfig(
        n_leaves=args.leaves,
        n_spines=args.spines,
        collective_bytes=int(args.collective_gib * GIB),
        threshold=args.threshold,
        drop_rate=args.drop_rate,
        predictor=args.predictor,
        warmup_iterations=min(3, max(1, args.iterations - 2)),
    )
    return LoadGenConfig(
        n_jobs=args.jobs,
        n_iterations=args.iterations,
        fault_fraction=args.fault_fraction,
        base_seed=args.seed,
        experiment=experiment,
    )


def _fleet_config(args: argparse.Namespace, return_verdicts: bool = False):
    from .fleet import FleetConfig

    return FleetConfig(
        n_shards=args.shards,
        queue_depth=args.queue_depth,
        policy=args.policy,
        return_verdicts=return_verdicts,
        wire_version=args.wire_version,
    )


def _write_fleet_outputs(args: argparse.Namespace, result) -> None:
    from .telemetry.events import write_jsonl

    if args.incidents_out is not None and result.incident_log is not None:
        n_lines = result.incident_log.dump_jsonl(args.incidents_out)
        print(f"wrote {n_lines} incident events to {args.incidents_out}", file=sys.stderr)
    if args.fleet_metrics_out is not None:
        n_lines = write_jsonl(result.metrics, args.fleet_metrics_out)
        print(f"wrote {n_lines} metric lines to {args.fleet_metrics_out}", file=sys.stderr)


def _print_fleet_report(result, assignment) -> None:
    metrics = {
        (entry["name"], entry["labels"].get("shard", "")): entry
        for entry in result.metrics
        if "name" in entry
    }
    rows = []
    for shard in range(assignment.n_shards):
        label = str(shard)
        batches = metrics.get(("fleet.batches", label), {}).get("value", 0)
        records = metrics.get(("fleet.records", label), {}).get("value", 0)
        alarmed = metrics.get(("fleet.alarmed_iterations", label), {}).get("value", 0)
        latency = metrics.get(("fleet.detection_latency_s", label))
        mean_ms = (
            1000.0 * latency["sum"] / latency["count"]
            if latency and latency.get("count")
            else 0.0
        )
        rows.append(
            [
                shard,
                assignment.jobs_per_shard.get(shard, 0),
                batches,
                records,
                alarmed,
                f"{mean_ms:.2f}",
            ]
        )
    print(
        format_table(
            ["shard", "jobs", "batches", "records", "alarms", "mean latency ms"],
            rows,
            title=f"fleet: {result.submitted_records} records in "
            f"{result.elapsed_s:.2f}s "
            f"({result.ingest_records_per_sec:,.0f} records/sec ingest)",
        )
    )
    if result.shed_records:
        print(f"shed under backpressure: {result.shed_records} records "
              f"({result.shed_batches} batches)")
    if result.errors:
        print(f"worker errors: {len(result.errors)}")
        for error in result.errors[:5]:
            print(f"  {error}")
    print()
    if result.incidents:
        incident_rows = [
            [
                incident.job_id,
                incident.link,
                incident.kind,
                f"{incident.first_seen}-{incident.last_seen}",
                incident.n_iterations,
                format_percent(-incident.worst_deviation),
            ]
            for incident in result.incidents
        ]
        print(
            format_table(
                ["job", "link", "kind", "seen", "iters", "worst deficit"],
                incident_rows,
                title=f"incidents ({len(result.incidents)})",
            )
        )
    else:
        print("incidents: none")


def cmd_fleet_loadgen(args: argparse.Namespace) -> int:
    from .fleet import write_workload

    config = _loadgen_config(args)
    jobs, n_lines = write_workload(config, args.out, version=args.wire_version)
    faulted = sorted(job.job_id for job in jobs if job.faulted)
    print(
        f"wrote {n_lines} units ({len(jobs)} jobs x {config.n_iterations} "
        f"iterations, wire v{args.wire_version}) to {args.out}"
    )
    print(f"faulted jobs: {', '.join(map(str, faulted)) or 'none'}")
    for job in jobs:
        if job.faulted:
            print(f"  job {job.job_id}: {job.fault_link} at "
                  f"{format_percent(job.experiment.drop_rate)} drop")
    return 0


def cmd_fleet_serve(args: argparse.Namespace) -> int:
    from .fleet import ShardRouter, describe_assignment, read_fprec, serve_workload
    from .fleet.shard import FleetError

    if args.listen is not None:
        return _fleet_serve_listen(args)
    if args.input is None:
        raise FleetError("fleet serve needs --input PATH or --listen HOST:PORT")
    content = read_fprec(args.input)
    if not content.jobs:
        print(f"no job configs in {args.input}", file=sys.stderr)
        return 2
    result = serve_workload(content.jobs, content.batches, _fleet_config(args))
    assignment = describe_assignment(
        ShardRouter(args.shards), [job.job_id for job in content.jobs]
    )
    _print_fleet_report(result, assignment)
    _write_fleet_outputs(args, result)
    validation = result.validate()
    if validation.checked:
        print(
            f"\nvalidation: {validation.checked} jobs with ground truth, "
            f"missed={list(validation.missed) or 'none'}, "
            f"false alarms={list(validation.false_alarms) or 'none'}"
        )
        return 0 if validation.ok else 1
    print("\nvalidation: no ground truth in stream (not generated by loadgen)")
    return 0


def cmd_fleet_replay(args: argparse.Namespace) -> int:
    from .fleet import read_fprec, reference_verdicts, serve_workload

    content = read_fprec(args.input)
    if not content.jobs:
        print(f"no job configs in {args.input}", file=sys.stderr)
        return 2
    result = serve_workload(
        content.jobs, content.batches, _fleet_config(args, return_verdicts=True)
    )
    reference = reference_verdicts(content.jobs, content.batches)
    mismatched = []
    for job in content.jobs:
        if result.verdicts_for(job.job_id) != reference[job.job_id]:
            mismatched.append(job.job_id)
    n_verdicts = sum(len(v) for v in reference.values())
    print(
        f"replayed {result.submitted_records} records through "
        f"{args.shards} shard(s): {n_verdicts} verdicts compared "
        "against the direct-feed reference"
    )
    if mismatched:
        print(f"PARITY BROKEN for jobs: {mismatched}")
        return 1
    print("golden parity: bit-identical verdicts")
    _write_fleet_outputs(args, result)
    return 0


def _parse_hostport(value: str) -> tuple[str, int]:
    from .fleet.shard import FleetError

    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise FleetError(f"expected HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise FleetError(f"bad port in {value!r}") from None


def _fleet_serve_listen(args: argparse.Namespace) -> int:
    """``fleet serve --listen``: the HA service behind a TCP front-end.

    Runs until SIGINT/SIGTERM (graceful: stop accepting, drain open
    connections and shard queues, flush outputs, exit by validation)
    or until ``--idle-exit`` seconds pass with no open connections
    after at least one client came and went.  ``--kill-shard`` /
    ``--kill-after`` are the chaos hooks the HA smoke test drives:
    SIGKILL one shard worker mid-stream and let failover recover it.
    """
    import asyncio
    import signal as signal_module

    from .fleet.ha import (
        FleetNetServer,
        HAConfig,
        HAFleetService,
        NetServerConfig,
    )
    from .fleet.shard import FleetError, ShardAssignment

    host, port = _parse_hostport(args.listen)
    if args.kill_shard is not None and not 0 <= args.kill_shard < args.shards:
        raise FleetError(f"--kill-shard {args.kill_shard} out of range")
    service = HAFleetService(
        _fleet_config(args), ha=HAConfig(journal_dir=args.journal_dir)
    )
    service.start()

    async def _run() -> None:
        server = FleetNetServer(
            service, NetServerConfig(host=host, port=port)
        )
        await server.start()
        print(
            f"fleet: listening on {host}:{server.port} "
            f"({args.shards} shard(s), epoch {service.epoch}); "
            "SIGINT/SIGTERM drains and exits",
            file=sys.stderr,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal_module.SIGINT, signal_module.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        killed = False
        try:
            while not stop.is_set():
                try:
                    await asyncio.wait_for(stop.wait(), timeout=0.1)
                except asyncio.TimeoutError:
                    pass
                stats = server.stats
                if (
                    args.kill_shard is not None
                    and not killed
                    and stats.records >= args.kill_after
                ):
                    worker = service._workers[args.kill_shard]
                    if worker.pid is not None and worker.is_alive():
                        os.kill(worker.pid, signal_module.SIGKILL)
                    killed = True
                    print(
                        f"fleet: chaos SIGKILL shard {args.kill_shard} "
                        f"after {stats.records} records",
                        file=sys.stderr,
                    )
                if (
                    args.idle_exit is not None
                    and stats.connections_total > 0
                    and stats.connections_open == 0
                    and loop.time() - server.last_activity >= args.idle_exit
                ):
                    print("fleet: idle, draining", file=sys.stderr)
                    break
        finally:
            for sig in (signal_module.SIGINT, signal_module.SIGTERM):
                loop.remove_signal_handler(sig)
            await server.close()
        print(
            f"fleet: ingested {server.stats.records} records over "
            f"{server.stats.connections_total} connection(s)",
            file=sys.stderr,
        )

    asyncio.run(_run())
    routes = {job_id: service._route(job_id) for job_id in service.jobs}
    n_shards = service.n_shards
    result = service.close()
    jobs_per_shard = dict.fromkeys(range(n_shards), 0)
    for shard in routes.values():
        jobs_per_shard[shard] += 1
    _print_fleet_report(
        result, ShardAssignment(n_shards=n_shards, jobs_per_shard=jobs_per_shard)
    )
    print(
        f"\nha: epoch {result.epoch}, failovers {result.failovers}, "
        f"replayed {result.replayed_records} records, "
        f"{result.duplicate_verdicts} replay duplicates dropped, "
        f"{result.fenced_messages} fenced, lost {result.lost_records}"
    )
    _write_fleet_outputs(args, result)
    if not result.accounting_ok:
        print(
            "record accounting broken: "
            f"processed {result.processed_unique_records} + shed "
            f"{result.shed_unique_records} != submitted "
            f"{result.submitted_records} (lost {result.lost_records})",
            file=sys.stderr,
        )
        return 1
    validation = result.validate()
    if validation.checked:
        print(
            f"validation: {validation.checked} jobs with ground truth, "
            f"missed={list(validation.missed) or 'none'}, "
            f"false alarms={list(validation.false_alarms) or 'none'}"
        )
        return 0 if validation.ok else 1
    return 0


def cmd_fleet_stream(args: argparse.Namespace) -> int:
    from .fleet import generate_workload, read_fprec
    from .fleet.ha import stream_workload

    host, port = _parse_hostport(args.connect)
    if args.input is not None:
        content = read_fprec(args.input)
        jobs, batches = content.jobs, content.batches
    else:
        jobs, batches = generate_workload(_loadgen_config(args))
    stats = stream_workload(
        host,
        port,
        jobs,
        batches,
        version=args.wire_version,
        connections=args.connections,
    )
    print(
        f"streamed {stats.units} units ({len(jobs)} jobs, {stats.records} "
        f"records, {stats.bytes_sent:,} bytes) over {stats.connections} "
        f"connection(s) in {stats.elapsed_s:.2f}s "
        f"({stats.records_per_sec:,.0f} records/sec)"
    )
    return 0


# ----------------------------------------------------------------------
# Forensics: audit trails -> fact tables -> incident report
# ----------------------------------------------------------------------
def cmd_report(args: argparse.Namespace) -> int:
    from .report import build_report

    bundle = build_report(
        args.inputs,
        args.out,
        title=args.title,
        default_job_id=args.job_id,
        strict=args.strict,
        quiet_gap=args.quiet_gap,
        write_html=not args.no_html,
    )
    analysis = bundle.analysis
    stats = analysis.stats
    print(
        f"extracted {bundle.facts.n_rows} fact rows from "
        f"{len(analysis.sources)} source(s) into {bundle.out_dir}"
    )
    for table, path in sorted(bundle.csv_paths.items()):
        print(f"  {path.name}: {len(bundle.facts.rows(table))} rows")
    if bundle.html_path is not None:
        print(f"  {bundle.html_path.name}: self-contained incident report")
    print(
        f"runs={stats.n_runs} detected={stats.n_detected} "
        f"missed={stats.n_missed} false_alarms={stats.n_false_alarms} "
        f"incidents={stats.n_incidents} reopens={stats.n_reopens}"
    )
    if stats.latencies:
        print(
            f"detection latency (iterations): p50={stats.latency_p50:g} "
            f"p90={stats.latency_p90:g} max={stats.latency_max:g}"
        )
    for note in analysis.issues:
        print(f"caveat: {note}", file=sys.stderr)
    if analysis.malformed_lines:
        print(
            f"caveat: dropped {analysis.malformed_lines} malformed "
            "JSONL line(s)",
            file=sys.stderr,
        )
    return bundle.exit_status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlowPulse reproduction: silent-fault detection in "
        "packet-spraying ML fabrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run one monitored training run")
    _add_fabric_args(detect)
    detect.add_argument("--drop-rate", type=float, default=0.015)
    detect.add_argument(
        "--healthy", action="store_true", help="run the no-fault control"
    )
    detect.add_argument(
        "--report", action="store_true", help="print a full incident report"
    )
    _add_telemetry_args(detect)
    detect.set_defaults(func=cmd_detect)

    roc = sub.add_parser("roc", help="threshold x drop-rate ROC sweep")
    _add_fabric_args(roc)
    roc.add_argument("--trials", type=int, default=8)
    roc.add_argument(
        "--drop-rates",
        type=float,
        nargs="+",
        default=[0.005, 0.01, 0.015, 0.02],
    )
    roc.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=[0.005, 0.01, 0.02],
    )
    _add_telemetry_args(roc)
    roc.set_defaults(func=cmd_roc)

    sweep = sub.add_parser(
        "sweep",
        help="parallel trial grid over one config parameter",
        description="Fan a trial grid out over worker processes. Results "
        "are bit-identical for any --jobs value: every trial's RNG is "
        "derived from SeedSequence(seed, trial, injected).",
    )
    _add_fabric_args(sweep)
    sweep.add_argument("--drop-rate", type=float, default=0.015)
    sweep.add_argument(
        "--parameter",
        default="drop_rate",
        help="ExperimentConfig field to sweep (default drop_rate)",
    )
    sweep.add_argument(
        "--values",
        nargs="+",
        required=True,
        help="values of the swept parameter",
    )
    sweep.add_argument("--trials", type=int, default=8)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU); results are "
        "independent of this value",
    )
    _add_telemetry_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    loop = sub.add_parser(
        "closed-loop",
        help="detect -> localize -> disable -> recover",
        description="Run the detect/localize/disable/recover loop on either "
        "simulator; both run the same loop, veto included. With --engine "
        "simnet faults hit real packets and remediation reroutes a live "
        "fabric. Fabric flags left unset take the engine's defaults: "
        "32x16, 8 GiB, MTU 1024, 5 iterations for fastsim; 8x4, ~2 MB, "
        "MTU 512, 8 iterations for simnet.",
    )
    # The loop rebuilds an analytical or learned baseline after each
    # remediation; it has no simulation-predictor rebuild.
    _add_fabric_args(loop, predictors=("analytical", "learned"))
    loop.set_defaults(
        leaves=None, spines=None, collective_gib=None, mtu=None, iterations=None
    )
    loop.add_argument("--drop-rate", type=float, default=0.05)
    loop.add_argument("--fault-start", type=int, default=1)
    loop.add_argument("--confirm-after", type=int, default=2)
    loop.add_argument(
        "--engine",
        choices=("fastsim", "simnet"),
        default="fastsim",
        help="fastsim = statistical model; simnet = packet-level simulator",
    )
    loop.add_argument(
        "--fault-link",
        default=None,
        help="link to fault (e.g. up:L2->S1); default: a seeded random "
        "cable on fastsim, up:L<leaves/2>->S1 on simnet",
    )
    loop.add_argument(
        "--events-out",
        metavar="PATH",
        default=None,
        help="write the loop's forensics event stream (audit trail, "
        "remediations; packet drops with --engine simnet) as JSONL",
    )
    loop.set_defaults(func=cmd_closed_loop)

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos scenarios on the packet-level closed loop",
        description="Generate seeded randomized fault scenarios, run each "
        "through the packet-level closed loop, and check invariants "
        "(liveness, packet conservation, transport accounting, detection "
        "latency, recovery). Exits 1 if any scenario violates one.",
    )
    chaos.add_argument("--scenarios", type=int, default=20)
    chaos.add_argument("--seed", type=int, default=0, help="base seed")
    chaos.add_argument("--iterations", type=int, default=8)
    chaos.add_argument("--threshold", type=float, default=0.05)
    chaos.add_argument(
        "--detection-slack",
        type=int,
        default=3,
        help="iterations a detectable fault may go unnoticed",
    )
    chaos.add_argument(
        "--verify-determinism",
        action="store_true",
        help="run every scenario twice and compare outcome digests",
    )
    chaos.add_argument(
        "--events-out",
        metavar="PATH",
        default=None,
        help="write the whole batch's forensics event stream as JSONL, "
        "with scenario.start/scenario.end markers bracketing each run",
    )
    chaos.set_defaults(func=cmd_chaos)

    greylab = sub.add_parser(
        "greylab",
        help="gray-failure study: FP/latency matrix over spray x congestion",
        description="Sweep (scenario kind x spray policy x congestion "
        "level) chaos cells into a false-positive / detection-latency "
        "matrix with per-policy threshold and predictor calibration. "
        "Exits 1 if a congestion-only cell alarmed or a conditional "
        "gray fault the policy routed into went undetected.",
    )
    from .greylab.study import CONGESTION_LEVELS as _LEVELS
    from .greylab.study import POLICY_SETTINGS as _POLICIES
    from .scenarios.chaos import GREYLAB_KINDS as _GREY_KINDS

    greylab.add_argument(
        "--kinds",
        nargs="+",
        default=list(_GREY_KINDS),
        choices=list(_GREY_KINDS),
        help="scenario families to sweep",
    )
    greylab.add_argument(
        "--sprays",
        nargs="+",
        default=list(_POLICIES),
        choices=list(_POLICIES),
        help="spray policies to sweep",
    )
    greylab.add_argument(
        "--levels",
        nargs="+",
        default=list(_LEVELS),
        choices=list(_LEVELS),
        help="congestion levels to sweep",
    )
    greylab.add_argument("--seeds-per-cell", type=int, default=2)
    greylab.add_argument("--seed", type=int, default=0, help="base seed")
    greylab.add_argument("--iterations", type=int, default=6)
    greylab.add_argument(
        "--detection-slack",
        type=int,
        default=3,
        help="iterations a routed-into gray fault may go unnoticed",
    )
    greylab.add_argument(
        "--remediation", choices=("disable", "reroute"), default="disable"
    )
    greylab.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for cell fan-out (0 = one per CPU); "
        "ignored when --events-out forces inline runs",
    )
    greylab.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the matrix as CSV (typed cells, repro-report compatible)",
    )
    greylab.add_argument(
        "--compare-remediations",
        action="store_true",
        help="also run the disable-vs-reroute face-off on seeded grays",
    )
    greylab.add_argument(
        "--compare-seeds",
        type=int,
        default=12,
        help="seeded gray scenarios in the face-off",
    )
    greylab.add_argument(
        "--compare-spray",
        choices=list(_POLICIES),
        default="random",
        help="spray policy for the face-off",
    )
    greylab.add_argument(
        "--events-out",
        metavar="PATH",
        default=None,
        help="write every cell's forensics event stream as JSONL "
        "(scenario.start/end markers; feed to `repro report`)",
    )
    greylab.set_defaults(func=cmd_greylab)

    fleet = sub.add_parser(
        "fleet",
        help="sharded streaming monitoring service for many jobs",
        description="Stream many jobs' iteration records through a "
        "sharded monitoring service: loadgen writes a .fprec workload, "
        "serve runs it through shard workers and rolls alarms into "
        "incidents, replay checks bit-exact parity against a "
        "direct-feed monitor.",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    loadgen = fleet_sub.add_parser(
        "loadgen", help="generate a multi-job workload as a .fprec file"
    )
    _add_fleet_workload_args(loadgen)
    _add_wire_version_arg(loadgen)
    loadgen.add_argument(
        "--out", required=True, metavar="PATH", help="output .fprec path"
    )
    loadgen.set_defaults(func=cmd_fleet_loadgen)

    serve = fleet_sub.add_parser(
        "serve",
        help="run a recorded workload through the sharded service, or "
        "listen for TCP streams on the highly-available service",
        description="With --input, replay a recorded workload. With "
        "--listen HOST:PORT, run the HA fleet (replicated coordinator, "
        "shard failover with journal replay) behind an asyncio TCP "
        "ingest front-end until SIGINT/SIGTERM or --idle-exit; shutdown "
        "drains queues, flushes --incidents-out, and exits cleanly. "
        "Exit 0 when every faulted job produced an incident and no "
        "healthy job did (and, in listen mode, no record was lost); 1 "
        "otherwise.",
    )
    serve.add_argument(
        "--input", metavar="PATH", default=None, help="input .fprec workload"
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="serve the HA fleet over TCP instead of replaying a file "
        "(port 0 picks an ephemeral port, printed on stderr)",
    )
    serve.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="listen mode: where shard write-ahead journals live "
        "(default: self-cleaning temp dir)",
    )
    serve.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="listen mode: drain and exit after this much idle time "
        "once at least one client connected and disconnected",
    )
    serve.add_argument(
        "--kill-shard",
        type=int,
        default=None,
        metavar="SHARD",
        help="chaos hook: SIGKILL this shard worker mid-stream",
    )
    serve.add_argument(
        "--kill-after",
        type=int,
        default=1,
        metavar="RECORDS",
        help="chaos hook: kill once this many records were ingested",
    )
    _add_fleet_service_args(serve)
    serve.set_defaults(func=cmd_fleet_serve)

    stream = fleet_sub.add_parser(
        "stream",
        help="stream a workload to a listening fleet over TCP",
        description="Loadgen-over-TCP client: generate a workload (or "
        "read a recorded .fprec) and stream it to a `fleet serve "
        "--listen` server over N concurrent connections with per-job "
        "affinity.",
    )
    stream.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the listening fleet",
    )
    stream.add_argument(
        "--connections", type=int, default=4, help="concurrent TCP connections"
    )
    stream.add_argument(
        "--input",
        metavar="PATH",
        default=None,
        help="stream this recorded .fprec instead of generating a workload",
    )
    _add_fleet_workload_args(stream)
    _add_wire_version_arg(stream)
    stream.set_defaults(func=cmd_fleet_stream)

    replay = fleet_sub.add_parser(
        "replay",
        help="replay a .fprec stream and verify golden parity",
        description="Exit 0 when the service's verdicts are bit-identical "
        "to a direct single-monitor feed; 1 on any divergence.",
    )
    replay.add_argument(
        "--input", required=True, metavar="PATH", help="input .fprec stream"
    )
    _add_fleet_service_args(replay)
    replay.set_defaults(func=cmd_fleet_replay)

    report = sub.add_parser(
        "report",
        help="post-incident forensics report from logs and captures",
        description="Extract typed CSV fact tables from any mix of "
        "telemetry JSONL logs (detect/chaos/closed-loop --events-out or "
        "--metrics-out), fleet --incidents-out streams, and .fprec "
        "captures (verdicts are re-derived offline), then render a "
        "single self-contained HTML incident report beside them. "
        "Exit 0 when the evidence is clean, 1 when forensics found "
        "problems (missed detections, false alarms, dropped log lines), "
        "2 on unusable input.",
    )
    report.add_argument(
        "inputs",
        nargs="+",
        metavar="EVIDENCE",
        help=".jsonl/.json/.log event streams and/or .fprec captures",
    )
    report.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="output directory for the CSV fact tables and report.html",
    )
    report.add_argument(
        "--title", default="FlowPulse incident report", help="report title"
    )
    report.add_argument(
        "--job-id",
        type=int,
        default=0,
        help="job id assumed for events that carry none (default 0)",
    )
    report.add_argument(
        "--quiet-gap",
        type=int,
        default=None,
        help="flap threshold (iterations) when re-deriving incidents "
        "from .fprec captures",
    )
    report.add_argument(
        "--strict",
        action="store_true",
        help="fail on malformed JSONL lines instead of skipping them",
    )
    report.add_argument(
        "--no-html",
        action="store_true",
        help="write only the CSV fact tables",
    )
    report.set_defaults(func=cmd_report)

    return parser


def _domain_errors() -> tuple:
    """Exception types that signal bad input or configuration, not bugs:
    these exit 2 with a one-line message instead of a traceback."""
    from .analysis.experiments import ExperimentError
    from .analysis.sweeps import SweepError
    from .core.calibration import CalibrationError
    from .fastsim.sampling import FastSimError
    from .fleet import CodecError, FleetError
    from .greylab import GreylabError
    from .report import ReportError
    from .scenarios.script import ScenarioError
    from .telemetry.registry import TelemetryError

    return (
        CalibrationError,
        CodecError,
        ExperimentError,
        FastSimError,
        FleetError,
        GreylabError,
        ReportError,
        ScenarioError,
        SweepError,
        TelemetryError,
        OSError,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _domain_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
