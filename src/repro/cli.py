"""Command-line interface: run any paper experiment from the shell.

Examples::

    python -m repro list-schemes
    python -m repro convergence --schemes dynaq,besteffort --duration 0.5
    python -m repro convergence --trace-out trace.jsonl
    python -m repro weighted --schemes dynaq,pql --weights 4,3,2,1
    python -m repro fct --schemes dynaq,pql --loads 0.3,0.5 --flows 120
    python -m repro static-sim --schemes dynaq,pql --rate 100g
    python -m repro profile convergence --scheme dynaq
    python -m repro trace-validate trace.jsonl
    python -m repro hw-cost
    python -m repro workloads
    python -m repro soak --seed 1 --iterations 20 --jobs 4 --triage-dir triage
    python -m repro soak --replay scenarios/kill-restore-dynaq.json
    python -m repro serve --socket /tmp/repro.sock --snapshot-every 0.01
    python -m repro submit --socket /tmp/repro.sock --kind fct \\
        --params '{"scheme": "dynaq", "load": 0.3, ...}' --wait

Every subcommand prints the same tables the benchmark harness produces;
``--csv PREFIX`` additionally dumps raw series to ``PREFIX.<scheme>.csv``.
Telemetry flags (``--trace-out``, ``--flight-dump``, ``--timeline-csv``;
see ``docs/observability.md``) attach collectors to the run's trace bus.
Snapshot flags (``--snapshot-every``, ``--snapshot-out``, ``--restore``;
see ``docs/robustness.md``) autosave and resume in-flight simulations.

Exit codes (see :mod:`repro.errors`): 0 success, 1 experiment-level
failure (regression, violation, failed sweep points), 2 usage/runtime
error or interrupt, 3 deliberate ``--snapshot-kill-after`` drill halt.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core.hardware import cost_table
from .errors import EXIT_DRILL, EXIT_ERROR, EXIT_FAILURE, EXIT_OK, SnapshotHalt
from .experiments import report
from .experiments.chaos import ChaosResult, run_chaos_sweep
from .experiments.competitive import (
    DEFAULT_POLICIES,
    adversary,
    adversary_names,
    report_lines,
    run_competitive,
)
from .experiments.parallel import (
    JOB_KINDS,
    parallel_fct_sweep,
    parallel_incast_runs,
    parallel_static_runs,
)
from .experiments.simulation import SIM_10G, SIM_100G, run_static_sim
from .experiments.testbed import (
    fct_load_sweep,
    run_convergence,
    run_fair_sharing,
    run_fct_experiment,
    run_motivation,
    run_protocol_mix,
    run_weighted_sharing,
)
from .metrics.export import (
    write_fct_csv,
    write_steal_matrix_csv,
    write_threshold_series_csv,
    write_throughput_csv,
)
from .experiments.runner import run_scenario, scenario_names, scheme_names
from .faults import FaultSchedule
from .perf.config import active_config, set_config
from .sim.engine import Simulator
from .sim.errors import ConfigurationError, ReproError, SimulationError
from .sim.units import seconds
from .snapshot import SnapshotPolicy
from .telemetry import RunProfiler, TelemetrySession, validate_trace_file
from .workloads.datasets import workload, workload_names


def _split_schemes(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _split_floats(text: str) -> List[float]:
    return [float(item) for item in text.split(",") if item.strip()]


def _split_ints(text: str) -> List[int]:
    return [int(item) for item in text.split(",") if item.strip()]


def _maybe_export(results, prefix: Optional[str]) -> None:
    if not prefix:
        return
    for result in results:
        name = result.scheme.lower().replace("(", "-").replace(")", "")
        path = f"{prefix}.{name}.csv"
        write_throughput_csv(path, result.samples)
        print(f"wrote {path}")


# -- telemetry plumbing -------------------------------------------------------

def _parse_window(text: str) -> Tuple[Optional[int], Optional[int]]:
    """``START:END`` in ns; either side may be empty (open-ended)."""
    start_text, sep, end_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            "--trace-window expects START:END nanoseconds (either side "
            "may be empty)")
    start = int(start_text) if start_text else None
    end = int(end_text) if end_text else None
    return start, end


def _telemetry_session(args) -> TelemetrySession:
    """Build the run's telemetry session from CLI flags (may be inert)."""
    if getattr(args, "restore", None):
        # A restored world carries its own pickled recorders, already
        # positioned to rewrite exactly the post-snapshot suffix of
        # their files; opening fresh sinks here would truncate them.
        return TelemetrySession()
    topics = None
    if getattr(args, "trace_topics", None):
        topics = [item.strip() for item in args.trace_topics.split(",")
                  if item.strip()]
    start_ns = end_ns = None
    window = getattr(args, "trace_window", None)
    if window is not None:
        start_ns, end_ns = window
    return TelemetrySession(
        trace_out=getattr(args, "trace_out", None),
        topics=topics, start_ns=start_ns, end_ns=end_ns,
        flight_dump=getattr(args, "flight_dump", None),
        drop_burst_count=getattr(args, "drop_burst_count", 32),
        timeline=bool(getattr(args, "timeline_csv", None)))


def _finish_telemetry(session: TelemetrySession, args) -> None:
    """Close the session and report what the collectors produced."""
    session.close()
    if session.recorder is not None:
        print(f"wrote {args.trace_out} "
              f"({session.recorder.records_written} records)")
    if session.timeline is not None:
        prefix = args.timeline_csv
        for port in session.timeline.ports():
            path = f"{prefix}.{port}.thresholds.csv"
            rows = write_threshold_series_csv(path, session.timeline, port)
            print(f"wrote {path} ({rows} rows)")
            if session.timeline.steal_moves(port):
                path = f"{prefix}.{port}.steals.csv"
                write_steal_matrix_csv(path, session.timeline, port)
                print(f"wrote {path}")


def _report_partial(completed, schemes) -> None:
    """Print what survived an aborted multi-scheme run."""
    print(f"\naborted after {len(completed)}/{len(schemes)} schemes")
    for result in completed:
        samples = getattr(result, "samples", None)
        extra = f" ({len(samples)} samples)" if samples is not None else ""
        print(f"  completed: {getattr(result, 'scheme', result)}{extra}")


def _run_traced(args, run_one):
    """Run ``run_one(scheme, trace, snapshot)`` per scheme in one session.

    An abort (simulation error, watchdog trip, Ctrl-C) reports the
    schemes that *did* finish before re-raising; the telemetry session's
    exit hook has already dumped the flight recorder at that point.
    """
    with _diagnosis_session(args):
        session = _telemetry_session(args)
        trace = session.trace if session.active else None
        completed = []
        try:
            with session:
                for name in args.schemes:
                    completed.append(run_one(
                        name, trace,
                        _snapshot_policy(args, name, len(args.schemes))))
                return completed
        except (SimulationError, KeyboardInterrupt):
            _report_partial(completed, args.schemes)
            raise
        finally:
            _finish_telemetry(session, args)


def _load_faults(args) -> Optional[FaultSchedule]:
    path = getattr(args, "faults", None)
    return FaultSchedule.from_file(path) if path else None


# -- queue-diagnosis plumbing -------------------------------------------------

@contextmanager
def _diagnosis_session(args):
    """Arm per-packet queue diagnosis for a serial run (may be inert).

    Flips the ``queue_diagnosis`` perf switch on for components built
    inside the block, installs a capture that the end-of-run hook in
    :func:`repro.snapshot.world.run_world` feeds, and writes the dump on
    the way out — including after a partial run (kill drill, simulation
    error), so a crashed experiment still leaves evidence for ``repro
    diagnose``.
    """
    out = getattr(args, "diagnose_out", None)
    if not out:
        yield None
        return
    if _parallel_requested(args):
        raise ConfigurationError(
            "--diagnose-out captures sketches in-process, so it needs a "
            "serial run; drop --jobs/--resume/--checkpoint, or dispatch "
            "repro.diagnosis.jobs targets through the executor instead "
            "(see docs/observability.md)")
    from .diagnosis import (
        SketchSettings,
        capture_diagnosis,
        write_diagnosis,
    )
    window_s = getattr(args, "diagnose_window", None)
    settings = (SketchSettings(window_ns=seconds(window_s))
                if window_s else None)
    previous = set_config(active_config().clone(queue_diagnosis=True))
    try:
        with capture_diagnosis(settings) as capture:
            try:
                yield capture
            finally:
                document = write_diagnosis(out, capture)
                print(f"wrote {out} ({len(document['ports'])} port(s), "
                      f"{capture.worlds_collected} run(s))")
    finally:
        set_config(previous)


def _reject_parallel_diagnosis(args) -> None:
    """Worker-pool branches cannot capture in-process sketches."""
    if getattr(args, "diagnose_out", None):
        raise ConfigurationError(
            "--diagnose-out needs a serial run (worker processes cannot "
            "feed the in-process capture); drop --jobs/--resume/"
            "--checkpoint, or dispatch repro.diagnosis.jobs targets "
            "through the executor (see docs/observability.md)")


# -- snapshot plumbing --------------------------------------------------------

def _snapshot_requested(args) -> bool:
    return bool(getattr(args, "snapshot_every", None)
                or getattr(args, "restore", None)
                or getattr(args, "snapshot_kill_after", None)
                or getattr(args, "triage_dir", None))


def _snapshot_policy(args, label: str,
                     total: int) -> Optional[SnapshotPolicy]:
    """The :class:`SnapshotPolicy` for one run of a multi-run command.

    ``label`` disambiguates ``--snapshot-out`` when the command drives
    more than one simulation (one per scheme, or per scheme-load point);
    ``--restore`` resumes exactly one simulation, so it rejects
    invocations that would run several.
    """
    if not _snapshot_requested(args):
        return None
    out = args.snapshot_out
    if out is not None and total > 1:
        out = f"{out}.{label}"
    if args.restore is not None and total > 1:
        raise ConfigurationError(
            f"--restore resumes exactly one run, but this invocation "
            f"would run {total}; narrow the sweep to a single point")
    return SnapshotPolicy(
        every_ns=seconds(args.snapshot_every) if args.snapshot_every
        else None,
        out=out, restore=args.restore,
        halt_after_saves=args.snapshot_kill_after,
        triage_dir=args.triage_dir)


def _parallel_autosave_ns(args) -> Optional[int]:
    """Worker autosave cadence; rejects serial-only snapshot flags.

    Parallel sweeps autosave per job into ``<checkpoint>.autosaves/``
    and resume crashed workers automatically; explicit snapshot files,
    kill drills, and ``--restore`` are single-serial-run tools.
    """
    serial_only = [flag for flag, value in [
        ("--snapshot-out", args.snapshot_out),
        ("--restore", args.restore),
        ("--snapshot-kill-after", args.snapshot_kill_after),
        ("--triage-dir", args.triage_dir)] if value is not None]
    if serial_only:
        raise ConfigurationError(
            f"{', '.join(serial_only)} apply to a single serial run; "
            "parallel sweeps autosave per job next to the checkpoint "
            "(--snapshot-every) and resume with --resume")
    if args.snapshot_every is None:
        return None
    return seconds(args.snapshot_every)


# -- parallel execution plumbing ----------------------------------------------

def _parallel_requested(args) -> bool:
    """True when the run should go through the worker-pool executor.

    ``--jobs 1`` without ``--resume``/``--checkpoint`` keeps the plain
    serial code path (its output is byte-identical anyway, but the
    serial path also supports things workers cannot, e.g. per-packet
    tracing into ``--trace-out``).
    """
    return (getattr(args, "jobs", 1) != 1
            or getattr(args, "resume", False)
            or getattr(args, "checkpoint", None) is not None)


def _checkpoint_path(args) -> str:
    return (getattr(args, "checkpoint", None)
            or f"repro-{args.command}.checkpoint.jsonl")


def _print_failures(failures) -> bool:
    """Report failed sweep points; True when there were any."""
    for line in report.failure_lines(failures):
        print(line)
    return bool(failures)


def _cmd_list_schemes(args) -> int:
    for name in scheme_names():
        print(name)
    return 0


def _cmd_workloads(args) -> int:
    print("workload".ljust(14) + "mean(KB)".rjust(10)
          + "median(B)".rjust(11) + "p99(MB)".rjust(9))
    for name in workload_names():
        cdf = workload(name)
        print(name.ljust(14)
              + f"{cdf.mean_bytes() / 1e3:.0f}".rjust(10)
              + f"{cdf.inverse(0.5)}".rjust(11)
              + f"{cdf.inverse(0.99) / 1e6:.1f}".rjust(9))
    return 0


def _cmd_hw_cost(args) -> int:
    for row in cost_table():
        print(f"{row['queues']} queues: {row['total_cycles']} cycles "
              f"({row['trident3_overhead_pct']:.2f}% of a Trident 3 "
              f"packet budget)")
    return 0


def _cmd_convergence(args) -> int:
    faults = _load_faults(args)
    results = _run_traced(args, lambda name, trace, snap: run_convergence(
        name, duration_s=args.duration,
        sample_interval_s=args.duration / 10, trace=trace, faults=faults,
        snapshot=snap))
    print(report.timeseries_table(
        results, title="Throughput convergence (2 vs 16 flows)",
        queues=[0, 1]))
    _maybe_export(results, args.csv)
    return 0


def _cmd_motivation(args) -> int:
    faults = _load_faults(args)
    results = _run_traced(args, lambda name, trace, snap: run_motivation(
        name, duration_s=args.duration,
        sample_interval_s=args.duration / 8, trace=trace, faults=faults,
        snapshot=snap))
    print(report.throughput_table(
        results, title="Motivation: 1-sender queue vs 3-sender queue"))
    _maybe_export(results, args.csv)
    return 0


def _cmd_fair_sharing(args) -> int:
    faults = _load_faults(args)
    results = _run_traced(args, lambda name, trace, snap: run_fair_sharing(
        name, time_unit_s=args.time_unit,
        sample_interval_s=args.time_unit / 4, trace=trace, faults=faults,
        snapshot=snap))
    print(report.timeseries_table(
        results, title="Fair sharing with staggered queue stops",
        queues=[0, 1, 2, 3]))
    _maybe_export(results, args.csv)
    return 0


def _cmd_weighted(args) -> int:
    weights = _split_floats(args.weights)
    faults = _load_faults(args)
    results = _run_traced(
        args, lambda name, trace, snap: run_weighted_sharing(
            name, weights=weights, duration_s=args.duration,
            sample_interval_s=args.duration / 10, trace=trace,
            faults=faults, snapshot=snap))
    total = sum(weights)
    print(report.share_table(
        results, title=f"Throughput shares, weights {args.weights}",
        ideal=[weight / total for weight in weights]))
    _maybe_export(results, args.csv)
    return 0


def _cmd_protocol_mix(args) -> int:
    faults = _load_faults(args)
    results = _run_traced(args, lambda name, trace, snap: run_protocol_mix(
        name, time_unit_s=args.time_unit,
        sample_interval_s=args.time_unit / 4, trace=trace, faults=faults,
        snapshot=snap))
    print(report.timeseries_table(
        results, title="TCP (q1-2) vs CUBIC (q3-4)", queues=[0, 1, 2, 3]))
    _maybe_export(results, args.csv)
    return 0


def _cmd_fct(args) -> int:
    failures = []
    loads = _split_floats(args.loads)
    with _diagnosis_session(args):
        session = _telemetry_session(args)
        trace = session.trace if session.active else None
        try:
            with session:
                if _parallel_requested(args):
                    results, failures = parallel_fct_sweep(
                        args.schemes, loads,
                        num_flows=args.flows, workload=args.workload,
                        truncate_mb=args.truncate_mb, seed=args.seed,
                        jobs=args.jobs, retries=args.retries,
                        checkpoint=_checkpoint_path(args),
                        resume=args.resume, trace=trace,
                        autosave_every_ns=_parallel_autosave_ns(args))
                else:
                    distribution = workload(args.workload)
                    if args.truncate_mb:
                        distribution = distribution.truncated(
                            int(args.truncate_mb * 1_000_000))
                    if _snapshot_requested(args):
                        # Snapshots are per simulation, so drive the
                        # (scheme, load) grid point by point.
                        points = len(args.schemes) * len(loads)
                        results = {
                            name: [run_fct_experiment(
                                name, load=load, num_flows=args.flows,
                                distribution=distribution, seed=args.seed,
                                trace=trace,
                                snapshot=_snapshot_policy(
                                    args, f"{name}@{load:g}", points))
                                for load in loads]
                            for name in args.schemes}
                    else:
                        results = fct_load_sweep(
                            args.schemes, loads,
                            num_flows=args.flows, distribution=distribution,
                            seed=args.seed, trace=trace)
        finally:
            _finish_telemetry(session, args)
    for metric, label in [("avg_overall_ms", "overall"),
                          ("avg_small_ms", "small"),
                          ("p99_small_ms", "p99 small")]:
        print(report.fct_matrix(
            results, metric=metric, baseline_scheme=args.schemes[0],
            title=f"avg FCT {label} (normalised to {args.schemes[0]})"))
        print()
    print(report.fct_absolute_table(results, title="absolute FCTs (ms)"))
    if args.csv:
        for name, scheme_results in results.items():
            for result in scheme_results:
                path = f"{args.csv}.{name}.{result.load:.2f}.csv"
                write_fct_csv(path, result.collector.records)
                print(f"wrote {path}")
    return 1 if _print_failures(failures) else 0


def _cmd_incast(args) -> int:
    from .experiments.incast import run_incast
    print(f"{args.workers}-worker incast into a loaded 1 GbE port")
    print("scheme".ljust(14) + "QCT(ms)".rjust(9) + "mean(ms)".rjust(10)
          + "timeouts".rjust(10))
    failures = []
    if _parallel_requested(args):
        _reject_parallel_diagnosis(args)
        session = _telemetry_session(args)
        trace = session.trace if session.active else None
        try:
            with session:
                outcomes = parallel_incast_runs(
                    args.schemes, num_workers=args.workers,
                    horizon_s=args.horizon, jobs=args.jobs,
                    retries=args.retries,
                    checkpoint=_checkpoint_path(args),
                    resume=args.resume, trace=trace,
                    autosave_every_ns=_parallel_autosave_ns(args))
        finally:
            _finish_telemetry(session, args)
        results = [outcome.value for outcome in outcomes if outcome.ok]
        failures = [outcome for outcome in outcomes if not outcome.ok]
    else:
        results = _run_traced(args, lambda name, trace, snap: run_incast(
            name, num_workers=args.workers, horizon_s=args.horizon,
            trace=trace, snapshot=snap))
    for result in results:
        qct = (f"{result.query_completion_ms:.1f}"
               if result.query_completion_ms is not None else "-")
        mean = (f"{result.mean_fct_ms:.1f}"
                if result.mean_fct_ms is not None else "-")
        print(result.scheme.ljust(14) + qct.rjust(9) + mean.rjust(10)
              + str(result.timeouts).rjust(10))
    return 1 if _print_failures(failures) else 0


def _cmd_static_sim(args) -> int:
    failures = []
    if _parallel_requested(args):
        _reject_parallel_diagnosis(args)
        session = _telemetry_session(args)
        trace = session.trace if session.active else None
        try:
            with session:
                outcomes = parallel_static_runs(
                    args.schemes, rate=args.rate, num_queues=args.queues,
                    first_stop_ms=args.first_stop_ms,
                    stop_step_ms=args.stop_step_ms,
                    duration_ms=args.duration_ms,
                    sample_interval_ms=args.sample_ms, jobs=args.jobs,
                    retries=args.retries,
                    checkpoint=_checkpoint_path(args),
                    resume=args.resume, trace=trace,
                    autosave_every_ns=_parallel_autosave_ns(args))
        finally:
            _finish_telemetry(session, args)
        results = [outcome.value for outcome in outcomes if outcome.ok]
        failures = [outcome for outcome in outcomes if not outcome.ok]
    else:
        config = SIM_100G if args.rate == "100g" else SIM_10G
        results = _run_traced(args, lambda name, trace, snap: run_static_sim(
            name, config=config, num_queues=args.queues,
            senders_for_queue=lambda k: 2 * k,
            first_stop_ms=args.first_stop_ms,
            stop_step_ms=args.stop_step_ms,
            duration_ms=args.duration_ms,
            sample_interval_ms=args.sample_ms, trace=trace,
            snapshot=snap))
    per_scheme = {result.scheme: result for result in results}
    print(report.fairness_table(
        {name: result.fairness_series()
         for name, result in per_scheme.items()},
        title=f"Jain fairness between active queues ({args.rate})"))
    print()
    print("aggregate throughput (Gbps):")
    for name, result in per_scheme.items():
        series = " ".join(f"{value / 1e9:.1f}"
                          for value in result.aggregate_series())
        print(f"{name:<14}{series}")
    return 1 if _print_failures(failures) else 0


def _chaos_culprit_lines(capture, top: int = 3) -> List[str]:
    """Per-victim culprit table for the chaos report.

    For every diagnosed port: the worst-queueing-delay flow and the
    flows that filled its queue during its worst interval.
    """
    from .diagnosis.query import DiagnosisQuery

    query = DiagnosisQuery(capture.as_dict())
    lines: List[str] = []
    for label in query.labels():
        victims = query.victims(selector=label, top=1)
        if not victims:
            continue
        victim = victims[0]
        culprit_report = query.culprits(victim["flow"], selector=label,
                                        top=top)
        total = culprit_report["total_bytes"]
        bits = []
        for flow, size in culprit_report["rows"]:
            share = f"{100 * size / total:.0f}%" if total else "-"
            marker = "*" if flow == victim["flow"] else ""
            bits.append(f"flow {flow}{marker} {share}")
        delay_ms = victim["max_delay_ns"] / 1e6
        lines.append(
            f"  {label}: victim flow {victim['flow']} "
            f"(queue {culprit_report['queue']}, "
            f"max delay {delay_ms:.3f} ms) <- "
            + (", ".join(bits) if bits else "no enqueues in window"))
    if lines:
        lines = ["queue diagnosis (victim -> culprit fill, "
                 "* marks self-inflicted):"] + lines
    return lines


def _cmd_chaos(args) -> int:
    schedule = FaultSchedule.from_file(args.faults)
    with _diagnosis_session(args) as capture:
        session = _telemetry_session(args)
        trace = session.trace if session.active else None
        parallel = _parallel_requested(args)
        snapshot = autosave_ns = None
        if parallel:
            autosave_ns = _parallel_autosave_ns(args)
        elif _snapshot_requested(args):
            if len(args.schemes) > 1:
                raise ConfigurationError(
                    "chaos snapshots drive one scheme at a time; narrow "
                    "--schemes to one (or use --jobs with "
                    "--snapshot-every)")
            snapshot = _snapshot_policy(args, args.schemes[0], 1)
        try:
            with session:
                outcomes = run_chaos_sweep(
                    args.schemes, schedule, seed=args.seed,
                    retries=args.retries, num_queues=args.queues,
                    flows_per_queue=args.flows_per_queue,
                    duration_s=args.duration,
                    sample_interval_s=args.duration / 20,
                    wall_budget_s=args.wall_budget, trace=trace,
                    jobs=args.jobs,
                    checkpoint=_checkpoint_path(args) if parallel
                    else None,
                    resume=args.resume, snapshot=snapshot,
                    autosave_every_ns=autosave_ns)
        finally:
            _finish_telemetry(session, args)
        print(f"chaos: schedule {schedule.name!r} ({len(schedule)} "
              f"events) across {len(args.schemes)} scheme(s)")
        print("scheme".ljust(16) + "inj".rjust(4) + "rec".rjust(4)
              + "viol".rjust(6) + "J(pre)".rjust(8) + "J(fault)".rjust(9)
              + "J(post)".rjust(8) + "  status")
        failed = False
        for outcome in outcomes:
            if not outcome.ok:
                failed = True
                print(outcome.scheme.ljust(16)
                      + f"failed after {outcome.attempts} attempt(s): "
                      + str(outcome.error))
                continue
            result: ChaosResult = outcome.result
            status = ("ok" if outcome.attempts == 1
                      else f"ok (attempt {outcome.attempts})")
            if result.aborted is not None:
                failed = True
                status = f"aborted: {result.aborted}"
            if result.violations:
                failed = True
                status = "INVARIANT VIOLATED"
            print(result.scheme.ljust(16)
                  + str(result.injected).rjust(4)
                  + str(result.recovered).rjust(4)
                  + str(result.violations).rjust(6)
                  + f"{result.jain_before:.3f}".rjust(8)
                  + f"{result.jain_during:.3f}".rjust(9)
                  + f"{result.jain_after:.3f}".rjust(8)
                  + f"  {status}")
            if result.triage_bundle is not None:
                print(f"{'':16}triage bundle: {result.triage_bundle}")
        if capture is not None and capture.ports:
            for line in _chaos_culprit_lines(capture):
                print(line)
        _maybe_export([outcome.result.result for outcome in outcomes
                       if outcome.ok and outcome.result.result is not None],
                      args.csv)
        # Non-zero on any violation or abort: CI gates on this exit code.
        return 1 if failed else 0


def _cmd_competitive(args) -> int:
    # Fail fast on typo'd adversary names — before the telemetry session
    # opens and before run_competitive fans out any workers — so the
    # user sees the sorted valid-adversary list, mirroring the scheme
    # check.  run_competitive re-validates, but only after the session
    # (and its trace file) would already exist.
    for name in args.adversaries:
        adversary(name)
    session = _telemetry_session(args)
    trace = session.trace if session.active else None
    parallel = _parallel_requested(args)
    try:
        with session:
            grid = run_competitive(
                args.policies, args.adversaries, args.buffer_sizes,
                num_queues=args.queues, horizon=args.horizon,
                rounds=args.rounds, seed=args.seed, jobs=args.jobs,
                retries=args.retries,
                checkpoint=_checkpoint_path(args) if parallel else None,
                resume=args.resume, trace=trace)
    finally:
        _finish_telemetry(session, args)
    for line in report_lines(grid, lqd_limit=args.lqd_limit):
        print(line)
    if args.out:
        payload = {
            "policies": grid.policies,
            "adversaries": grid.adversaries,
            "buffer_sizes": grid.buffer_sizes,
            "lqd_limit": args.lqd_limit,
            "cells": grid.cells,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out} ({len(grid.cells)} cells)")
    # CI gates on this exit code: LQD above its proven guarantee means
    # the arena or the bound regressed, not that LQD got worse.
    if "lqd" in grid.policies and grid.violations("lqd", args.lqd_limit):
        return 1
    return 0


def _cmd_soak(args) -> int:
    from .soak import SoakScenario, run_case, run_soak, write_verdicts

    if args.replay:
        # Replay one scenario file (typically a triage bundle's
        # minimal.json) and print its verdict — the one-command
        # reproduction line every bundle's REPLAY.txt names.
        scenario = SoakScenario.from_file(args.replay)
        verdict = run_case(scenario)
        print(json.dumps(verdict, indent=2, sort_keys=True))
        return EXIT_OK if verdict["status"] == "ok" else EXIT_FAILURE

    session = _telemetry_session(args)
    trace = session.trace if session.active else None
    parallel = _parallel_requested(args)
    try:
        with session:
            soak = run_soak(
                args.seed, args.iterations, jobs=args.jobs,
                retries=args.retries,
                checkpoint=_checkpoint_path(args) if parallel else None,
                resume=args.resume, trace=trace,
                triage_dir=args.triage_dir, drill=args.drill)
    finally:
        _finish_telemetry(session, args)

    print("case".ljust(14) + "scheme".ljust(13) + "torture".ljust(18)
          + "checks".rjust(7) + "  status")
    for verdict in soak.verdicts:
        line = (verdict["digest"].ljust(14) + verdict["scheme"].ljust(13)
                + verdict["torture"].ljust(18)
                + str(verdict["checks"]).rjust(7)
                + f"  {verdict['status']}")
        if verdict["detail"]:
            line += f"  ({verdict['detail'][:60]})"
        print(line)
    if args.out:
        write_verdicts(args.out, soak.verdicts)
        print(f"wrote {args.out} ({len(soak.verdicts)} verdicts)")
    for bundle in soak.bundles:
        print(f"triage bundle: {bundle}")
    failures = soak.failures
    if failures:
        print(f"\nSOAK FAILURES: {len(failures)}/{len(soak.verdicts)} "
              "cases failed")
        return EXIT_FAILURE
    print(f"\nsoak clean: {len(soak.verdicts)} cases, "
          f"{sum(v['checks'] for v in soak.verdicts)} invariant sweeps")
    return EXIT_OK


def _cmd_profile(args) -> int:
    sim = Simulator()
    profiler = RunProfiler()
    profiler.attach(sim)
    try:
        run_scenario(args.scenario, args.scheme,
                     duration_s=args.duration, sim=sim)
    finally:
        profiler.detach()
    print(report.profile_table(
        profiler, title=f"profile: {args.scenario} ({args.scheme})",
        top=args.top))
    return 0


def _parse_ns_window(text: str) -> Tuple[Optional[int], Optional[int]]:
    start_text, sep, end_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            "--window expects START:END nanoseconds (either side may be "
            "empty)")
    start = int(start_text) if start_text else None
    end = int(end_text) if end_text else None
    return start, end


def _cmd_diagnose(args) -> int:
    from .diagnosis import load_diagnosis
    from .diagnosis import query as diag_query

    query = diag_query.DiagnosisQuery(load_diagnosis(args.dump))
    drop_counts = (diag_query.trace_drop_counts(args.join_trace)
                   if args.join_trace else None)
    fct_rows = (diag_query.load_fct_csv(args.join_fct)
                if args.join_fct else None)
    victim = args.victim_flow
    fct_ms = None
    if args.victim_percentile is not None:
        if fct_rows is None:
            raise ConfigurationError(
                "--victim-percentile selects the victim from an FCT "
                "export; add --join-fct CSV (written by `repro fct "
                "--csv PREFIX`)")
        victim, fct_ms = diag_query.percentile_victim(
            fct_rows, args.victim_percentile)
    elif victim is not None and fct_rows is not None:
        fct_ms = next((fct for flow, fct, _size in fct_rows
                       if flow == victim), None)
    start_ns, end_ns = args.window if args.window else (None, None)
    lines: List[str] = []
    if victim is not None:
        culprit_report = query.culprits(victim, selector=args.port,
                                        top=args.top)
        lines.extend(diag_query.render_culprits(
            query, culprit_report, drop_counts=drop_counts,
            fct_ms=fct_ms))
        timeline_port = culprit_report["label"].split("/", 1)[-1]
        timeline_span = (culprit_report["start_ns"],
                         culprit_report["end_ns"])
    elif (args.window is not None or args.queue is not None
            or args.port is not None):
        label = query.single_port(args.port)
        lines.extend(diag_query.render_fill(
            query, label, queue=args.queue, start_ns=start_ns,
            end_ns=end_ns, top=args.top, drop_counts=drop_counts))
        timeline_port = label.split("/", 1)[-1]
        timeline_span = (start_ns, end_ns)
    else:
        lines.extend(diag_query.render_summary(query, top=args.top))
        timeline_port = None
        timeline_span = (None, None)
    if args.join_timeline:
        if timeline_port is None:
            timeline_port = query.single_port(args.port).split("/", 1)[-1]
        rows = diag_query.timeline_rows(
            args.join_timeline, timeline_port,
            start_ns=timeline_span[0], end_ns=timeline_span[1])
        lines.append(f"threshold timeline ({args.join_timeline}."
                     f"{timeline_port}.thresholds.csv):")
        if rows:
            lines.extend(f"  {row}" for row in rows)
        else:
            lines.append("  (no rows in the window; was the run driven "
                         "with --timeline-csv?)")
    print("\n".join(lines))
    return 0


# -- serving ------------------------------------------------------------------

def _cmd_serve(args) -> int:
    """Run the job-queue daemon until a SIGTERM drain completes."""
    import asyncio

    from .serve import ServeConfig, ServeDaemon
    from .sim.trace import TOPIC_SERVE_JOB, TraceBus

    trace = TraceBus()
    if not args.quiet:
        trace.subscribe(TOPIC_SERVE_JOB,
                        lambda **payload: print(
                            f"serve: {payload.get('detail', '')}",
                            flush=True))
    recorder = None
    if args.trace_out:
        from .telemetry.recorder import TraceRecorder
        from .telemetry.sinks import JsonlSink
        recorder = TraceRecorder(trace, JsonlSink(args.trace_out),
                                 topics=(TOPIC_SERVE_JOB,))
    config = ServeConfig(
        socket_path=args.socket, wal=args.wal, jobs=args.jobs,
        retries=args.retries, max_queue=args.max_queue,
        max_per_client=args.max_per_client,
        heartbeat_every_s=args.heartbeat,
        heartbeat_timeout_s=args.heartbeat_timeout,
        job_deadline_s=args.job_deadline, backoff_s=args.backoff,
        drain_timeout_s=args.drain_timeout,
        autosave_every_ns=(seconds(args.snapshot_every)
                           if args.snapshot_every else None),
        drill=args.drill, drill_interval_s=args.drill_interval,
        drill_seed=args.drill_seed)
    daemon = ServeDaemon(config, trace=trace)
    try:
        return asyncio.run(daemon.run())
    finally:
        if recorder is not None:
            recorder.close()
            print(f"wrote {args.trace_out} "
                  f"({recorder.records_written} records)")


def _load_job_params(text: str) -> Dict[str, Any]:
    """``--params``: inline JSON object, ``@file``, or ``-`` for stdin."""
    if text == "-":
        raw = sys.stdin.read()
    elif text.startswith("@"):
        with open(text[1:]) as handle:
            raw = handle.read()
    else:
        raw = text
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--params is not valid JSON: {exc}")
    if not isinstance(params, dict):
        raise ConfigurationError("--params must be a JSON object")
    return params


def _print_response(response: Dict[str, Any]) -> None:
    print(json.dumps(response, sort_keys=True))


def _cmd_submit(args) -> int:
    from .serve import STATUS_ACCEPTED, STATUS_OK, ServeClient

    client = ServeClient(args.socket, timeout=args.timeout)
    response = client.submit(args.kind, _load_job_params(args.params),
                             seed=args.seed, client=args.client,
                             wait=args.wait)
    _print_response(response)
    ok = response.get("status") in (STATUS_ACCEPTED, STATUS_OK)
    return EXIT_OK if ok else EXIT_FAILURE


def _cmd_jobs(args) -> int:
    from .serve import ServeClient

    response = ServeClient(args.socket, timeout=args.timeout).jobs()
    jobs = response.get("jobs", [])
    if not jobs:
        print("no jobs")
        return EXIT_OK
    print("key".ljust(34) + "state".ljust(9) + "att".rjust(4)
          + "  client")
    for job in jobs:
        print(str(job.get("key", "")).ljust(34)
              + str(job.get("state", "")).ljust(9)
              + str(job.get("attempts", 0)).rjust(4)
              + f"  {job.get('client', '')}")
    return EXIT_OK


def _cmd_result(args) -> int:
    from .serve import STATUS_OK, ServeClient

    client = ServeClient(args.socket, timeout=args.timeout)
    response = client.result(args.key, wait=args.wait)
    _print_response(response)
    return EXIT_OK if response.get("status") == STATUS_OK else EXIT_FAILURE


def _cmd_trace_validate(args) -> int:
    try:
        count, errors = validate_trace_file(args.path,
                                            max_errors=args.max_errors)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc.strerror}")
        return 1
    print(f"{args.path}: {count} records")
    if not errors:
        print("OK")
        return 0
    for error in errors:
        print(f"error: {error}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DynaQ reproduction: run the paper's experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-schemes").set_defaults(func=_cmd_list_schemes)
    sub.add_parser("workloads").set_defaults(func=_cmd_workloads)
    sub.add_parser("hw-cost").set_defaults(func=_cmd_hw_cost)

    def add_common(p, default_schemes="dynaq,besteffort,pql"):
        p.add_argument("--schemes", type=_split_schemes,
                       default=_split_schemes(default_schemes))
        p.add_argument("--csv", default=None,
                       help="export series to CSV files with this prefix")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record a structured JSONL event trace")
        p.add_argument("--trace-topics", default=None, metavar="T1,T2",
                       help="restrict the trace to these topics")
        p.add_argument("--trace-window", type=_parse_window, default=None,
                       metavar="START:END",
                       help="only record events inside [START, END] ns")
        p.add_argument("--flight-dump", default=None, metavar="PATH",
                       help="arm the flight recorder; dump last events "
                            "here on drop bursts or errors")
        p.add_argument("--drop-burst-count", type=int, default=32,
                       help="drops per ms that count as a burst anomaly")
        p.add_argument("--timeline-csv", default=None, metavar="PREFIX",
                       help="export per-port threshold/steal series to "
                            "PREFIX.<port>.*.csv")
        p.add_argument("--diagnose-out", default=None, metavar="PATH",
                       help="maintain per-packet queue-diagnosis "
                            "sketches and write the dump here (serial "
                            "runs only; query with `repro diagnose`)")
        p.add_argument("--diagnose-window", type=float, default=None,
                       metavar="SECONDS",
                       help="diagnosis sketch window width "
                            "(default 0.001 s)")

    def add_faults(p):
        p.add_argument("--faults", default=None, metavar="PATH",
                       help="inject faults from this JSON schedule "
                            "(see docs/robustness.md)")

    def add_snapshot(p):
        p.add_argument("--snapshot-every", type=float, default=None,
                       metavar="SECONDS",
                       help="autosave an in-flight snapshot every so "
                            "many simulated seconds (serial runs need "
                            "--snapshot-out; parallel runs save per job "
                            "next to the checkpoint file)")
        p.add_argument("--snapshot-out", default=None, metavar="PATH",
                       help="snapshot file; each autosave atomically "
                            "replaces it (multi-scheme runs write "
                            "PATH.<scheme>)")
        p.add_argument("--restore", default=None, metavar="PATH",
                       help="resume one run from a snapshot instead of "
                            "starting at t=0 (the restored world keeps "
                            "its own telemetry sinks, so --trace-out "
                            "and friends are ignored)")
        p.add_argument("--snapshot-kill-after", type=int, default=None,
                       metavar="N",
                       help="crash drill: exit 3 right after the Nth "
                            "autosave; a restored run never re-trips "
                            "(see docs/robustness.md)")
        p.add_argument("--triage-dir", default=None, metavar="DIR",
                       help="on a watchdog trip or simulation error, "
                            "write a triage bundle (snapshot + flight "
                            "dump + profile) into this directory")

    def add_parallel(p, retries=None):
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run sweep points in N crash-isolated worker "
                            "processes (output stays byte-identical to "
                            "--jobs 1; see docs/parallel.md)")
        p.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="checkpoint file for finished points "
                            "(default repro-<command>.checkpoint.jsonl "
                            "when the parallel executor is active)")
        p.add_argument("--resume", action="store_true",
                       help="replay finished points from the checkpoint "
                            "file instead of re-running them")
        if retries is not None:
            p.add_argument("--retries", type=int, default=retries,
                           help="re-runs with a derived seed after a "
                                "simulation error or worker death")

    p = sub.add_parser("convergence", help="Fig. 3 scenario")
    add_common(p)
    add_faults(p)
    add_snapshot(p)
    p.add_argument("--duration", type=float, default=0.5)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("motivation", help="Fig. 1 scenario")
    add_common(p, default_schemes="besteffort,dynaq")
    add_faults(p)
    add_snapshot(p)
    p.add_argument("--duration", type=float, default=0.5)
    p.set_defaults(func=_cmd_motivation)

    p = sub.add_parser("fair-sharing", help="Fig. 5 scenario")
    add_common(p)
    add_faults(p)
    add_snapshot(p)
    p.add_argument("--time-unit", type=float, default=0.12)
    p.set_defaults(func=_cmd_fair_sharing)

    p = sub.add_parser("weighted", help="Fig. 6 scenario")
    add_common(p)
    add_faults(p)
    add_snapshot(p)
    p.add_argument("--weights", default="4,3,2,1")
    p.add_argument("--duration", type=float, default=0.5)
    p.set_defaults(func=_cmd_weighted)

    p = sub.add_parser("protocol-mix", help="Fig. 7 scenario")
    add_common(p, default_schemes="dynaq")
    add_faults(p)
    add_snapshot(p)
    p.add_argument("--time-unit", type=float, default=0.12)
    p.set_defaults(func=_cmd_protocol_mix)

    p = sub.add_parser(
        "chaos", help="replay a fault schedule, report isolation "
                      "degradation and invariant violations")
    add_common(p, default_schemes="dynaq")
    p.add_argument("--scheme", dest="schemes", type=_split_schemes,
                   help="alias for --schemes")
    p.add_argument("--faults", required=True, metavar="PATH",
                   help="JSON fault schedule (see docs/robustness.md)")
    p.add_argument("--queues", type=int, default=4)
    p.add_argument("--flows-per-queue", type=int, default=4)
    p.add_argument("--duration", type=float, default=0.4,
                   help="measured window in seconds (stretched to cover "
                        "the schedule)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--retries", type=int, default=1,
                   help="re-runs with a derived seed after a "
                        "simulation error")
    p.add_argument("--wall-budget", type=float, default=120.0,
                   help="abort a scheme's run after this many real "
                        "seconds (partial metrics are kept)")
    add_parallel(p)
    add_snapshot(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("fct", help="Figs. 8-9 scenario")
    add_common(p, default_schemes="dynaq,besteffort,pql")
    p.add_argument("--loads", default="0.3,0.5")
    p.add_argument("--flows", type=int, default=120)
    p.add_argument("--workload", default="web_search",
                   choices=workload_names())
    p.add_argument("--truncate-mb", type=float, default=12.0,
                   help="clip the flow-size tail (0 = no clipping)")
    p.add_argument("--seed", type=int, default=1)
    add_parallel(p, retries=0)
    add_snapshot(p)
    p.set_defaults(func=_cmd_fct)

    p = sub.add_parser("incast", help="microburst query-completion time")
    add_common(p, default_schemes="besteffort,pql,dynaq,dynaq-evict")
    p.add_argument("--workers", type=int, default=16)
    p.add_argument("--horizon", type=float, default=2.5)
    add_parallel(p, retries=0)
    add_snapshot(p)
    p.set_defaults(func=_cmd_incast)

    p = sub.add_parser("static-sim", help="Figs. 10-12 scenario")
    add_common(p, default_schemes="dynaq,pql")
    p.add_argument("--rate", choices=["10g", "100g"], default="10g")
    p.add_argument("--queues", type=int, default=8)
    p.add_argument("--first-stop-ms", type=float, default=50.0)
    p.add_argument("--stop-step-ms", type=float, default=12.0)
    p.add_argument("--duration-ms", type=float, default=160.0)
    p.add_argument("--sample-ms", type=float, default=5.0)
    add_parallel(p, retries=0)
    add_snapshot(p)
    p.set_defaults(func=_cmd_static_sim)

    p = sub.add_parser(
        "competitive",
        help="empirical competitive ratios: every policy against "
             "adversarial arrival patterns vs a clairvoyant bound "
             "(see docs/competitive.md)")
    p.add_argument("--policies", type=_split_schemes,
                   default=list(DEFAULT_POLICIES))
    p.add_argument("--adversaries", type=_split_schemes,
                   default=adversary_names())
    p.add_argument("--buffer-sizes", type=_split_ints, default=[16, 32, 64],
                   metavar="B1,B2", help="shared buffer sizes in cells")
    p.add_argument("--queues", type=int, default=4,
                   help="output ports sharing the buffer")
    p.add_argument("--rounds", type=int, default=3,
                   help="arena runs per grid cell (the random adversary "
                        "re-seeds each round)")
    p.add_argument("--horizon", type=int, default=0,
                   help="arrival slots per round (0 = each adversary's "
                        "own default)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--lqd-limit", type=float, default=1.5,
                   help="fail (exit 1) if LQD's measured ratio exceeds "
                        "this; 1.5 is its proven guarantee")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the full report grid as JSON")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record competitive.round events as JSONL")
    p.add_argument("--trace-topics", default=None, metavar="T1,T2",
                   help="restrict the trace to these topics")
    p.add_argument("--trace-window", type=_parse_window, default=None,
                   metavar="START:END",
                   help="only record events inside [START, END] ns")
    add_parallel(p, retries=0)
    p.set_defaults(func=_cmd_competitive)

    p = sub.add_parser(
        "soak",
        help="randomized chaos soak: generated fault/perf/torture "
             "scenarios under a central invariant engine, failures "
             "minimized to replayable bundles (see docs/robustness.md)")
    p.add_argument("--seed", type=int, default=1,
                   help="master seed; the case list is a pure function "
                        "of (seed, iterations)")
    p.add_argument("--iterations", type=int, default=10,
                   help="scenarios to generate and run")
    p.add_argument("--triage-dir", default=None, metavar="DIR",
                   help="minimize each failing case and write its "
                        "bundle-<digest>/ triage bundle (original + "
                        "minimal scenario, verdict, replay command) "
                        "into this directory")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write one verdict per case as JSONL")
    p.add_argument("--drill", action="store_true",
                   help="known-bad run: inject an always-failing "
                        "invariant into the first case, proving the "
                        "violation -> shrink -> bundle pipeline works "
                        "(exits 1 by design)")
    p.add_argument("--replay", default=None, metavar="PATH",
                   help="run one scenario JSON (e.g. a bundle's "
                        "minimal.json or a scenarios/ catalog entry) "
                        "instead of generating cases; prints its "
                        "verdict")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record soak.case events as JSONL")
    p.add_argument("--trace-topics", default=None, metavar="T1,T2",
                   help="restrict the trace to these topics")
    p.add_argument("--trace-window", type=_parse_window, default=None,
                   metavar="START:END",
                   help="only record events inside [START, END] ns")
    add_parallel(p, retries=0)
    p.set_defaults(func=_cmd_soak)

    p = sub.add_parser(
        "profile", help="run one scenario under the event-loop profiler")
    p.add_argument("scenario", choices=scenario_names())
    p.add_argument("--scheme", default="dynaq")
    p.add_argument("--duration", type=float, default=0.2)
    p.add_argument("--top", type=int, default=12,
                   help="callback rows to show")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "diagnose", help="query a --diagnose-out dump: victim flows, "
                         "culprit attribution, queue fill reports")
    p.add_argument("dump", help="diagnosis JSON written by --diagnose-out")
    victim = p.add_mutually_exclusive_group()
    victim.add_argument("--victim-flow", type=int, default=None,
                        metavar="FLOW",
                        help="attribute this flow's worst queueing delay "
                             "to the flows that filled its queue")
    victim.add_argument("--victim-percentile", type=float, default=None,
                        metavar="P",
                        help="pick the victim at this FCT percentile "
                             "(needs --join-fct)")
    p.add_argument("--port", default=None, metavar="LABEL",
                   help="restrict to one diagnosed port (exact label, "
                        "bare port name, or substring)")
    p.add_argument("--queue", type=int, default=None,
                   help="fill report: restrict to this service queue")
    p.add_argument("--window", type=_parse_ns_window, default=None,
                   metavar="T0:T1",
                   help="fill report: simulated-time window in ns "
                        "(either side may be empty)")
    p.add_argument("--top", type=int, default=10,
                   help="rows per table (default 10)")
    p.add_argument("--join-fct", default=None, metavar="CSV",
                   help="join flow FCTs from a `repro fct --csv` export")
    p.add_argument("--join-trace", default=None, metavar="JSONL",
                   help="join per-flow drop counts from a --trace-out "
                        "file")
    p.add_argument("--join-timeline", default=None, metavar="PREFIX",
                   help="append threshold rows from a --timeline-csv "
                        "export covering the reported window")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser(
        "trace-validate", help="schema-check a JSONL trace file")
    p.add_argument("path")
    p.add_argument("--max-errors", type=int, default=20)
    p.set_defaults(func=_cmd_trace_validate)

    def add_socket(p, *, timeout=True):
        p.add_argument("--socket", required=True, metavar="PATH",
                       help="unix socket the daemon listens on")
        if timeout:
            p.add_argument("--timeout", type=float, default=30.0,
                           help="transport timeout for non-waiting "
                                "requests (seconds)")

    p = sub.add_parser(
        "serve", help="run the simulation job-queue daemon "
                      "(see docs/serving.md)")
    add_socket(p, timeout=False)
    p.add_argument("--wal", default="repro-serve.wal.jsonl",
                   metavar="PATH",
                   help="write-ahead job log; replayed on restart so "
                        "accepted jobs survive a daemon crash")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="crash-isolated worker slots")
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts per job (reseeded, or restored "
                        "from the job's autosave after a worker death)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="queued-job bound before LQD shedding kicks in")
    p.add_argument("--max-per-client", type=int, default=16,
                   help="live jobs one client may hold (fair share)")
    p.add_argument("--heartbeat", type=float, default=0.5,
                   metavar="SECONDS", help="worker heartbeat cadence")
    p.add_argument("--heartbeat-timeout", type=float, default=5.0,
                   metavar="SECONDS",
                   help="silence before a worker is declared hung and "
                        "SIGKILLed (0 = off)")
    p.add_argument("--job-deadline", type=float, default=0.0,
                   metavar="SECONDS",
                   help="wall-clock cap per job attempt (0 = off)")
    p.add_argument("--backoff", type=float, default=0.25,
                   metavar="SECONDS",
                   help="retry backoff base; doubles per attempt with "
                        "deterministic jitter (0 = off)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="grace period after SIGTERM before running "
                        "jobs are cut (their autosaves survive)")
    p.add_argument("--snapshot-every", type=float, default=None,
                   metavar="SECONDS",
                   help="autosave every job's simulation on this "
                        "simulated-seconds cadence so dead workers "
                        "migrate mid-flight instead of restarting")
    p.add_argument("--drill", action="store_true",
                   help="chaos drill: SIGKILL a random live worker on "
                        "a cadence to exercise migration continuously")
    p.add_argument("--drill-interval", type=float, default=1.0,
                   metavar="SECONDS")
    p.add_argument("--drill-seed", type=int, default=1)
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record serve.job lifecycle events as JSONL")
    p.add_argument("--quiet", action="store_true",
                   help="do not echo lifecycle events to stdout")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit one job to a running daemon")
    add_socket(p)
    p.add_argument("--kind", required=True, choices=sorted(JOB_KINDS))
    p.add_argument("--params", required=True, metavar="JSON",
                   help="job parameters: inline JSON object, @file, or "
                        "- for stdin")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (retries derive replacements)")
    p.add_argument("--client", default="",
                   help="client name for fair-share accounting")
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("jobs", help="list a running daemon's jobs")
    add_socket(p)
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser(
        "result", help="fetch one job's outcome from a daemon")
    p.add_argument("key", help="job key returned by submit")
    add_socket(p)
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    p.set_defaults(func=_cmd_result)

    return parser


def _sigterm_to_interrupt(signum, frame) -> None:
    """Route SIGTERM through the KeyboardInterrupt cleanup path.

    A supervisor's TERM then gets the same treatment as an operator's
    Ctrl-C: partial results are reported, the flight recorder dumps,
    checkpoints stay resumable, and the process exits 2.  The serve
    daemon overrides this with its own drain handler on the event loop.
    """
    raise KeyboardInterrupt


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    try:
        # Handlers return EXIT_OK or EXIT_FAILURE (0/1) directly.
        return args.func(args)
    except KeyboardInterrupt:
        # The telemetry session has already dumped the flight recorder
        # and _run_traced has reported partial results on the way up.
        print("\ninterrupted")
        return EXIT_ERROR
    except SnapshotHalt as exc:
        # The deliberate --snapshot-kill-after drill: distinct exit code
        # so scripts can tell "crashed on cue" from a real error.
        print(exc)
        return EXIT_DRILL
    except ReproError as exc:
        kind = type(exc).__name__
        print(f"error ({kind}): {exc}")
        return EXIT_ERROR
    except BrokenPipeError:
        # Output piped into a closed reader (`repro result ... | head`):
        # die the way a SIGPIPEd unix tool would, without a traceback.
        # stdout is swapped for devnull so the interpreter's final
        # implicit flush cannot raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
