"""The four workloads, as run inside one child process.

Each ``run_*`` drives ``repro`` through public entry points in the
default configuration and returns a :class:`Rep`: where the steady
window began and ended, its timed segments, the packets offered to
egress ports, the operation digest, and the checks it made.  Checks and
artifact validation run after the steady window and are timed apart.

Sizes are fixed here, at scale 1, so that one repetition takes 2-3.5 s
on the reference box; ``scale`` shrinks them for tests.
"""

from __future__ import annotations

import hashlib
import json
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Tuple

from repro.diagnosis import capture_diagnosis, load_diagnosis, write_diagnosis
from repro.errors import ServeError
from repro.experiments.parallel import JOB_KINDS, parallel_fct_sweep
from repro.experiments.testbed import run_fct_experiment
from repro.metrics.export import (
    write_steal_matrix_csv,
    write_threshold_series_csv,
)
from repro.perf.config import active_config, use_config
from repro.serve import ServeClient
from repro.sim.units import seconds
from repro.snapshot import SnapshotPolicy, restore_world
from repro.telemetry import TelemetrySession, validate_trace_file
from repro.workloads.datasets import WEB_SEARCH

from . import replay
from .harness import child_env
from .probe import (
    PortBus,
    SliceClock,
    StopwatchSimulator,
    audit_world,
    offered_packets,
    port_counters,
    sim_digest,
    slices,
    transport_counters,
)

# Fig. 8 cell: web-search flows at 60 % load, PIAS, 4 servers.  The tail
# is clipped (the CLI's --truncate-mb) so that a repetition's length and
# its per-packet cost depend little on which flows a seed draws.
FCT_SCHEME = "dynaq"
FCT_LOAD = 0.6
FCT_STAR_TRUNCATE = 1_000_000
FCT_STAR_FLOWS = 220
# The watched cell is ~4x dearer per packet, so it is smaller; its flows
# are clipped harder so that its packet count, and with it the memory
# its collectors hold, moves little from seed to seed.
FCT_OBSERVED_TRUNCATE = 300_000
FCT_OBSERVED_FLOWS = 130
SNAPSHOT_EVERY_S = 0.05

# sweep_grid: 2 schemes x 2 loads x 2 seeds of small cells.  Many short
# flows rather than few long ones: the job path's fixed costs dominate a
# cell, so pkts_per_s follows the cell's packet count, which 400 flows
# clipped at 30 KB hold within 3 % from seed to seed (150 at 100 KB: 7 %).
GRID_SCHEMES = ("dynaq", "pql")
GRID_LOADS = (0.4, 0.7)
GRID_FLOWS = 400
GRID_TRUNCATE_MB = 0.03
GRID_WORKERS = 2
GRID_CLIENTS = 2

#: How much of the port's own time the feeder may cost (harness guard).
FEEDER_SHARE_LIMIT = 0.15

# Simulated time between two slice marks, chosen so that a slice is 1-2 ms
# of host time: the host can change state every few milliseconds (README,
# "Noise study"), and a slice is only worth taking the minimum of if some
# repetition ran it in one state throughout.
FCT_STAR_SLICE_NS = 2_000_000
FCT_OBSERVED_SLICE_NS = 500_000
REPLAY_SLICE_NS = 2_000_000


class Rep:
    """What one repetition of a workload measured."""

    def __init__(self) -> None:
        self.steady_start = 0.0      # perf_counter at steady entry
        self.simulate_end = 0.0      # last run() exit / last job back
        self.steady_end = 0.0        # result returned, artifacts flushed
        #: [name, seconds]: consecutive stretches of the steady window on
        #: one clock, cut where the same thing happens in every
        #: repetition (a slice mark, a job's result coming back); they
        #: add up to the window's length.
        self.segments: List[List[Any]] = []
        self.inside_run_s = 0.0      # host time inside Simulator.run()
        self.pkts: Optional[int] = None
        self.digest = ""
        self.attempted = 0
        self.failures: List[str] = []
        self.counts: Dict[str, float] = {}
        self.extras: Dict[str, Any] = {}

    def chain(self, name: str, begin: float, edges: List[float],
              end: float) -> None:
        """Append the consecutive intervals ``begin -> edges... -> end``."""
        self.segments += [[f"{name}{index}", seconds_taken]
                          for index, seconds_taken
                          in enumerate(slices(begin, edges, end))]

    def check(self, ok: bool, text: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(text)

    def check_all(self, problems: List[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems[:3])}")


def _scaled(base: int, scale: float, floor: int = 4) -> int:
    return max(floor, int(round(base * scale)))


def _sim_rep(rep: Rep, sim: StopwatchSimulator, clock: SliceClock,
             ports: List[Any], fct_ns: List[Tuple[int, int]]) -> None:
    """Fill ``rep`` from a finished simulation: the timed segments, the
    packets offered, the digest, the repo's own audits, the counters."""
    rep.steady_start = sim.first_entry
    rep.simulate_end = sim.last_exit
    rep.inside_run_s = sim.inside_s
    rep.chain("slice", sim.first_entry, clock.marks, sim.last_exit)
    rep.segments.append(["finish", rep.steady_end - sim.last_exit])
    counters = port_counters(ports)
    rep.pkts = offered_packets(counters)
    rep.digest = sim_digest(counters, sim.events_executed, fct_ns)
    rep.check_all(audit_world(sim, ports), "audit")
    rep.counts.update({
        "pkts": rep.pkts,
        "events_executed": sim.events_executed,
        "events_scheduled": sim.events_scheduled,
        "events_cancelled": sim.events_cancelled,
        "enqueued": sum(row[1] for row in counters),
        "dropped": sum(row[2] for row in counters),
        "steals": sum(row[4] for row in counters),
    })


def _world_rep(rep: Rep, sim: StopwatchSimulator, clock: SliceClock,
               bus: PortBus, result) -> None:
    """Fill ``rep`` from a finished FCT world (after the steady window)."""
    _sim_rep(rep, sim, clock, bus.ports,
             [(r.flow_id, r.fct_ns) for r in result.collector.records])
    rep.check(result.outstanding == 0 and result.completed > 0,
              f"{result.outstanding} flows not completed")
    rep.counts.update(flows=result.completed,
                      **transport_counters(bus.ports))


def run_fct_star(seed: int, scale: float, out: Path, mode: str) -> Rep:
    """Fig. 8 cell, nothing observed."""
    rep = Rep()
    sim = StopwatchSimulator()
    clock = SliceClock(sim, FCT_STAR_SLICE_NS)
    bus = PortBus()
    result = run_fct_experiment(
        FCT_SCHEME, load=FCT_LOAD,
        num_flows=_scaled(FCT_STAR_FLOWS, scale),
        distribution=WEB_SEARCH.truncated(FCT_STAR_TRUNCATE), seed=seed,
        sim=sim, trace=bus)
    rep.steady_end = perf_counter()
    _world_rep(rep, sim, clock, bus, result)
    return rep


def run_fct_observed(seed: int, scale: float, out: Path, mode: str) -> Rep:
    """The same kind of cell, watched the way ``repro fct --trace-out
    --timeline-csv --diagnose-out --snapshot-every`` watches it."""
    rep = Rep()
    sim = StopwatchSimulator()
    clock = SliceClock(sim, FCT_OBSERVED_SLICE_NS)
    bus = PortBus()
    trace_path = out / "trace.jsonl"
    snapshot_path = out / "world.snap"
    diagnosis_path = out / "diagnosis.json"
    with use_config(active_config().clone(queue_diagnosis=True)):
        with capture_diagnosis() as capture:
            session = TelemetrySession(trace=bus, trace_out=trace_path,
                                       timeline=True)
            with session:
                result = run_fct_experiment(
                    FCT_SCHEME, load=FCT_LOAD,
                    num_flows=_scaled(FCT_OBSERVED_FLOWS, scale),
                    distribution=WEB_SEARCH.truncated(
                        FCT_OBSERVED_TRUNCATE),
                    seed=seed, sim=sim, trace=bus,
                    snapshot=SnapshotPolicy(
                        every_ns=seconds(SNAPSHOT_EVERY_S),
                        out=snapshot_path))
            timeline = session.timeline
            for port in timeline.ports():
                write_threshold_series_csv(
                    out / f"timeline.{port}.thresholds.csv", timeline, port)
                if timeline.steal_moves(port):
                    write_steal_matrix_csv(
                        out / f"timeline.{port}.steals.csv", timeline, port)
            document = write_diagnosis(diagnosis_path, capture)
    rep.steady_end = perf_counter()
    _world_rep(rep, sim, clock, bus, result)

    records = session.recorder.records_written
    trace_bytes = trace_path.stat().st_size
    with trace_path.open("rb") as handle:
        trace_sha = hashlib.file_digest(handle, "sha256").hexdigest()
    # Byte-identical traces share one verdict, so the full schema check
    # runs once per seed (in the warm-up child) and the parent compares
    # hashes for the rest.
    if mode == "warmup":
        count, errors = validate_trace_file(trace_path)
        rep.check(count == records and not errors,
                  f"trace invalid: {count} of {records} records, "
                  f"{errors[:2]}")
    loaded = load_diagnosis(diagnosis_path)
    rep.check(sorted(loaded["ports"]) == sorted(document["ports"])
              and bool(loaded["ports"]), "diagnosis dump does not reload")
    restored = restore_world(snapshot_path, expect_kind="fct")
    rep.check(restored.saves >= 1, "last snapshot does not restore")
    updates = sum(port["updates"] for port in document["ports"].values())
    rep.counts.update({
        "trace_records": records,
        "trace_bytes": trace_bytes,
        "sketch_updates": updates,
        "snapshot_saves": restored.saves,
        "snapshot_bytes": snapshot_path.stat().st_size,
    })
    rep.extras["trace_sha256"] = trace_sha
    return rep


def run_port_replay(seed: int, scale: float, out: Path, mode: str) -> Rep:
    """One DynaQ egress port fed a seeded three-phase arrival plan."""
    rep = Rep()
    plan = replay.build_plan(seed, scale)
    sim = StopwatchSimulator()
    clock = SliceClock(sim, REPLAY_SLICE_NS)
    free = replay.free_lists()
    sink = replay.Sink(free)
    port = replay.make_port(sim, PortBus())
    port.connect(sink)
    feeder = replay.Feeder(sim, port, plan, free)
    feeder.start()
    sim.run(until=plan.horizon_ns)
    rep.steady_end = perf_counter()
    _sim_rep(rep, sim, clock, [port], [])
    rep.check(feeder.sent == plan.arrivals == rep.pkts,
              f"plan has {plan.arrivals} arrivals, feeder sent "
              f"{feeder.sent}, port saw {rep.pkts}")
    rep.check(sink.received == port.transmitted_packets
              == port.enqueued_packets,
              f"sink got {sink.received} of {port.enqueued_packets} "
              f"enqueued")
    if mode == "warmup":
        # Harness-cost guard: the same plan into a port that does
        # nothing.  What is left is the feeder, its tick events and the
        # sink.
        feeder_s = replay.feeder_seconds(plan)
        port_s = sim.inside_s - feeder_s
        rep.check(feeder_s <= FEEDER_SHARE_LIMIT * port_s,
                  f"feeder costs {feeder_s:.3f}s against {port_s:.3f}s "
                  f"of port work")
        rep.extras["feeder_share"] = feeder_s / port_s
    return rep


# -- sweep_grid ---------------------------------------------------------------

def _grid_cells(seed: int, scale: float) -> List[Dict[str, Any]]:
    """Job parameters of the grid: four cells per seed, two seeds."""
    flows = _scaled(GRID_FLOWS, scale)
    return [{"scheme": name, "load": load, "num_flows": flows,
             "workload": "web_search", "truncate_mb": GRID_TRUNCATE_MB,
             "seed": cell_seed}
            for cell_seed in (2 * seed + 1, 2 * seed + 2)
            for name in GRID_SCHEMES for load in GRID_LOADS]


def _jsonable(payload: Any) -> Any:
    """A payload as it looks after crossing a pipe or the socket."""
    return json.loads(json.dumps(payload))


def _payload_digest(payloads: List[Any]) -> str:
    text = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def serial_grid(seed: int, scale: float) -> Tuple[List[Any], int, Rep]:
    """The grid run in-process: reference payloads and packet count."""
    rep = Rep()
    kind = JOB_KINDS["fct"]
    payloads = []
    pkts = 0
    for params in _grid_cells(seed, scale):
        sim = StopwatchSimulator()
        bus = PortBus()
        result = kind.run(**params, sim=sim, trace=bus)
        payloads.append(_jsonable(kind.encode(result)))
        pkts += offered_packets(port_counters(bus.ports))
        rep.check(result.outstanding == 0, "serial cell did not complete")
        rep.check_all(audit_world(sim, bus.ports), "serial audit")
    return payloads, pkts, rep


def start_daemon(out: Path) -> Tuple[subprocess.Popen, str]:
    """Spawn ``repro serve`` with a fresh socket and WAL under ``out``.

    ``out`` is relative to the checkout root (the cwd of every child):
    AF_UNIX paths are capped near 100 bytes and the checkout may live
    anywhere.  Leftovers of an interrupted run are cleared first.
    """
    socket_path = str(out / "serve.sock")
    wal_path = out / "serve.wal"
    if len(socket_path) > 90:
        raise RuntimeError(f"socket path too long: {socket_path}")
    for stale in (Path(socket_path), wal_path):
        stale.unlink(missing_ok=True)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--wal", str(wal_path), "--jobs", str(GRID_WORKERS), "--quiet"],
        env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT)
    return process, socket_path


def wait_listening(process: subprocess.Popen, client: ServeClient,
                    deadline_s: float = 20.0) -> None:
    end = perf_counter() + deadline_s
    while perf_counter() < end:
        if process.poll() is not None:
            raise RuntimeError(f"daemon exited with {process.returncode}")
        try:
            if client.status().get("accepting"):
                return
        except ServeError:
            sleep(0.005)
    raise RuntimeError("daemon did not start listening")


def _round_ends(results: List[float]) -> List[float]:
    """Of the times at which results came back, those that end a round.

    Jobs run ``GRID_WORKERS`` abreast and the results of one round come
    back almost together, in either order; only the last of a round is a
    point every repetition passes after the same work.
    """
    return results[GRID_WORKERS - 1::GRID_WORKERS]


def _serve_grid(rep: Rep, cells: List[Dict[str, Any]],
                out: Path) -> List[Any]:
    """Run ``cells`` through a live ``repro serve`` daemon, closed loop.

    Two clients each send their next job only after the previous one
    returned; then one repeat submission, then a SIGTERM drain.  Returns
    the payloads in cell order (``None`` where a job failed).
    """
    start = perf_counter()
    process, socket_path = start_daemon(out)
    served: List[Any] = [None] * len(cells)
    answers: List[float] = []    # when each job's response arrived
    errors: List[str] = []

    def closed_loop(lane: int) -> None:
        client = ServeClient(socket_path)
        for index in range(lane, len(cells), GRID_CLIENTS):
            cell = cells[index]
            try:
                response = client.submit("fct", cell, seed=cell["seed"],
                                         client=f"c{lane}", wait=True)
            except ServeError as exc:
                errors.append(f"job {index}: {exc}")
                return
            if (response.get("status") != "ok"
                    or response.get("attempts") != 1):
                errors.append(f"job {index}: {response}")
                return
            served[index] = response["payload"]
            answers.append(perf_counter())

    try:
        control = ServeClient(socket_path)
        wait_listening(process, control)
        listening = perf_counter()
        rep.segments.append(["serve.start", listening - start])
        threads = [threading.Thread(target=closed_loop, args=(lane,))
                   for lane in range(GRID_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # One repeat submission: answered from the WAL, not re-run.
        again = control.submit("fct", cells[0], seed=cells[0]["seed"],
                               client="c0", wait=True)
        answered = perf_counter()
        rep.chain("serve.round", listening, _round_ends(sorted(answers)),
                  answered)
        rep.check(again.get("payload") == served[0],
                  "repeat submission returned a different payload")
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
        rep.segments.append(["serve.stop", perf_counter() - answered])
        rep.check(process.returncode == 0,
                  f"daemon exit code {process.returncode}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    rep.check(not errors, f"serve errors: {errors[:2]}")
    return served


def run_sweep_grid(seed: int, scale: float, out: Path, mode: str) -> Rep:
    """One seed's cells through the sweep executor, the other seed's
    through a live daemon; every payload must equal the serial run's."""
    rep = Rep()
    cells = _grid_cells(seed, scale)
    half = len(cells) // 2
    encode = JOB_KINDS["fct"].encode
    rep.steady_start = perf_counter()

    # (a) the sweep executor, as `repro fct --jobs 2` drives it.
    attempts: List[int] = []
    finals: List[float] = []     # when each job's outcome became final

    def job_final(outcome) -> None:
        attempts.append(outcome.attempts)
        finals.append(perf_counter())

    results, failures = parallel_fct_sweep(
        GRID_SCHEMES, GRID_LOADS, num_flows=cells[0]["num_flows"],
        workload="web_search", truncate_mb=GRID_TRUNCATE_MB,
        seed=cells[0]["seed"], jobs=GRID_WORKERS,
        checkpoint=out / "sweep.jsonl", on_result=job_final)
    rep.check(not failures, f"sweep failures: {failures[:1]}")
    rep.check(len(attempts) == half,
              f"saw {len(attempts)} of {half} sweep jobs")
    payloads = [_jsonable(encode(result))
                for name in GRID_SCHEMES for result in results[name]]
    rep.chain("sweep.round", rep.steady_start, _round_ends(finals),
              perf_counter())

    # (b) the other seed's cells through a live daemon.
    payloads += _serve_grid(rep, cells[half:], out)
    rep.simulate_end = rep.steady_end = perf_counter()

    rep.digest = _payload_digest(payloads)
    rep.counts.update({"jobs": len(cells),
                       "retries": sum(count - 1 for count in attempts)})
    if mode == "warmup":
        reference, pkts, serial = serial_grid(seed, scale)
        rep.attempted += serial.attempted
        rep.failures += serial.failures
        rep.check(reference == payloads,
                  "payloads differ from the serial in-process run")
        rep.pkts = pkts
        rep.counts["pkts"] = pkts
    return rep


WORKLOADS = {
    "fct_star": run_fct_star,
    "port_replay": run_port_replay,
    "fct_observed": run_fct_observed,
    "sweep_grid": run_sweep_grid,
}
