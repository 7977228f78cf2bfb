"""``--trace 1``: the per-layer ledger of one workload.

One traced child (spans), one ``cProfile`` child (exact call counts),
two plain children (stage times and the untraced baseline the tracing
overhead is measured against) and the layer drives.  Everything runs at
:data:`TRACE_SCALE` of the workload's size so the five fit one run; no
end-to-end metric is ever taken from here.

The drives do not depend on the workload.  They still run with every
``--trace 1`` because the benchmark contract wants every per-layer
metric from every traced run; ``python3 -m bench drives`` runs them
alone.
"""

from __future__ import annotations

import json
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Tuple

from . import harness
from .harness import ChildError, Fleet

TRACE_SCALE = 0.5

LAYERS = ("sim", "net", "core", "queueing", "transport", "workloads",
          "metrics", "telemetry", "diagnosis", "snapshot", "experiments",
          "serve")

#: Stages reported per layer: all but the interpreter's own boot.
STAGE_METRICS = harness.STAGES[1:]

#: Boundary counts read from public counters: name -> (unit, better).
COUNT_METRICS = {
    "sim.events_per_pkt": ("1/pkt", "lower"),
    "sim.cancelled_pct": ("%", "lower"),
    "sim.pending_max": ("count", "lower"),
    "net.drop_pct": ("%", "lower"),
    "core.steals_per_kpkt": ("1/kpkt", "lower"),
    "transport.retx_pct": ("%", "lower"),
    "transport.timeouts": ("count", "lower"),
    "telemetry.records_per_pkt": ("1/pkt", "lower"),
    "telemetry.bytes_per_record": ("B", "lower"),
    "diagnosis.updates_per_pkt": ("1/pkt", "lower"),
    "snapshot.saves": ("count", "lower"),
    "snapshot.mb_per_save": ("MB", "lower"),
    "experiments.jobs": ("count", "higher"),
    "experiments.retries": ("count", "lower"),
}

#: Layer drives (bench/drives.py), name -> unit.  Kept here as plain
#: data so that the parent never imports ``repro``.
DRIVE_UNITS = {
    "sim.schedule_pop_ns": "ns", "sim.deep_ns": "ns", "sim.cancel_ns": "ns",
    "net.port_ns_per_pkt_mtu": "ns", "net.port_ns_per_pkt_min": "ns",
    "net.forward_ns": "ns",
    "core.admit_ns": "ns", "core.admit_steal_ns": "ns",
    "queueing.select_ns": "ns",
    "transport.tcp_ns_per_segment": "ns",
    "workloads.gen_us_per_flow": "us",
    "metrics.fct_summary_us_per_flow": "us",
    "telemetry.publish_silent_ns": "ns",
    "telemetry.jsonl_ns_per_record": "ns",
    "diagnosis.update_ns_per_pkt": "ns",
    "snapshot.save_ms": "ms", "snapshot.load_ms": "ms",
    "experiments.job_overhead_ms": "ms",
    "experiments.codec_us_per_flow": "us",
    "serve.start_ms": "ms", "serve.turnaround_p50_ms": "ms",
    "serve.turnaround_n": "count",
    "cli.import_ms": "ms",
    "bench.feeder_ns_per_pkt": "ns",
}


def catalogue() -> List[Tuple[str, str, str]]:
    """Every per-layer metric: ``(name, unit, better)``, in report order."""
    rows = [(f"stage.{name}", "s", "lower") for name in STAGE_METRICS]
    for layer in LAYERS:
        rows.append((f"{layer}.self_s", "s", "lower"))
        rows.append((f"{layer}.calls_per_pkt", "1/pkt", "lower"))
    rows += [("trace.other_self_s", "s", "lower"),
             ("trace.unattributed_pct", "%", "lower"),
             ("trace.overhead_pct", "%", "lower"),
             ("trace.calls_per_pkt", "1/pkt", "lower")]
    rows += [(name, unit, better)
             for name, (unit, better) in COUNT_METRICS.items()]
    rows += [(name, unit,
              "higher" if name == "serve.turnaround_n" else "lower")
             for name, unit in DRIVE_UNITS.items()]
    return rows


def run_drives(fleet: Fleet) -> Dict[str, float]:
    """``python3 -m bench drives --json`` in its own session."""
    process = subprocess.Popen(
        [sys.executable, "-m", "bench", "drives", "--json"],
        cwd=harness.ROOT, env=harness.child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    fleet.add(process)
    try:
        output, errors = process.communicate(timeout=harness.CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        harness.kill_group(process)
        raise ChildError("drives: killed after timeout")
    finally:
        fleet.discard(process)
    if process.returncode != 0:
        raise ChildError(f"drives: exit code {process.returncode}\n"
                         f"{errors[-800:]}")
    return json.loads(output.strip().splitlines()[-1])


def boundary_counts(counts: Dict[str, float],
                    ledger: Dict[str, Any]) -> Dict[str, float]:
    """The exact counts of :data:`COUNT_METRICS` from one child."""
    def ratio(top: str, bottom: str, factor: float = 1.0) -> float:
        below = counts.get(bottom, 0)
        return factor * counts.get(top, 0) / below if below else 0.0

    offered = counts.get("enqueued", 0) + counts.get("dropped", 0)
    return {
        "sim.events_per_pkt": ratio("events_executed", "pkts"),
        "sim.cancelled_pct": ratio("events_cancelled", "events_scheduled",
                                   100.0),
        "sim.pending_max": ledger.get("pending_max", 0),
        "net.drop_pct": (100.0 * counts.get("dropped", 0) / offered
                         if offered else 0.0),
        "core.steals_per_kpkt": ratio("steals", "pkts", 1000.0),
        "transport.retx_pct": ratio("retransmissions", "packets_sent",
                                    100.0),
        "transport.timeouts": counts.get("timeouts", 0),
        "telemetry.records_per_pkt": ratio("trace_records", "pkts"),
        "telemetry.bytes_per_record": ratio("trace_bytes", "trace_records"),
        "diagnosis.updates_per_pkt": ratio("sketch_updates", "pkts"),
        "snapshot.saves": counts.get("snapshot_saves", 0),
        "snapshot.mb_per_save": counts.get("snapshot_bytes", 0) / 1e6,
        "experiments.jobs": counts.get("jobs", 0),
        "experiments.retries": counts.get("retries", 0),
    }


def run_trace(workload: str, seed: int, seconds: float,
              scale: float = 1.0) -> Dict[str, Any]:
    """The per-layer document of one workload (``seconds`` is unused:
    a traced run is one pass, not a window)."""
    began = perf_counter()
    scale *= TRACE_SCALE
    lanes = harness.lane_cpus()
    first, second = lanes[0], lanes[-1]
    failures: List[str] = []
    docs: Dict[str, Dict[str, Any]] = {}
    drives: Dict[str, float] = {}
    with Fleet() as fleet:
        try:
            plan = [("traced", "traced", first), ("profile", "profile",
                                                  second),
                    ("warmup", "warmup", first), ("measure", "plain",
                                                  second)]
            # Two children at a time, one per core.
            for index in range(0, len(plan), 2):
                batch = [(tag, fleet.spawn(workload, seed, scale, mode,
                                           tag, cpu))
                         for mode, tag, cpu in plan[index:index + 2]]
                for tag, child in batch:
                    docs[tag] = child.wait()
            drives = run_drives(fleet)
        except ChildError as exc:
            failures.append(str(exc))
    return assemble(workload, seed, scale, docs, drives, failures,
                    perf_counter() - began)


def assemble(workload: str, seed: int, scale: float,
             docs: Dict[str, Dict[str, Any]], drives: Dict[str, float],
             failures: List[str], wall_s: float) -> Dict[str, Any]:
    attempted = 1 + len(failures)
    document: Dict[str, Any] = {
        "schema": "bench.trace/1", "workload": workload, "seed": seed,
        "scale": scale, "wall_s": wall_s, "per_layer": {},
    }
    if not failures:
        traced, profiled = docs["traced"], docs["profile"]
        plain = [docs["warmup"], docs["plain"]]
        for doc in docs.values():
            attempted += doc["attempted"] + 1
            failures += [f"{doc['mode']}: {text}"
                         for text in doc["failures"]]
            if doc["digest"] != docs["warmup"]["digest"]:
                failures.append(f"{doc['mode']}: sim_digest differs from "
                                f"the untraced run's")
        pkts = docs["warmup"]["pkts"]
        ledger = traced["ledger"]
        inside = ledger["simulate"]
        # The unattributed rest is what no span and no run() call covers
        # (driver code between two run() calls, mostly); a change that
        # moves work out from under the wrapped boundaries shows here.
        attempted += 1
        unattributed_pct = (100.0 * inside["unattributed_s"]
                            / inside["seconds"])
        if unattributed_pct > 15.0:
            failures.append(f"{unattributed_pct:.1f}% of the simulate "
                            f"stage is unattributed")
        untraced_s = min(doc["stages"]["simulate_s"] for doc in plain)
        values: Dict[str, float] = {
            f"stage.{name}": min(doc["stages"][name] for doc in plain)
            for name in STAGE_METRICS}
        calls = profiled["ledger"]["calls"]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = ledger["self_s"][layer]
            values[f"{layer}.calls_per_pkt"] = calls[layer] / pkts
        values["trace.other_self_s"] = ledger["self_s"]["other"]
        values["trace.unattributed_pct"] = unattributed_pct
        values["trace.overhead_pct"] = 100.0 * (
            traced["stages"]["simulate_s"] / untraced_s - 1.0)
        values["trace.calls_per_pkt"] = sum(calls.values()) / pkts
        values.update(boundary_counts(docs["warmup"]["counts"], ledger))
        values.update(drives)
        document["per_layer"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better in catalogue()}
        total = sum(ledger["self_s"].values())
        document["layer_share_pct"] = {
            layer: 100.0 * seconds / total
            for layer, seconds in ledger["self_s"].items()} if total else {}
        document["spans"] = ledger["spans"]
        document["by_name"] = ledger["by_name"]
        document["sim_digest"] = traced["digest"]
    document.update(attempted=attempted, failed=len(failures),
                    failures=failures[:20], correct=not failures)
    return document


def print_ledger(document: Dict[str, Any]) -> None:
    print(f"# {document['workload']} seed={document['seed']} traced at "
          f"scale {document['scale']:g}, wall={document['wall_s']:.1f}s")
    for name, entry in document["per_layer"].items():
        print(f"{name:<34}{entry['value']:>14.4f} {entry['unit']}")
    shares = document.get("layer_share_pct", {})
    if shares:
        print("layer share of traced self time: " + "  ".join(
            f"{layer} {share:.1f}%" for layer, share in shares.items()
            if share >= 0.05))
    for text in document["failures"]:
        print(f"FAILED: {text}")
