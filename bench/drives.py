"""Layer drives: each times calls into one module's public functions.

``python3 -m bench drives`` prints every drive; a ``--trace 1`` run
reports them among the per-layer metrics.  None gates anything.  Each
drive is small (tens of milliseconds) and reports the quietest of
:data:`REPEAT` runs, for the reason bench/estimate.py gives.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
from collections import deque
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.core.dynaq import DynaQBuffer
from repro.diagnosis.sketch import PortDiagnosisSketch
from repro.experiments.parallel import JOB_KINDS, JobSpec, parallel_map
from repro.experiments.testbed import run_fct_experiment
from repro.metrics.fct import FCTCollector
from repro.net.packet import Packet
from repro.net.port import EgressPort
from repro.net.switch import Switch
from repro.queueing.besteffort import BestEffortBuffer
from repro.queueing.schedulers.drr import DRRScheduler
from repro.queueing.schedulers.fifo import FIFOScheduler
from repro.serve import ServeClient
from repro.sim.engine import Simulator
from repro.sim.trace import TOPIC_PACKET_ENQUEUE, TraceBus
from repro.snapshot import SnapshotManager
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.sinks import JsonlSink
from repro.transport.base import Flow, FlowReceiver
from repro.transport.tcp import TCPSender
from repro.workloads.datasets import WEB_SEARCH
from repro.workloads.flowgen import generate_flows

from . import replay
from .harness import OUT, ROOT, child_env
from .ledger import DRIVE_UNITS as UNITS
from .workloads import start_daemon, wait_listening

REPEAT = 3
SCRATCH = OUT / "drives"


def noop(**_kwargs: Any) -> int:
    """The job the executor and daemon drives submit."""
    return 0


def quietest(run: Callable[[], float]) -> float:
    return min(run() for _ in range(REPEAT))


# -- sim ------------------------------------------------------------------

def _event_chains(chains: int, events: int) -> float:
    sim = Simulator()
    remaining = [events]

    def tick(period: int) -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule(period, tick, period)

    for index in range(chains):
        sim.schedule(1 + index, tick, 97 + index % 13)
    start = perf_counter()
    sim.run()
    return (perf_counter() - start) * 1e9 / sim.events_executed


def sim_schedule_pop_ns() -> float:
    return _event_chains(4, 60_000)


def sim_deep_ns() -> float:
    return _event_chains(10_000, 60_000)


def sim_cancel_ns() -> float:
    sim = Simulator()
    rounds = 40_000
    start = perf_counter()
    for _ in range(rounds):
        event = sim.schedule(1_000, noop)
        sim.cancel_versioned(event, event.gen)
    elapsed = perf_counter() - start
    sim.run()
    return elapsed * 1e9 / rounds


# -- net ------------------------------------------------------------------

class _Count:
    def __init__(self) -> None:
        self.received = 0

    def receive(self, packet: Packet) -> None:
        self.received += 1


def _plain_port(sim: Simulator, name: str, queues: int) -> EgressPort:
    scheduler = (DRRScheduler([1500.0] * queues) if queues > 1
                 else FIFOScheduler())
    return EgressPort(sim, name, rate_bps=replay.RATE_BPS,
                      prop_delay_ns=replay.PROP_DELAY_NS,
                      buffer_bytes=replay.BUFFER_BYTES, scheduler=scheduler,
                      buffer_manager=BestEffortBuffer())


def _port_ns_per_pkt(size: int, via_switch: bool = False) -> float:
    """Packets at 90 % load through a best-effort port into a counter."""
    sim = Simulator()
    sink = _Count()
    port = _plain_port(sim, "drive->sink", 4)
    port.connect(sink)
    entry = port
    if via_switch:
        switch = Switch(sim, "s0")
        switch.add_route("sink", port)
        entry = _plain_port(sim, "nic", 1)
        entry.connect(switch)
    count = 20_000
    gap = int(size * 8 / 0.9)
    packets = [Packet(index, "drive", "sink", size, service_class=index % 4)
               for index in range(count)]
    sim.at_many([1 + gap * index for index in range(count)], entry.send,
                packets)
    start = perf_counter()
    sim.run()
    elapsed = perf_counter() - start
    assert sink.received == count, (sink.received, count)
    return elapsed * 1e9 / count


def net_port_ns_per_pkt_mtu() -> float:
    return _port_ns_per_pkt(1500)


def net_port_ns_per_pkt_min() -> float:
    return _port_ns_per_pkt(64)


def net_forward_ns() -> float:
    return _port_ns_per_pkt(1500, via_switch=True)


# -- core -----------------------------------------------------------------

def core_admit() -> Tuple[float, float]:
    """ns per ``DynaQBuffer.admit`` call: without and with a steal.

    A small steal-storm replay runs with a stopwatch around the class's
    ``admit``; calls that moved a threshold are booked apart.
    """
    plan = replay.build_plan(1, scale=0.05)
    totals = {False: [0, 0.0], True: [0, 0.0]}
    original = DynaQBuffer.admit

    def timed(manager, packet, queue_index):
        moves = manager.threshold_moves
        start = perf_counter()
        decision = original(manager, packet, queue_index)
        elapsed = perf_counter() - start
        bucket = totals[manager.threshold_moves != moves]
        bucket[0] += 1
        bucket[1] += elapsed
        return decision

    DynaQBuffer.admit = timed
    try:
        sim = Simulator()
        free = replay.free_lists()
        port = replay.make_port(sim, None)
        port.connect(replay.Sink(free))
        replay.Feeder(sim, port, plan, free).start()
        sim.run(until=plan.horizon_ns)
    finally:
        DynaQBuffer.admit = original
    plain, steal = totals[False], totals[True]
    return (plain[1] * 1e9 / max(1, plain[0]),
            steal[1] * 1e9 / max(1, steal[0]))


# -- queueing -------------------------------------------------------------

class _Backlogged:
    """A QueueView whose queues always hold one MTU packet."""

    def queue_empty(self, index: int) -> bool:
        return False

    def head_size(self, index: int) -> int:
        return 1500


def queueing_select_ns() -> float:
    scheduler = DRRScheduler([1500.0] * 4)
    for index in range(4):
        scheduler.on_enqueue(index)
    view = _Backlogged()
    rounds = 100_000
    select = scheduler.select
    start = perf_counter()
    for _ in range(rounds):
        select(view)
    return (perf_counter() - start) * 1e9 / rounds


# -- transport ------------------------------------------------------------

class _Loopback:
    """A host stub: what a transport sends lands in one shared deque."""

    def __init__(self, name: str, wire: deque) -> None:
        self.name = name
        self.wire = wire

    def send_packet(self, packet: Packet) -> None:
        self.wire.append(packet)


def transport_tcp_ns_per_segment() -> float:
    """A TCP sender and receiver talking over a zero-cost wire."""
    sim = Simulator()
    wire: deque = deque()
    flow = Flow(1, "a", "b", 20_000 * 1460)
    sender = TCPSender(sim, _Loopback("a", wire), flow)
    receiver = FlowReceiver(sim, _Loopback("b", wire), 1)
    start = perf_counter()
    sender.start()
    while wire:
        packet = wire.popleft()
        if packet.is_ack:
            sender.on_ack(packet)
        else:
            receiver.on_data(packet)
    elapsed = perf_counter() - start
    assert sender.complete, "loopback flow did not complete"
    return elapsed * 1e9 / sender.packets_sent


# -- workloads, metrics ---------------------------------------------------

def workloads_gen_us_per_flow() -> float:
    flows = 20_000
    start = perf_counter()
    generate_flows(distribution=WEB_SEARCH, load=0.6,
                   link_rate_bps=replay.RATE_BPS, num_flows=flows,
                   rng=random.Random(1))
    return (perf_counter() - start) * 1e6 / flows


def _collector(flows: int) -> FCTCollector:
    rng = random.Random(2)
    collector = FCTCollector()
    for index in range(flows):
        collector.record(index, rng.randrange(1_000, 3_000_000),
                         rng.randrange(10_000, 50_000_000), 1 + index % 4)
    return collector


def metrics_fct_summary_us_per_flow() -> float:
    flows = 20_000
    collector = _collector(flows)
    start = perf_counter()
    collector.summary()
    return (perf_counter() - start) * 1e6 / flows


# -- telemetry, diagnosis -------------------------------------------------

def telemetry_publish_silent_ns() -> float:
    bus = TraceBus()
    rounds = 100_000
    publish = bus.publish
    start = perf_counter()
    for _ in range(rounds):
        publish(TOPIC_PACKET_ENQUEUE, port="p", time=0)
    return (perf_counter() - start) * 1e9 / rounds


def telemetry_jsonl_ns_per_record() -> float:
    bus = TraceBus()
    path = ROOT / SCRATCH / "drive.jsonl"
    packet = Packet(7, "a", "b", 1500, seq=0, end_seq=1460, service_class=2)
    records = 10_000
    with TraceRecorder(bus, JsonlSink(path),
                       topics=(TOPIC_PACKET_ENQUEUE,)) as recorder:
        start = perf_counter()
        for index in range(records):
            bus.publish(TOPIC_PACKET_ENQUEUE, port="s0->h0", time=index,
                        packet=packet, queue=2, detail="",
                        queue_bytes=(0, 0, 1500, 0))
    elapsed = perf_counter() - start
    assert recorder.records_written == records
    return elapsed * 1e9 / records


def diagnosis_update_ns_per_pkt() -> float:
    sketch = PortDiagnosisSketch("s0->h0")
    packets = 30_000
    start = perf_counter()
    for index in range(packets):
        now = index * 12_000
        sketch.record_enqueue(now, index % 4, index % 64, 1500, 30_000,
                              40_000)
        sketch.record_dequeue(now + 6_000, index % 4, index % 64, 1500,
                              6_000, 28_500, 40_000)
    return (perf_counter() - start) * 1e9 / packets


# -- snapshot -------------------------------------------------------------

def snapshot_save_load_ms() -> Tuple[float, float]:
    """Save and load the world of a finished small FCT cell."""
    from .probe import PortBus
    bus = PortBus()
    run_fct_experiment("dynaq", load=0.6, num_flows=20, seed=1, trace=bus,
                       distribution=WEB_SEARCH.truncated(1_000_000))
    world = [port.peer for port in bus.ports] + bus.ports
    manager = SnapshotManager()
    path = ROOT / SCRATCH / "drive.snap"
    saves, loads = [], []
    for _ in range(REPEAT):
        start = perf_counter()
        manager.save(world, path, kind="drive")
        saves.append(perf_counter() - start)
        start = perf_counter()
        manager.load(path, expect_kind="drive")
        loads.append(perf_counter() - start)
    return min(saves) * 1e3, min(loads) * 1e3


# -- experiments, serve, cli ----------------------------------------------

def _noop_specs(count: int, salt: str) -> List[JobSpec]:
    return [JobSpec(f"noop:{salt}:{index}", "callable",
                    {"target": "bench.drives:noop",
                     "kwargs": {"index": index, "salt": salt}})
            for index in range(count)]


def experiments_job_overhead_ms() -> float:
    """Spawn, import, pickle and pipe for a job that does nothing."""
    jobs = 4
    start = perf_counter()
    outcomes = parallel_map(_noop_specs(jobs, "x"), jobs=2)
    elapsed = perf_counter() - start
    assert all(outcome.ok for outcome in outcomes), outcomes
    return elapsed * 1e3 / jobs


def experiments_codec_us_per_flow() -> float:
    from repro.experiments.testbed import FCTResult
    flows = 5_000
    collector = _collector(flows)
    result = FCTResult("DynaQ", 0.6, collector.summary(), flows, 0,
                       collector)
    kind = JOB_KINDS["fct"]
    start = perf_counter()
    kind.decode(json.loads(json.dumps(kind.encode(result))))
    return (perf_counter() - start) * 1e6 / flows


def serve_start_and_turnaround() -> Tuple[float, float, int]:
    """Daemon start (spawn -> accepting) and p50 no-op job turnaround."""
    start = perf_counter()
    process, socket_path = start_daemon(SCRATCH)
    try:
        client = ServeClient(socket_path)
        wait_listening(process, client)
        start_ms = (perf_counter() - start) * 1e3
        turnarounds = []
        for spec in _noop_specs(7, "serve"):
            began = perf_counter()
            response = client.submit("callable", spec.params, wait=True)
            turnarounds.append(perf_counter() - began)
            assert response.get("status") == "ok", response
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    turnarounds.sort()
    return (start_ms, turnarounds[len(turnarounds) // 2] * 1e3,
            len(turnarounds))


def cli_import_ms() -> float:
    def once() -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       cwd=ROOT, env=child_env(), check=True)
        return perf_counter() - start
    return quietest(once) * 1e3


def bench_feeder_ns_per_pkt() -> float:
    plan = replay.build_plan(1, scale=0.1)
    return replay.feeder_seconds(plan) * 1e9 / plan.arrivals


def run_all() -> Dict[str, float]:
    (ROOT / SCRATCH).mkdir(parents=True, exist_ok=True)
    values: Dict[str, float] = {}
    for name, run in (
            ("sim.schedule_pop_ns", sim_schedule_pop_ns),
            ("sim.deep_ns", sim_deep_ns),
            ("sim.cancel_ns", sim_cancel_ns),
            ("net.port_ns_per_pkt_mtu", net_port_ns_per_pkt_mtu),
            ("net.port_ns_per_pkt_min", net_port_ns_per_pkt_min),
            ("net.forward_ns", net_forward_ns),
            ("queueing.select_ns", queueing_select_ns),
            ("transport.tcp_ns_per_segment", transport_tcp_ns_per_segment),
            ("workloads.gen_us_per_flow", workloads_gen_us_per_flow),
            ("metrics.fct_summary_us_per_flow",
             metrics_fct_summary_us_per_flow),
            ("telemetry.publish_silent_ns", telemetry_publish_silent_ns),
            ("telemetry.jsonl_ns_per_record", telemetry_jsonl_ns_per_record),
            ("diagnosis.update_ns_per_pkt", diagnosis_update_ns_per_pkt),
            ("experiments.codec_us_per_flow", experiments_codec_us_per_flow),
            ("bench.feeder_ns_per_pkt", bench_feeder_ns_per_pkt)):
        values[name] = quietest(run)
    admits = [core_admit() for _ in range(REPEAT)]
    values["core.admit_ns"] = min(plain for plain, _steal in admits)
    values["core.admit_steal_ns"] = min(steal for _plain, steal in admits)
    values["snapshot.save_ms"], values["snapshot.load_ms"] = (
        snapshot_save_load_ms())
    values["experiments.job_overhead_ms"] = experiments_job_overhead_ms()
    (values["serve.start_ms"], values["serve.turnaround_p50_ms"],
     values["serve.turnaround_n"]) = serve_start_and_turnaround()
    values["cli.import_ms"] = cli_import_ms()
    return {name: values[name] for name in UNITS}


def main(args) -> int:
    values = run_all()
    if args.json:
        print(json.dumps(values))
    else:
        for name, value in values.items():
            print(f"{name:<34}{value:>12.2f} {UNITS[name]}")
    return 0
