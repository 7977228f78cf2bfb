"""Differential tests: fast path == reference path, bit for bit.

Four layers of evidence that the perf layer (``repro.perf``) changes
*speed* and nothing else:

1. the three victim-search implementations (linear argmax, hardware
   tournament, incremental top-2 tracker) agree on every update/query
   interleaving hypothesis can invent, ties and exclusions included;
2. a fig05-style end-to-end run produces a **sha256-identical** JSONL
   trace under ``reference_mode()`` and ``fast_mode()`` — every drop,
   enqueue, dequeue, threshold steal at the same simulated nanosecond
   with the same payload;
3. the throughput meter's batched-counter backend emits the same sample
   series as the per-packet subscriber backend, and nine deterministic
   engine and port workloads reproduce the operation counters committed
   in ``tests/data/op_counters.json`` exactly, under both modes;
4. two small FCT cells — a Fig. 8 star (SPQ/DRR switch ports, FIFO +
   BestEffort NICs) and a leaf-spine fabric with ECMP uplinks —
   reproduce the per-port counters, event count and FCT digest committed
   in ``tests/data/fct_cells.json``, under both modes.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.victim import (
    IncrementalVictim,
    linear_victim,
    tournament_victim,
)
from repro.experiments.runner import buffer_factory
from repro.experiments.simulation import LeafSpineConfig, run_leafspine_fct
from repro.experiments.testbed import run_fair_sharing, run_fct_experiment
from repro.metrics.throughput import PortThroughputMeter
from repro.net.packet import Packet
from repro.net.port import EgressPort
from repro.perf.config import (
    FAST,
    REFERENCE,
    fast_mode,
    reference_mode,
    use_config,
)
from repro.queueing.schedulers.drr import DRRScheduler
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.telemetry import JsonlSink, TraceRecorder
from repro.workloads.datasets import CACHE, WEB_SEARCH

# -- 1. victim-search equivalence under point updates -------------------------

values_strategy = st.integers(min_value=-(10 ** 6), max_value=10 ** 6)


@given(st.lists(values_strategy, min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                          values_strategy),
                max_size=40),
       st.integers(min_value=0, max_value=12))
def test_incremental_tracks_linear_and_tournament(initial, updates,
                                                  exclude_raw):
    """The tracker equals both searches after every point update."""
    tracker = IncrementalVictim(initial)
    vector = list(initial)
    exclude = exclude_raw if exclude_raw < len(vector) else None

    def check():
        expected = linear_victim(vector, exclude)
        assert tracker.query(exclude) == expected
        assert tournament_victim(vector, exclude) == expected
        # And with no exclusion, for good measure.
        assert tracker.query(None) == linear_victim(vector, None)

    check()
    for index_raw, value in updates:
        index = index_raw % len(vector)
        vector[index] = value
        tracker.update(index, value)
        check()


@given(st.integers(min_value=1, max_value=8), st.data())
def test_incremental_with_heavy_ties(size, data):
    """All-equal and near-equal vectors stress the tie-breaking order."""
    tracker = IncrementalVictim([0] * size)
    vector = [0] * size
    for _ in range(20):
        index = data.draw(st.integers(min_value=0, max_value=size - 1))
        value = data.draw(st.integers(min_value=-2, max_value=2))
        vector[index] = value
        tracker.update(index, value)
        for exclude in [None] + list(range(size)):
            assert tracker.query(exclude) == linear_victim(vector, exclude)


def test_incremental_reset_resyncs():
    tracker = IncrementalVictim([5, 1, 3])
    assert tracker.query() == 0
    tracker.reset([1, 9, 2, 9])
    assert tracker.query() == 1          # tie breaks to lower index
    assert tracker.query(exclude=1) == 3
    assert tracker.as_list() == [1, 9, 2, 9]


def test_incremental_single_queue():
    tracker = IncrementalVictim([7])
    assert tracker.query(exclude=0) is None
    tracker.update(0, -3)
    assert tracker.query() == 0


# -- 2. golden-trace hash: reference vs fast end to end -----------------------


def _traced_fig05_bytes(tmp_path: Path, label: str) -> bytes:
    """Small fig. 5 run with a full trace recording; returns the trace."""
    out = tmp_path / f"{label}.jsonl"
    trace = TraceBus()
    with TraceRecorder(trace, JsonlSink(out)):
        run_fair_sharing("dynaq", time_unit_s=0.02,
                         sample_interval_s=0.01, trace=trace)
    return out.read_bytes()


def _traced_fig05_run(tmp_path: Path, label: str) -> str:
    return hashlib.sha256(_traced_fig05_bytes(tmp_path, label)).hexdigest()


#: The one absolute anchor: every other trace hash in the suite compares
#: two runs through the same encoder, so an encoder change that moves
#: both alike passes them all.  The fixture holds every 1719th of the
#: trace's 68016 lines (threshold init and move, drop, enqueue,
#: dequeue), so a moved hash comes with a readable diff.
GOLDEN_FIG05_SHA256 = (
    "ba6d467ae4ebba5556a969c3c18c629b137cecf8bd0bd32050ae4c3ef8e3c90a")
GOLDEN_FIG05_STRIDE = 1719
GOLDEN_FIG05_LINES = (Path(__file__).parent / "data"
                      / f"fig05_trace_every_{GOLDEN_FIG05_STRIDE}th.jsonl")


def test_golden_trace_matches_committed_bytes(tmp_path):
    trace = _traced_fig05_bytes(tmp_path, "golden")
    lines = trace.splitlines(keepends=True)
    assert (lines[::GOLDEN_FIG05_STRIDE]
            == GOLDEN_FIG05_LINES.read_bytes().splitlines(keepends=True))
    assert hashlib.sha256(trace).hexdigest() == GOLDEN_FIG05_SHA256


def test_golden_trace_hash_reference_equals_fast(tmp_path):
    """The optimised datapath must leave no fingerprint in the trace."""
    with reference_mode():
        reference_hash = _traced_fig05_run(tmp_path, "reference")
    with fast_mode():
        fast_hash = _traced_fig05_run(tmp_path, "fast")
    assert reference_hash == fast_hash


# -- 3. meter backends and the op-counter golden ------------------------------

#: Every arrival is one MTU; one every 7.5 us offers ~1.6x a 1 Gbps link.
MTU = 1500
ARRIVAL_NS = 7_500
BURST = 16
OP_COUNTERS = Path(__file__).parent / "data" / "op_counters.json"


def _port(sim: Simulator, scheme: str, trace=None) -> EgressPort:
    """The testbed's wire: 1 Gbps, 5 us, 85 KB, 4-queue DRR."""
    return EgressPort(
        sim, "bench->sink", rate_bps=10 ** 9, prop_delay_ns=5_000,
        buffer_bytes=85_000, scheduler=DRRScheduler([float(MTU)] * 4),
        buffer_manager=buffer_factory(scheme, rtt_ns=500_000)(),
        trace=trace)


def _metered_run(batched: bool):
    sim = Simulator()
    port = _port(sim, "dynaq", TraceBus())

    class Sink:
        def receive(self, packet):
            pass

    port.connect(Sink())
    meter = PortThroughputMeter(sim, port, 200_000, batched=batched)
    for i in range(400):
        sim.at((i + 1) * 7_500, port.send,
               Packet(i, "m", "sink", 1500, service_class=i % 4))
    sim.run(until=5_000_000)
    return [(s.time_ns, s.per_queue_bps) for s in meter.samples]


def test_meter_backends_sample_identically():
    assert _metered_run(batched=True) == _metered_run(batched=False)


class _Sink:
    """Counts receipts."""

    received = 0

    def receive(self, packet) -> None:
        self.received += 1


class _Feeder:
    """One ``send_many`` of up to :data:`BURST` fresh packets per tick;
    the whole tick train plus one trailing no-op tick is scheduled up
    front.  ``None`` in ``classes`` leaves an arrival slot empty."""

    def __init__(self, sim: Simulator, port: EgressPort, classes) -> None:
        self.port = port
        self.sent = 0
        bursts = [[Packet(i + j, "bench", "sink", MTU, service_class=c)
                   for j, c in enumerate(classes[i:i + BURST])
                   if c is not None]
                  for i in range(0, len(classes), BURST)]
        self._bursts = iter(bursts)
        for tick in range(len(bursts) + 1):
            sim.schedule(ARRIVAL_NS * BURST * (tick + 1), self.tick)

    def tick(self) -> None:
        burst = next(self._bursts, None)
        if burst:
            self.port.send_many(burst)
            self.sent += len(burst)


def _event_loop() -> dict:
    """Four interleaved chains sharing one 50 000-tick countdown."""
    sim = Simulator()
    remaining = [50_000]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(10, tick)

    for _ in range(4):
        sim.schedule(10, tick)
    sim.run()
    return {"events": sim.events_executed}


def _replay(scheme: str, classes, *, traced: bool = False) -> dict:
    """Feed ``classes`` into one port; a traced run also meters it."""
    sim = Simulator()
    port = _port(sim, scheme, TraceBus() if traced else None)
    sink = _Sink()
    port.connect(sink)
    total = len(classes)
    meter = (PortThroughputMeter(sim, port, total * ARRIVAL_NS // 8)
             if traced else None)
    feeder = _Feeder(sim, port, classes)
    sim.run(until=(total + 50) * ARRIVAL_NS)
    ops = {"enqueued": port.enqueued_packets,
           "dropped": port.dropped_packets,
           "transmitted": port.transmitted_packets,
           "tx_bytes": port.transmitted_bytes,
           "received": sink.received,
           "events": sim.events_executed}
    manager = port.buffer_manager
    if hasattr(manager, "threshold_moves"):
        ops["steals"] = manager.threshold_moves
        ops["protected_drops"] = manager.protected_drops
    sketch = getattr(port, "_sketch", None)
    if sketch is not None:
        ops["sketch_updates"] = sketch.updates
        ops["sketch_snapshots"] = sketch.snapshots_taken
    ops["sent"] = feeder.sent
    if meter is not None:
        ops["meter_samples"] = len(meter.samples)
        ops["meter_digest"] = hash(tuple(
            (s.time_ns, s.per_queue_bps) for s in meter.samples))
    return ops


def _steal_storm(i: int) -> int:
    """512-arrival phases alternate two hot queues; a trickle keeps the
    other two active."""
    phase, slot = divmod(i, 512)
    return 2 + (slot // 8) % 2 if slot % 8 == 7 else phase % 2


def _fig05(total: int):
    """Queue k weighted 2^(k+1); queues stop in reverse order."""
    cumulative, stops = (2, 6, 14, 30), (1.0, 0.85, 0.7, 0.55)
    classes = []
    for i in range(total):
        slot = (i * 7919) % cumulative[-1]
        queue = next(q for q in range(4) if slot < cumulative[q])
        classes.append(queue if i < total * stops[queue] else None)
    return classes


def _workloads():
    n, fig05 = 20_000, _fig05(24_000)
    round_robin = [i % 4 for i in range(n)]
    return {
        "event_loop": _event_loop,
        "enqueue_dequeue_dynaq": lambda: _replay("dynaq", round_robin),
        "enqueue_dequeue_besteffort":
            lambda: _replay("besteffort", round_robin),
        "enqueue_dequeue_pql": lambda: _replay("pql", round_robin),
        "dynaq_steal_storm":
            lambda: _replay("dynaq", [_steal_storm(i) for i in range(n)]),
        "incast_burst": lambda: _replay(
            "dynaq", [i // 256 % 4 if i % 256 < 64 else None
                      for i in range(n)]),
        "fig05_traced": lambda: _replay("dynaq", fig05, traced=True),
        "fig05_untraced": lambda: _replay("dynaq", fig05),
        "fig05_diagnosed": lambda: _replay("dynaq", fig05, traced=True),
    }


def test_op_counters_match_golden_in_both_modes():
    """FAST ops == REFERENCE ops == the committed golden, per workload.
    Equality across modes alone misses a change to code both datapaths
    share; the golden catches it."""
    golden = json.loads(OP_COUNTERS.read_text())
    workloads = _workloads()
    assert sorted(workloads) == sorted(golden)
    for name, run in workloads.items():
        diagnosed = name == "fig05_diagnosed"
        for mode, config in (("REFERENCE", REFERENCE), ("FAST", FAST)):
            with use_config(config.clone(queue_diagnosis=diagnosed)):
                assert run() == golden[name], f"{name} under {mode}"


# -- 4. the FCT datapath golden -----------------------------------------------

FCT_CELLS = Path(__file__).parent / "data" / "fct_cells.json"


@pytest.fixture
def built_ports(monkeypatch):
    """Every EgressPort constructed while the test runs, in build order
    (REFERENCE ports register nothing on the trace bus to find them by)."""
    ports = []
    init = EgressPort.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        ports.append(self)

    monkeypatch.setattr(EgressPort, "__init__", recording_init)
    return ports


def _fct_cells(ports) -> dict:
    """Run both cells; per port ``[enqueued, dropped, transmitted,
    threshold moves]``, the event count and a digest of the FCTs."""
    cells = {
        "fig08_star": lambda: run_fct_experiment(
            "dynaq", load=0.6, num_flows=40, seed=1,
            distribution=WEB_SEARCH.truncated(1_000_000)),
        "leafspine_ecmp": lambda: run_leafspine_fct(
            "dynaq", load=0.5, num_flows=30, num_service_queues=3,
            config=LeafSpineConfig(num_leaves=2, num_spines=2,
                                   hosts_per_leaf=2, buffer_bytes=12_000),
            distributions=[WEB_SEARCH.truncated(300_000),
                           CACHE.truncated(300_000)], seed=1),
    }
    out = {}
    for name, run in cells.items():
        ports.clear()
        result = run()
        fcts = sorted((r.flow_id, r.fct_ns)
                      for r in result.collector.records)
        out[name] = {
            "events_executed": ports[0].sim.events_executed,
            "ports": {port.name: [
                port.enqueued_packets, port.dropped_packets,
                port.transmitted_packets,
                getattr(port.buffer_manager, "threshold_moves", 0)]
                for port in ports},
            "fct_sha256": hashlib.sha256(
                json.dumps(fcts).encode()).hexdigest(),
        }
    return out


def test_fct_cells_match_golden_in_both_modes(built_ports):
    """No other golden crosses SPQ/DRR switch ports, FIFO NICs or ECMP
    forwarding; this one pins them absolutely, in both modes."""
    golden = json.loads(FCT_CELLS.read_text())
    for mode, config in (("REFERENCE", REFERENCE), ("FAST", FAST)):
        with use_config(config):
            assert _fct_cells(built_ports) == golden, mode
