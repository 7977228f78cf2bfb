"""Differential tests: batched link advance vs per-packet transmission.

``PerfConfig.batched_link_advance`` lets the egress port commit several
back-to-back transmissions in one pass with a single completion event.
The contract is exact equivalence with per-packet execution: identical
delivery timeline, identical counters (suppressed events are credited
back), and identical behaviour under every mid-batch disturbance — an
off-period arrival, a link fault splitting the batch on the wire, a
weight reconfiguration, or a snapshot/restore of the running world.
"""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dynaq import DynaQBuffer
from repro.net.port import EgressPort
from repro.perf.config import PerfConfig, use_config
from repro.queueing.schedulers.drr import DRRScheduler
from repro.sim.engine import Simulator

from conftest import make_packet


class TimedSink:
    """Timing-sensitive receiver: logs each delivery with its instant."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def receive(self, packet):
        self.log.append((self.sim.now, packet.service_class,
                         packet.size, packet.flow_id))


class ManySink:
    """Opt-in coalesced receiver (the ``receive_many`` contract):
    declares delivery-time insensitivity, so it logs order only — in
    both entry points, since stragglers still arrive via ``receive``."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def receive(self, packet):
        self.log.append((packet.service_class, packet.size,
                         packet.flow_id))

    def receive_many(self, packets):
        for packet in packets:
            self.receive(packet)


def _world(*, batched, sink_cls=TimedSink, buffer_bytes=30_000):
    cfg = PerfConfig(batched_link_advance=batched)
    with use_config(cfg):
        sim = Simulator()
        port = EgressPort(
            sim, "p", rate_bps=10 ** 9, prop_delay_ns=1_000,
            buffer_bytes=buffer_bytes,
            scheduler=DRRScheduler([1500] * 4),
            buffer_manager=DynaQBuffer())
        sink = sink_cls(sim)
        port.connect(sink)
    return sim, port, sink


def _counters(sim, port, sink):
    manager = port.buffer_manager
    return {
        "enqueued": port.enqueued_packets,
        "dropped": port.dropped_packets,
        "transmitted": port.transmitted_packets,
        "tx_bytes": port.transmitted_bytes,
        "inflight_losses": port.inflight_losses,
        "events": sim.events_executed,
        "steals": manager.threshold_moves,
        "protected_drops": manager.protected_drops,
        "log": tuple(sink.log),
    }


def _feed(sim, port, arrivals):
    for i, (time_ns, queue, size) in enumerate(arrivals):
        sim.at(time_ns, port.send,
               make_packet(size, flow_id=i, service_class=queue))


ARRIVALS = st.lists(
    st.tuples(st.integers(0, 4),        # gap, in 6 us steps
              st.integers(0, 3),        # service class
              st.integers(64, 3000)),   # size
    min_size=1, max_size=80)


def _materialise(steps):
    clock = 0
    arrivals = []
    for gap, queue, size in steps:
        clock += gap * 6_000
        arrivals.append((clock, queue, size))
    return arrivals


@settings(max_examples=30, deadline=None)
@given(steps=ARRIVALS)
def test_batched_matches_per_packet_on_random_traffic(steps):
    """Same arrivals → same per-packet delivery timeline and counters.

    The 6 us gap grid makes repeated gaps common, so the port's arrival
    predictor locks on and real batches form (gap 0 stacks same-instant
    arrivals; large gaps force drains and fresh trains)."""
    arrivals = _materialise(steps)
    results = []
    for batched in (False, True):
        sim, port, sink = _world(batched=batched)
        _feed(sim, port, arrivals)
        sim.run()
        assert port.total_bytes() == 0
        results.append(_counters(sim, port, sink))
    assert results[0] == results[1]


def _burst_train(bursts=10, k=4, period=100_000, size=1500):
    """``k`` same-instant arrivals every ``period``: each burst drains
    back to back (k x 12 us of wire time at 1 Gbps), so the batched port
    coalesces the run, while the inter-burst period gives the arrival
    predictor a stable bound."""
    return [(b * period, i % 2, size)
            for b in range(bursts) for i in range(k)]


def test_burst_train_actually_batches():
    """On a predictable burst train the batched port must coalesce:
    fewer real events scheduled, with the suppressed ones credited back
    so ``events_executed`` still matches per-packet execution."""
    scheduled = {}
    executed = {}
    for batched in (False, True):
        sim, port, sink = _world(batched=batched)
        _feed(sim, port, _burst_train())
        sim.run()
        scheduled[batched] = sim.events_scheduled
        executed[batched] = sim.events_executed
    assert scheduled[True] < scheduled[False]
    assert executed[True] == executed[False]


def test_mid_batch_arrival_unwinds_exactly():
    """An off-period arrival landing mid-batch rolls the uncommitted
    suffix back; admission then sees per-packet-exact state."""
    # Back-to-back burst at t=0 keeps the wire busy; the predictor sees
    # period 0 within the burst, then a lone straggler lands while a
    # drain batch is in flight.
    arrivals = _burst_train(bursts=4, k=4)
    arrivals.append((2 * 100_000 + 17_300, 3, 300))   # mid-drain straggler
    results = []
    for batched in (False, True):
        sim, port, sink = _world(batched=batched)
        _feed(sim, port, arrivals)
        sim.run()
        results.append(_counters(sim, port, sink))
    assert results[0] == results[1]
    assert results[0]["transmitted"] > 0


def test_link_down_mid_batch_splits_on_the_wire():
    """A fault while a batch is mid-pipe must lose exactly the packets
    per-packet execution loses: delivered prefix arrives, the rest are
    in-flight losses."""
    arrivals = _burst_train(bursts=8, k=4)
    results = []
    for batched in (False, True):
        sim, port, sink = _world(batched=batched)
        _feed(sim, port, arrivals)
        # Mid-drain, off the arrival grid, while transmissions are
        # queued back to back and at least one packet rides the wire.
        sim.at(3 * 100_000 + 17_300, port.set_link_down)
        sim.at(5 * 100_000 - 1, port.set_link_up)
        sim.run()
        results.append(_counters(sim, port, sink))
    assert results[0] == results[1]
    assert results[0]["inflight_losses"] > 0
    assert results[0]["dropped"] > results[0]["inflight_losses"]


def test_reconfigure_weights_mid_batch():
    """A scheduler reconfiguration mid-batch unwinds the uncommitted
    tail and reselects under the new weights, exactly like per-packet."""
    arrivals = _burst_train(bursts=6, k=4)
    results = []
    for batched in (False, True):
        sim, port, sink = _world(batched=batched)
        _feed(sim, port, arrivals)
        sim.at(2 * 100_000 + 17_300, port.reconfigure_weights,
               [300.0, 3000.0, 1500.0, 1500.0])
        sim.run()
        results.append(_counters(sim, port, sink))
    assert results[0] == results[1]


def test_receive_many_contract_keeps_counters_and_order():
    """A ``receive_many`` receiver gets whole batches in one call; the
    packet order and all counters still match per-packet execution."""
    arrivals = _burst_train(bursts=8, k=4)
    results = []
    for batched in (False, True):
        sim, port, sink = _world(batched=batched, sink_cls=ManySink)
        _feed(sim, port, arrivals)
        sim.run()
        results.append(_counters(sim, port, sink))
    assert results[0] == results[1]
    assert len(results[0]["log"]) == 32


def test_send_many_burst_equals_individual_sends():
    """``send_many`` (the burst entry point, with its drop-memo fast
    path) must make the same admit/drop choices as one ``send`` per
    packet — including under drop storms that exercise the memo."""
    # A tiny buffer forces sustained drops; repeated (queue, size) pairs
    # within each burst are what the memo caches.
    bursts = [[make_packet(1200, flow_id=b * 16 + i,
                           service_class=i % 4)
               for i in range(16)] for b in range(8)]
    results = []
    for use_burst in (False, True):
        sim, port, sink = _world(batched=True, buffer_bytes=6_000)
        for b, burst in enumerate(bursts):
            clones = [make_packet(p.size, flow_id=p.flow_id,
                                  service_class=p.service_class)
                      for p in burst]
            if use_burst:
                sim.at(b * 40_000, port.send_many, clones)
            else:
                for p in clones:
                    sim.at(b * 40_000, port.send, p)
        sim.run()
        counters = _counters(sim, port, sink)
        # The feeder itself differs (one burst event vs sixteen sends),
        # so the simulator event count is harness noise here; everything
        # the port decided must still be identical.
        del counters["events"]
        results.append(counters)
    assert results[0] == results[1]
    assert results[0]["dropped"] > 0


@settings(max_examples=60, deadline=None)
@given(bursts=st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from([300, 1500])),
             min_size=1, max_size=24),
    min_size=1, max_size=6))
@example(bursts=[[(0, 300), (1, 300), (1, 1500), (3, 300), (0, 300),
                  (0, 300), (0, 300), (0, 300), (1, 1500), (1, 300),
                  (0, 1500), (1, 300)]])
def test_send_many_matches_individual_sends_on_random_bursts(bursts):
    """Random drop storms: a memoised repeat-pure drop must not outlive a
    "port buffer full" drop whose admit() stole threshold first."""
    results = []
    for use_burst in (False, True):
        sim, port, sink = _world(batched=True, buffer_bytes=6_000)
        for b, burst in enumerate(bursts):
            packets = [make_packet(size, flow_id=b * 100 + i,
                                   service_class=queue)
                       for i, (queue, size) in enumerate(burst)]
            if use_burst:
                sim.at(b * 40_000, port.send_many, packets)
            else:
                for packet in packets:
                    sim.at(b * 40_000, port.send, packet)
        sim.run()
        counters = _counters(sim, port, sink)
        del counters["events"]
        results.append(counters)
    assert results[0] == results[1]


def test_snapshot_restore_mid_batch_resumes_identically():
    """Pickling the world while a batch is in flight and resuming the
    restored copy must finish with the per-packet-identical timeline."""
    arrivals = _burst_train(bursts=8, k=4)

    sim, port, sink = _world(batched=False)
    _feed(sim, port, arrivals)
    sim.run()
    reference = _counters(sim, port, sink)

    sim, port, sink = _world(batched=True)
    _feed(sim, port, arrivals)
    sim.run(until=3 * 100_000 + 17_300)   # mid-train, mid-drain
    sim, port, sink = pickle.loads(pickle.dumps((sim, port, sink)))
    sim.run()
    restored = _counters(sim, port, sink)
    assert restored == reference
