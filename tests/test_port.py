"""Unit tests for the multi-queue egress port."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dynaq import DynaQBuffer
from repro.net.packet import Packet
from repro.net.port import EgressPort
from repro.perf.config import FAST, REFERENCE, use_config
from repro.queueing.besteffort import BestEffortBuffer
from repro.queueing.schedulers.drr import DRRScheduler
from repro.queueing.schedulers.spq import SPQScheduler
from repro.queueing.tcn import TCNBuffer
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.sim.trace import (
    TOPIC_PACKET_DEQUEUE,
    TOPIC_PACKET_DROP,
    TOPIC_PACKET_ENQUEUE,
    TraceBus,
)
from repro.sim.units import microseconds

from conftest import make_packet


class SinkNode:
    """Records delivered packets with their arrival time."""

    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def receive(self, packet):
        self.packets.append((self.sim.now, packet))


def make_port(sim, *, rate_bps=10 ** 9, prop_delay_ns=1_000,
              buffer_bytes=85_000, scheduler=None, manager=None,
              trace=None):
    port = EgressPort(
        sim, "p0", rate_bps=rate_bps, prop_delay_ns=prop_delay_ns,
        buffer_bytes=buffer_bytes,
        scheduler=scheduler or DRRScheduler([1500] * 4),
        buffer_manager=manager or BestEffortBuffer(), trace=trace)
    sink = SinkNode(sim)
    port.connect(sink)
    return port, sink


def test_single_packet_latency():
    sim = Simulator()
    port, sink = make_port(sim)
    port.send(make_packet(1500))
    sim.run()
    # 12 us transmission + 1 us propagation.
    assert sink.packets[0][0] == 12_000 + 1_000


def test_unconnected_port_raises():
    sim = Simulator()
    port = EgressPort(
        sim, "p", rate_bps=10 ** 9, prop_delay_ns=0, buffer_bytes=1000,
        scheduler=DRRScheduler([1500]), buffer_manager=BestEffortBuffer())
    with pytest.raises(ConfigurationError):
        port.send(make_packet(100))


def test_bad_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        EgressPort(sim, "p", rate_bps=0, prop_delay_ns=0,
                   buffer_bytes=1000, scheduler=DRRScheduler([1500]),
                   buffer_manager=BestEffortBuffer())


def test_back_to_back_packets_serialize():
    sim = Simulator()
    port, sink = make_port(sim)
    port.send(make_packet(1500))
    port.send(make_packet(1500))
    sim.run()
    times = [t for t, _ in sink.packets]
    assert times == [13_000, 25_000]


def test_occupancy_accounting():
    sim = Simulator()
    port, _ = make_port(sim)
    port.send(make_packet(1500, service_class=0))
    port.send(make_packet(1500, service_class=1))
    # First packet dequeues immediately (port idle); second is buffered.
    assert port.total_bytes() == 1500
    sim.run()
    assert port.total_bytes() == 0
    assert port.queue_bytes(0) == 0
    assert port.queue_bytes(1) == 0


def test_classifier_clips_to_queue_count():
    sim = Simulator()
    port, sink = make_port(sim)
    port.send(make_packet(1500, service_class=99))
    sim.run()
    assert port.transmitted_packets == 1


def test_custom_classifier():
    sim = Simulator()
    port, _ = make_port(sim)
    port.set_classifier(lambda packet: 2)
    port.send(make_packet(1500, service_class=0))
    port.send(make_packet(1500, service_class=0))
    assert port.queue_bytes(2) == 1500  # second packet buffered in q2


def test_drop_counted_and_not_delivered():
    sim = Simulator()
    port, sink = make_port(sim, buffer_bytes=3_000)
    for _ in range(4):
        port.send(make_packet(1500))
    sim.run()
    # One in flight + two buffered; the fourth exceeded the 3 KB buffer.
    assert port.dropped_packets == 1
    assert len(sink.packets) == 3


def test_work_conservation_across_queues():
    sim = Simulator()
    port, sink = make_port(sim)
    for service_class in (0, 1, 2, 3):
        port.send(make_packet(1500, service_class=service_class))
    sim.run()
    assert len(sink.packets) == 4
    assert port.transmitted_bytes == 6_000


def test_spq_dequeue_order():
    sim = Simulator()
    port, sink = make_port(sim, scheduler=SPQScheduler(4))
    # Fill while the port is busy with a low-priority packet.
    port.send(make_packet(1500, service_class=3))
    port.send(make_packet(1500, service_class=2, flow_id=2))
    port.send(make_packet(1500, service_class=0, flow_id=1))
    sim.run()
    flow_order = [p.flow_id for _, p in sink.packets]
    assert flow_order == [0, 1, 2]


def test_trace_topics_published():
    sim = Simulator()
    trace = TraceBus()
    events = {"enq": 0, "deq": 0, "drop": 0}
    trace.subscribe(TOPIC_PACKET_ENQUEUE,
                    lambda **kw: events.__setitem__("enq", events["enq"] + 1))
    trace.subscribe(TOPIC_PACKET_DEQUEUE,
                    lambda **kw: events.__setitem__("deq", events["deq"] + 1))
    trace.subscribe(TOPIC_PACKET_DROP,
                    lambda **kw: events.__setitem__("drop", events["drop"] + 1))
    port, _ = make_port(sim, buffer_bytes=3_000, trace=trace)
    for _ in range(4):
        port.send(make_packet(1500))
    sim.run()
    assert events == {"enq": 3, "deq": 3, "drop": 1}


def test_ecn_mark_only_on_capable_packets():
    sim = Simulator()

    class AlwaysMark(BestEffortBuffer):
        def admit(self, packet, queue_index):
            decision = super().admit(packet, queue_index)
            decision.mark = True
            return decision

    port, sink = make_port(sim, manager=AlwaysMark())
    port.send(make_packet(1500, ecn=True))
    port.send(make_packet(1500, ecn=False, flow_id=1))
    sim.run()
    marked = {p.flow_id: p.ecn_ce for _, p in sink.packets}
    assert marked == {0: True, 1: False}


@pytest.mark.parametrize("base", [DynaQBuffer, BestEffortBuffer])
@pytest.mark.parametrize("burst", [False, True])
def test_overriding_admit_opts_out_of_inline_admission(base, burst):
    """A subclass whose admit marks every accept inherits its parent's
    inline-admission contract, but the port must not skip the override:
    FAST marks exactly what REFERENCE marks, per packet and per burst."""
    from repro.perf.config import FAST, REFERENCE, use_config
    from repro.queueing.base import Decision

    class MarkAll(base):
        def admit(self, packet, queue_index):
            decision = super().admit(packet, queue_index)
            return Decision.accepted(mark=True) if decision.accept \
                else decision

    marks = {}
    for mode, config in (("REFERENCE", REFERENCE), ("FAST", FAST)):
        with use_config(config):
            sim = Simulator()
            port, sink = make_port(sim, manager=MarkAll())
            packets = [make_packet(1500, flow_id=i, service_class=i % 4,
                                   ecn=True) for i in range(8)]
            if burst:
                port.send_many(packets)
            else:
                for packet in packets:
                    port.send(packet)
            sim.run()
            marks[mode] = sum(p.ecn_ce for _, p in sink.packets)
    assert marks == {"REFERENCE": 8, "FAST": 8}


def test_declaring_managers_keep_inline_admission():
    """The managers that declare the contracts (DynaQ, the evicting
    subclass that re-declares them, BestEffort) stay on the fast path."""
    from repro.core.eviction import DynaQEvictBuffer
    from repro.perf.config import FAST, use_config

    with use_config(FAST):
        for manager in (DynaQBuffer(), DynaQEvictBuffer(),
                        BestEffortBuffer()):
            port, _ = make_port(Simulator(), manager=manager)
            assert port._fast_admit is manager, type(manager).__name__


def test_class_level_admit_wrapper_keeps_inline_admission(monkeypatch):
    """A wrapper installed on the declaring class itself (a profiler's
    span, a timing probe) is still the owner's admit, so a traced run
    keeps the untraced fast path; an overriding subclass still opts out."""
    from repro.core.eviction import DynaQEvictBuffer
    from repro.perf.config import FAST, use_config

    original = DynaQBuffer.admit

    def wrapped(manager, packet, queue_index):
        return original(manager, packet, queue_index)

    monkeypatch.setattr(DynaQBuffer, "admit", wrapped)

    class Override(DynaQBuffer):
        def admit(self, packet, queue_index):
            return super().admit(packet, queue_index)

    with use_config(FAST):
        for manager in (DynaQBuffer(), DynaQEvictBuffer()):
            port, _ = make_port(Simulator(), manager=manager)
            assert port._fast_admit is manager, type(manager).__name__
        port, _ = make_port(Simulator(), manager=Override())
        assert port._fast_admit is None


def test_tcn_dequeue_drop_wastes_transmission_slot():
    """The drop variant idles the wire for the dropped packet's slot."""
    sim = Simulator()
    manager = TCNBuffer(rtt_ns=microseconds(500), drop_variant=True)
    # 48 Mbps: one 1500 B packet occupies the wire for 250 us, so the
    # second packet's sojourn time exceeds the 240 us threshold.
    port, sink = make_port(sim, rate_bps=48_000_000, manager=manager)
    port.send(make_packet(1500, flow_id=0))
    port.send(make_packet(1500, flow_id=1))
    port.send(make_packet(1500, flow_id=2))
    sim.run()
    # Flows 1 and 2 aged past the threshold and were dropped at dequeue.
    assert manager.dequeue_drops == 2
    assert [p.flow_id for _, p in sink.packets] == [0]
    # The wasted slots still consumed wire time: the single delivered
    # packet plus nothing else, yet the port stayed "busy" three slots.
    assert port.dropped_packets == 2


def test_dynaq_port_integration_thresholds_move():
    sim = Simulator()
    manager = DynaQBuffer()
    port, sink = make_port(sim, manager=manager, buffer_bytes=12_000)
    # Queue 0's initial threshold is 3 KB; the third packet triggers a
    # threshold steal from an idle queue rather than a drop.
    for _ in range(5):
        port.send(make_packet(1500, service_class=0))
    assert manager.threshold_moves >= 1
    assert manager.threshold_sum() == 12_000
    sim.run()
    assert len(sink.packets) == 5


def test_packet_enqueued_at_stamped():
    sim = Simulator()
    port, _ = make_port(sim)
    packet = make_packet(1500)
    sim.schedule(7_000, port.send, packet)
    sim.run()
    assert packet.enqueued_at == 7_000


def test_tx_cache_stays_bounded_under_size_sweep():
    """A sweep over many distinct packet sizes must not grow the
    transmission-time memo without bound (it is cleared at the cap, not
    evicted, since real traffic uses a handful of sizes)."""
    from repro.net.port import _TX_CACHE_CAP

    sim = Simulator()
    port, sink = make_port(sim, buffer_bytes=10 ** 9)
    clock = 0
    for size in range(64, 64 + 4 * _TX_CACHE_CAP):
        clock += 100_000
        sim.at(clock, port.send, make_packet(size))
    sim.run()
    assert len(sink.packets) == 4 * _TX_CACHE_CAP
    assert len(port._tx_cache) <= _TX_CACHE_CAP
    # The cache still answers correctly after the clears.
    from repro.sim.units import transmission_time
    for size, tx_ns in port._tx_cache.items():
        assert tx_ns == transmission_time(size, port.link_rate_bps)


# -- differentials: burst entry point, FAST against REFERENCE -----------------

def _dynaq_port(sim, buffer_bytes=30_000, quanta=(1500,) * 4):
    return make_port(sim, buffer_bytes=buffer_bytes, manager=DynaQBuffer(),
                     scheduler=DRRScheduler(list(quanta)))


def _port_counters(sim, port, sink):
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
        "log": tuple((t, p.service_class, p.size, p.flow_id)
                     for t, p in sink.packets),
    }


def _burst_vs_sends(bursts):
    """Port counters with each burst offered once through ``send_many``
    and once as one ``send`` per packet, every burst 40 us apart."""
    results = []
    for use_burst in (False, True):
        sim = Simulator()
        port, sink = _dynaq_port(sim, buffer_bytes=6_000)
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
        counters = _port_counters(sim, port, sink)
        # The feeder itself differs (one burst event vs one per packet),
        # so the simulator event count is harness noise here; everything
        # the port decided must still be identical.
        del counters["events"]
        results.append(counters)
    return results


def test_send_many_burst_equals_individual_sends():
    """``send_many`` (the burst entry point, with its drop-memo fast
    path) must make the same admit/drop choices as one ``send`` per
    packet — including under drop storms that exercise the memo."""
    # A tiny buffer forces sustained drops; repeated (queue, size) pairs
    # within each burst are what the memo caches.
    results = _burst_vs_sends([[(i % 4, 1200) for i in range(16)]] * 8)
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
    results = _burst_vs_sends(bursts)
    assert results[0] == results[1]


ARRIVALS = st.lists(
    st.tuples(st.integers(0, 4),        # gap, in 6 us steps
              st.integers(0, 3),        # service class
              st.integers(64, 3000)),   # size
    min_size=1, max_size=80)


def _fast_vs_reference(steps, disturbance, when):
    """Port counters from the REFERENCE and the FAST port (inline DRR
    select, fused completion + delivery schedule, heap-scanned
    link-down) for the same arrivals and the same disturbance.

    The 6 us gap grid stacks same-instant arrivals and leaves drain gaps;
    unequal quanta make every DRR grant count.  The disturbance lands
    300 ns after one of the arrivals, off that grid: every packet takes
    at least 512 ns to serialise, so the port is mid-transmission then
    and a flap always catches a packet on the wire."""
    clock = 0
    arrivals = []
    for gap, queue, size in steps:
        clock += gap * 6_000
        arrivals.append((clock, queue, size))
    at = arrivals[when % len(arrivals)][0] + 300
    results = []
    for config in (REFERENCE, FAST):
        with use_config(config):
            sim = Simulator()
            port, sink = _dynaq_port(sim, quanta=(1500, 3000, 600, 1500))
        for i, (time_ns, queue, size) in enumerate(arrivals):
            sim.at(time_ns, port.send,
                   make_packet(size, flow_id=i, service_class=queue))
        if disturbance == "flap":
            sim.at(at, port.set_link_down)
            sim.at(at + 20_000, port.set_link_up)
        elif disturbance == "reweight":
            sim.at(at, port.reconfigure_weights,
                   [300.0, 3000.0, 1500.0, 1500.0])
        elif disturbance == "stall":
            sim.at(at, port.stall)
            sim.at(at + 20_000, port.resume)
        sim.run()
        assert port.total_bytes() == 0
        assert port.audit_conservation() == []
        results.append(_port_counters(sim, port, sink))
    return results


@settings(max_examples=50, deadline=None)
@given(steps=ARRIVALS, disturbance=st.sampled_from([None, "stall"]),
       when=st.integers(0, 79))
def test_fast_port_matches_reference_on_random_traffic(steps, disturbance,
                                                        when):
    """Same arrivals → the same delivery timeline and counters from the
    FAST and the REFERENCE port, undisturbed or across a stall."""
    results = _fast_vs_reference(steps, disturbance, when)
    assert results[0] == results[1]


@settings(max_examples=50, deadline=None)
@given(steps=ARRIVALS, when=st.integers(0, 79))
def test_fast_port_matches_reference_across_link_flap(steps, when):
    """A link flap mid-transmission loses exactly the same packets on
    the wire in FAST and REFERENCE, and both resume identically."""
    results = _fast_vs_reference(steps, "flap", when)
    assert results[0] == results[1]
    assert results[0]["inflight_losses"] > 0


@settings(max_examples=50, deadline=None)
@given(steps=ARRIVALS, when=st.integers(0, 79))
def test_fast_port_matches_reference_across_weight_reconfigure(steps, when):
    """A DRR weight reconfiguration mid-transmission reselects under the
    new weights identically in FAST and REFERENCE."""
    results = _fast_vs_reference(steps, "reweight", when)
    assert results[0] == results[1]
