"""Tests for fairness, FCT statistics, throughput and queue-length meters."""

import pytest

from repro.metrics.collector import DropMarkCollector
from repro.metrics.fairness import (
    jain_index,
    throughput_shares,
    weighted_jain_index,
)
from repro.metrics.fct import (
    FCTCollector,
    mean_fct_ms,
    normalize_to,
    percentile_fct_ms,
)
from repro.metrics.queuelen import QueueLengthSampler
from repro.metrics.throughput import PortThroughputMeter
from repro.net.port import EgressPort
from repro.queueing.besteffort import BestEffortBuffer
from repro.queueing.schedulers.drr import DRRScheduler
from repro.sim.engine import Simulator
from repro.sim.trace import TOPIC_PACKET_DROP, TraceBus

from conftest import make_packet


# -- Jain index --------------------------------------------------------------

def test_jain_perfect_fairness():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)


def test_jain_total_unfairness():
    assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)


def test_jain_known_value():
    # (1+2+3)^2 / (3 * (1+4+9)) = 36/42
    assert jain_index([1, 2, 3]) == pytest.approx(36 / 42)


def test_jain_empty_and_zero():
    assert jain_index([]) == 1.0
    assert jain_index([0, 0]) == 1.0


def test_jain_rejects_negative():
    with pytest.raises(ValueError):
        jain_index([-1, 2])


def test_weighted_jain_scores_weighted_shares_as_fair():
    # Rates exactly proportional to weights 4:3:2:1 -> perfect score.
    assert weighted_jain_index([4, 3, 2, 1],
                               [4, 3, 2, 1]) == pytest.approx(1.0)


def test_weighted_jain_penalises_equal_split_under_weights():
    score = weighted_jain_index([1, 1, 1, 1], [4, 3, 2, 1])
    assert score < 0.9


def test_weighted_jain_validation():
    with pytest.raises(ValueError):
        weighted_jain_index([1], [1, 2])
    with pytest.raises(ValueError):
        weighted_jain_index([1, 1], [1, 0])


def test_throughput_shares():
    assert throughput_shares([3, 1]) == [0.75, 0.25]
    assert throughput_shares([0, 0]) == [0.0, 0.0]


# -- FCT statistics ------------------------------------------------------------

def filled_collector():
    collector = FCTCollector()
    collector.record(1, 50_000, 1_000_000)        # small, 1 ms
    collector.record(2, 100_000, 3_000_000)       # small (boundary), 3 ms
    collector.record(3, 1_000_000, 10_000_000)    # medium, 10 ms
    collector.record(4, 50_000_000, 400_000_000)  # large, 400 ms
    return collector


def test_flow_size_buckets():
    collector = filled_collector()
    assert len(collector.small_flows()) == 2
    assert len(collector.medium_flows()) == 1
    assert len(collector.large_flows()) == 1
    assert len(collector.all_flows()) == 4


def test_summary_values():
    summary = filled_collector().summary()
    assert summary["avg_overall_ms"] == pytest.approx(103.5)
    assert summary["avg_small_ms"] == pytest.approx(2.0)
    assert summary["avg_large_ms"] == pytest.approx(400.0)
    assert summary["p99_small_ms"] == pytest.approx(2.98, abs=0.01)


def test_summary_with_no_flows():
    summary = FCTCollector().summary()
    assert all(value is None for value in summary.values())


def test_mean_fct_empty():
    assert mean_fct_ms([]) is None


def test_percentile_interpolation():
    collector = FCTCollector()
    for i in range(1, 101):
        collector.record(i, 1_000, i * 1_000_000)
    assert percentile_fct_ms(collector.records, 50) == pytest.approx(50.5)
    assert percentile_fct_ms(collector.records, 99) == pytest.approx(99.01)
    assert percentile_fct_ms(collector.records, 100) == pytest.approx(100.0)
    assert percentile_fct_ms(collector.records, 0) == pytest.approx(1.0)


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile_fct_ms(filled_collector().records, 150)


def test_negative_fct_rejected():
    with pytest.raises(ValueError):
        FCTCollector().record(1, 100, -5)


def test_normalize_to():
    assert normalize_to(2.0, 3.0) == 1.5
    assert normalize_to(None, 3.0) is None
    assert normalize_to(2.0, None) is None
    assert normalize_to(0.0, 3.0) is None


# -- port meters -----------------------------------------------------------------

def metered_port():
    sim = Simulator()
    trace = TraceBus()
    port = EgressPort(
        sim, "p0", rate_bps=10 ** 9, prop_delay_ns=0, buffer_bytes=100_000,
        scheduler=DRRScheduler([1500] * 2),
        buffer_manager=BestEffortBuffer(), trace=trace)

    class Sink:
        def receive(self, packet):
            pass

    port.connect(Sink())
    return sim, port


def test_throughput_meter_measures_rate():
    sim, port = metered_port()
    meter = PortThroughputMeter(sim, port, interval_ns=1_000_000)  # 1 ms

    def inject():
        port.send(make_packet(1500, service_class=0))
        if sim.now < 900_000:
            sim.schedule(12_000, inject)  # back-to-back at line rate

    inject()
    sim.run(until=1_000_000)
    sample = meter.samples[0]
    # Line-rate injection into queue 0 -> ~1 Gbps measured.
    assert sample.per_queue_bps[0] == pytest.approx(1e9, rel=0.1)
    assert sample.per_queue_bps[1] == 0.0
    assert sample.aggregate_bps == sample.per_queue_bps[0]


def test_throughput_meter_trace_requirement():
    # The meter reads the port's transmit counters directly, so a port
    # without a trace bus can be metered.
    sim = Simulator()
    port = EgressPort(
        sim, "p", rate_bps=10 ** 9, prop_delay_ns=0, buffer_bytes=10_000,
        scheduler=DRRScheduler([1500]), buffer_manager=BestEffortBuffer())
    assert port.trace is None
    meter = PortThroughputMeter(sim, port, interval_ns=1_000)
    assert meter.samples == []


def test_throughput_meter_interval_validation():
    sim, port = metered_port()
    with pytest.raises(ValueError):
        PortThroughputMeter(sim, port, interval_ns=0)


def test_queue_length_sampler_records_events():
    sim, port = metered_port()
    sampler = QueueLengthSampler(port)
    for _ in range(3):
        port.send(make_packet(1500, service_class=1))
    sim.run()
    # 3 enqueues + 3 dequeues = 6 samples.
    assert len(sampler.samples) == 6
    assert sampler.peak_occupancy(1) == 3_000  # two buffered behind one
    assert sampler.mean_occupancy(1) > 0
    assert sampler.series(0) == [0] * 6


def test_queue_length_sampler_max_samples():
    sim, port = metered_port()
    sampler = QueueLengthSampler(port, max_samples=2)
    for _ in range(5):
        port.send(make_packet(1500))
    sim.run()
    assert len(sampler.samples) == 2


def test_drop_mark_collector():
    trace = TraceBus()
    collector = DropMarkCollector(trace)
    trace.publish(TOPIC_PACKET_DROP, port="p0", time=0,
                  packet=make_packet(), queue=0, detail="port buffer full",
                  queue_bytes=(0,))
    assert collector.total_drops == 1
    assert collector.drops_by_reason["port buffer full"] == 1
    summary = collector.as_dict()
    assert summary["drops"] == 1 and summary["marks"] == 0
    assert summary["drops_by_reason"] == {"port buffer full": 1}
    assert summary["drops_by_port"] == {"p0": 1}
    assert summary["marks_by_port"] == {}
