"""Tests for the chip-wide shared-memory buffer pool (§II-C substrate)."""

import pytest

from repro.net.port import EgressPort
from repro.net.shared_buffer import SharedBufferPool, attach_pool
from repro.queueing.besteffort import BestEffortBuffer
from repro.queueing.schedulers.drr import DRRScheduler
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.sim.units import gbps

from conftest import make_packet


# -- pool accounting -----------------------------------------------------------

def test_pool_validation():
    with pytest.raises(ConfigurationError):
        SharedBufferPool(0)
    with pytest.raises(ConfigurationError):
        SharedBufferPool(1000, alpha=0)


def test_reserve_and_release():
    pool = SharedBufferPool(10_000)
    pool.register("p0")
    assert pool.try_reserve("p0", 4_000)
    assert pool.usage_of("p0") == 4_000
    assert pool.free_bytes == 6_000
    pool.release("p0", 4_000)
    assert pool.free_bytes == 10_000


def test_unregistered_port_rejected():
    pool = SharedBufferPool(10_000)
    with pytest.raises(ConfigurationError):
        pool.try_reserve("ghost", 100)


def test_over_release_rejected():
    pool = SharedBufferPool(10_000)
    pool.register("p0")
    pool.try_reserve("p0", 100)
    with pytest.raises(ConfigurationError):
        pool.release("p0", 200)


def test_dt_threshold_shrinks_as_pool_fills():
    pool = SharedBufferPool(10_000, alpha=1.0)
    pool.register("p0")
    pool.register("p1")
    assert pool.port_threshold() == 10_000
    pool.try_reserve("p0", 4_000)
    assert pool.port_threshold() == 6_000
    # p0 is over the new allowance -> further growth rejected.
    assert not pool.try_reserve("p0", 3_000)
    # p1 is far below -> allowed.
    assert pool.try_reserve("p1", 3_000)
    assert pool.rejections == 1


def test_dt_converges_to_equal_split_for_greedy_ports():
    """Two saturated ports under DT alpha=1 settle near capacity/3 each
    (each threshold = free = B - 2x => x = B/3): DT's classic fixed point."""
    pool = SharedBufferPool(30_000, alpha=1.0)
    pool.register("a")
    pool.register("b")
    # Greedy 100-byte reservations, alternating.
    for _ in range(400):
        pool.try_reserve("a", 100)
        pool.try_reserve("b", 100)
    assert pool.usage_of("a") == pytest.approx(10_000, abs=500)
    assert pool.usage_of("b") == pytest.approx(10_000, abs=500)


def test_capacity_is_hard_limit():
    pool = SharedBufferPool(1_000, alpha=10.0)
    pool.register("p0")
    assert pool.try_reserve("p0", 900)
    assert not pool.try_reserve("p0", 200)


# -- attach_pool on real ports ------------------------------------------------------

class Sink:
    def receive(self, packet):
        pass


def make_pooled_ports(pool, count=2, buffer_bytes=50_000):
    sim = Simulator()
    ports = []
    for index in range(count):
        port = EgressPort(
            sim, f"p{index}", rate_bps=gbps(1), prop_delay_ns=0,
            buffer_bytes=buffer_bytes,
            scheduler=DRRScheduler([1500] * 2),
            buffer_manager=BestEffortBuffer())
        port.connect(Sink())
        attach_pool(port, pool)
        ports.append(port)
    return sim, ports


def test_pool_tracks_port_buffering():
    pool = SharedBufferPool(100_000)
    sim, (port, _) = make_pooled_ports(pool)
    for _ in range(4):
        port.send(make_packet(1500))
    # One packet is in flight (its reservation released on dequeue),
    # three are buffered.
    assert pool.usage_of("p0") == 3 * 1500
    sim.run()
    assert pool.usage_of("p0") == 0
    assert pool.total_usage == 0


def test_pool_rejection_counts_as_port_drop():
    pool = SharedBufferPool(4_000, alpha=10.0)
    sim, (port, _) = make_pooled_ports(pool)
    for _ in range(6):
        port.send(make_packet(1500))
    assert port.dropped_packets >= 1
    assert pool.total_usage <= 4_000


def test_aggressive_port_cannot_take_whole_pool():
    """The §II-C per-port fairness property DT provides at chip level."""
    pool = SharedBufferPool(30_000, alpha=1.0)
    sim, (hog, meek) = make_pooled_ports(pool, buffer_bytes=30_000)
    # The hog fills up first...
    for _ in range(40):
        hog.send(make_packet(1500))
    hog_usage = pool.usage_of("p0")
    assert hog_usage < 20_000  # DT stopped it well short of the pool
    # ...and the meek port can still buffer afterwards.
    for _ in range(4):
        meek.send(make_packet(1500))
    assert pool.usage_of("p1") >= 3 * 1500


def test_scheme_drop_returns_reservation():
    pool = SharedBufferPool(100_000)
    sim, (port, _) = make_pooled_ports(pool, buffer_bytes=3_000)
    for _ in range(5):
        port.send(make_packet(1500))   # port's own 3 KB cap drops some
    assert pool.usage_of("p0") <= 3_000


@pytest.mark.parametrize("capacity, count", [(100_000, 4), (4_000, 6)])
def test_send_many_reserves_like_send(capacity, count):
    """A burst through ``send_many`` reserves and releases pool memory
    exactly like one ``send`` per packet.  It used to bypass the pool,
    so the first dequeue released bytes nobody had reserved and
    raised."""
    outcomes = []
    for burst in (False, True):
        pool = SharedBufferPool(capacity, alpha=10.0)
        sim, (port, _) = make_pooled_ports(pool)
        packets = [make_packet(1500) for _ in range(count)]
        if burst:
            port.send_many(packets)
        else:
            for packet in packets:
                port.send(packet)
        buffered = pool.usage_of("p0")
        sim.run()
        outcomes.append((buffered, pool.usage_of("p0"), pool.rejections,
                         port.transmitted_packets, port.dropped_packets))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] > 0 and outcomes[0][1] == 0
