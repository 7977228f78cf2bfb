"""Chip-wide shared-memory buffering across ports.

The paper's related-work discussion (§II-C) covers switches whose ports
draw from one on-chip SRAM pool, managed by the Choudhury-Hahne dynamic
threshold (DT) algorithm *across ports*: a port may buffer up to
``alpha * (chip_buffer - total_occupancy)``.  The paper's critique is
twofold: (a) even a large per-port allowance cannot make *queues* share
fairly, and (b) an aggressive port can take buffer that other ports
need, harming per-port fairness.

:class:`SharedBufferPool` models the chip pool; ports join it and their
admission then checks three levels: the scheme's own per-queue logic,
the port-level DT allowance, and the physical pool.  This lets the
repo reproduce the §II-C argument experimentally (see
``tests/test_shared_buffer.py``) and lets DynaQ run *on top of* a
shared-memory chip, which is how it would deploy in practice.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.errors import ConfigurationError


class SharedBufferPool:
    """One switch chip's packet memory, shared by its egress ports."""

    def __init__(self, capacity_bytes: int, *, alpha: float = 1.0) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"pool capacity must be positive, got {capacity_bytes}")
        if alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        self.capacity_bytes = capacity_bytes
        self.alpha = alpha
        self._port_usage: Dict[str, int] = {}
        self.rejections = 0

    # -- membership ---------------------------------------------------------------

    def register(self, port_name: str) -> None:
        """Add a port to the pool (idempotent)."""
        self._port_usage.setdefault(port_name, 0)

    def port_names(self) -> List[str]:
        return sorted(self._port_usage)

    # -- accounting ----------------------------------------------------------------

    @property
    def total_usage(self) -> int:
        return sum(self._port_usage.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.total_usage

    def usage_of(self, port_name: str) -> int:
        return self._port_usage[port_name]

    def port_threshold(self) -> float:
        """The DT allowance currently applied to every port."""
        return self.alpha * max(self.free_bytes, 0)

    # -- admission ------------------------------------------------------------------

    def try_reserve(self, port_name: str, size: int) -> bool:
        """Reserve ``size`` bytes for a port if DT and capacity allow."""
        if port_name not in self._port_usage:
            raise ConfigurationError(
                f"port {port_name!r} is not registered with this pool")
        if size <= 0:
            raise ConfigurationError(f"size must be positive, got {size}")
        usage = self._port_usage[port_name]
        if usage + size > self.port_threshold():
            self.rejections += 1
            return False
        if self.total_usage + size > self.capacity_bytes:
            self.rejections += 1
            return False
        self._port_usage[port_name] = usage + size
        return True

    def release(self, port_name: str, size: int) -> None:
        """Return ``size`` bytes to the pool."""
        usage = self._port_usage[port_name]
        if size > usage:
            raise ConfigurationError(
                f"port {port_name!r} releasing {size} > usage {usage}")
        self._port_usage[port_name] = usage - size


def attach_pool(port, pool: SharedBufferPool) -> None:
    """Make an :class:`~repro.net.port.EgressPort` draw from ``pool``.

    Wraps the port's datapath so that every enqueue reserves pool memory
    (a DT rejection is accounted as a drop with reason ``"chip pool"``)
    and every dequeue/eviction releases it.  A burst through
    ``send_many`` goes through the pooled ``send`` once per packet.  The
    port's own ``buffer_bytes`` remains a hard per-port cap, as in real
    chips where per-port accounting limits exist alongside the pool.
    """
    pool.register(port.name)
    original_send = port.send
    original_transmit = port._transmit_next
    original_evict = port.evict_tail

    def pooled_send(packet) -> None:
        queue_index = port._classifier(packet)
        if not pool.try_reserve(port.name, packet.size):
            port.dropped_packets += 1
            from ..sim.trace import TOPIC_PACKET_DROP
            port._publish(TOPIC_PACKET_DROP, packet, queue_index,
                          "chip pool")
            return
        before = port.enqueued_packets
        original_send(packet)
        if port.enqueued_packets == before:
            # The port's own scheme dropped it; return the reservation.
            pool.release(port.name, packet.size)

    def pooled_transmit() -> None:
        buffered_before = port.total_bytes()
        original_transmit()
        freed = buffered_before - port.total_bytes()
        if freed > 0:
            pool.release(port.name, freed)

    def pooled_evict(queue_index: int):
        packet = original_evict(queue_index)
        if packet is not None:
            pool.release(port.name, packet.size)
        return packet

    def pooled_send_many(packets) -> None:
        for packet in packets:
            pooled_send(packet)

    port.send = pooled_send
    port.send_many = pooled_send_many
    port._transmit_next = pooled_transmit
    # The port caches its transmit-completion callback at construction
    # (it schedules _transmit_next directly); re-point it at the wrapper
    # so completions release pool memory too.
    port._tx_complete = pooled_transmit
    port.evict_tail = pooled_evict
