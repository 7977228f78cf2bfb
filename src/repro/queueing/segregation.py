"""Greedy class-segregation buffer sharing.

The greedy algorithms of the class-segregation family (Kesselman et
al., arXiv:1109.6060 / arXiv:1304.3172) manage one shared buffer over
packet *classes* of different values: admit while space exists; when
the buffer is full, greedily push out buffered packets of a strictly
lower-valued class to make room for a higher-valued arrival, preferring
victims holding the most buffer beyond their value-proportional
segment.  Here a queue's scheduler weight doubles as its class value
(override with ``values=``), so ``repro weighted --weights 4,3,2,1``
exercises real segregation while equal-weight scenarios degrade
gracefully to plain shared tail-drop.

Push-out reuses :meth:`~repro.net.port.EgressPort.evict_tail` exactly
like :class:`~repro.queueing.lqd.LQDBuffer`; without it (bare test
fakes) the policy is tail-drop only.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..net.packet import Packet
from .base import BufferManager, Decision, PortView


class SegregatedBuffer(BufferManager):
    """Value-ordered greedy push-out with per-class segments."""

    name = "SEG"

    def __init__(self, values: Optional[Sequence[float]] = None) -> None:
        super().__init__()
        if values is not None and any(v <= 0 for v in values):
            raise ValueError("class values must be positive")
        self._values_override = (list(values) if values is not None
                                 else None)
        self.values: List[float] = []
        self.segments: List[int] = []
        self.pushouts = 0
        self._drop_class = Decision.dropped("class segregation")

    def attach(self, port: PortView) -> None:
        super().attach(port)
        if self._values_override is not None:
            if len(self._values_override) != port.num_queues:
                raise ValueError(
                    f"expected {port.num_queues} class values, "
                    f"got {len(self._values_override)}")
            self.values = list(self._values_override)
        else:
            self.values = list(port.queue_weights())
        total = sum(self.values)
        self.segments = [
            int(port.buffer_bytes * value / total) for value in self.values
        ]

    def admit(self, packet: Packet, queue_index: int) -> Decision:
        drop = self._port_tail_drop(packet)
        if drop is None:
            return self._accept
        if self._push_out(packet, queue_index):
            self.drops -= 1  # _port_tail_drop counted a drop that isn't
            return self._accept
        return self._drop_class

    # -- push-out ---------------------------------------------------------------

    def _push_out(self, packet: Packet, queue_index: int) -> bool:
        """Evict lower-valued tails until ``packet`` fits, or give up."""
        port = self.port
        evict = getattr(port, "evict_tail", None)
        if evict is None:
            return False
        needed = port.total_bytes() + packet.size - port.buffer_bytes
        guard = port.num_queues * 64  # safety bound on evictions
        value = self.values[queue_index]
        while needed > 0 and guard > 0:
            victim = self._cheapest_victim(queue_index, value)
            if victim is None:
                return False
            evicted = evict(victim)
            if evicted is None:
                return False
            self.pushouts += 1
            needed -= evicted.size
            guard -= 1
        return needed <= 0

    def _cheapest_victim(self, exclude: int,
                         value: float) -> Optional[int]:
        """The lowest-valued non-empty queue strictly below ``value``.

        Ties prefer the queue holding the most buffer beyond its
        value-proportional segment, then the lowest index, so victim
        choice is deterministic.
        """
        port = self.port
        best: Optional[int] = None
        best_value = value
        best_overage = 0
        for index in range(port.num_queues):
            if index == exclude:
                continue
            length = port.queue_bytes(index)
            if length <= 0 or self.values[index] >= value:
                continue
            overage = length - self.segments[index]
            if (best is None or self.values[index] < best_value
                    or (self.values[index] == best_value
                        and overage > best_overage)):
                best = index
                best_value = self.values[index]
                best_overage = overage
        return best
