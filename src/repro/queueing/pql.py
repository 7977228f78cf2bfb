"""Per-Queue static Limit (the paper's *PQL* baseline).

Each service queue owns a fixed slice of the port buffer proportional to
its weight: ``limit_i = B * w_i / sum(w)``.  A packet is dropped when its
queue's slice is full, even if the rest of the buffer is empty.  This
isolates queues perfectly but is **not work-conserving**: with few active
queues the aggregate occupancy can fall below the BDP and the link drains
(the throughput collapse in Figs. 5, 10-12).
"""

from __future__ import annotations

from typing import List

from ..net.packet import Packet
from .base import BufferManager, Decision, PortView


class PQLBuffer(BufferManager):
    """Static per-queue buffer limits proportional to queue weights."""

    name = "PQL"

    def __init__(self) -> None:
        super().__init__()
        self.limits: List[int] = []
        self._drop_limit = Decision.dropped("per-queue limit")

    def attach(self, port: PortView) -> None:
        super().attach(port)
        weights = port.queue_weights()
        total = sum(weights)
        self.limits = [
            int(port.buffer_bytes * weight / total) for weight in weights
        ]

    def admit(self, packet: Packet, queue_index: int) -> Decision:
        occupancy = self._queue_occupancy
        queue_len = (occupancy[queue_index] if occupancy is not None
                     else self.port.queue_bytes(queue_index))
        if queue_len + packet.size > self.limits[queue_index]:
            self.drops += 1
            return self._drop_limit
        drop = self._port_tail_drop(packet)
        if drop is not None:
            return drop
        return self._accept
