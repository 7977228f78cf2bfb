"""BShare: reserved-plus-shared balanced buffer sharing.

A deterministic reduction of the BShare scheme (arXiv:2605.24178):
the buffer is split into a *reserved* region — a per-queue guarantee
sized ``reserve_fraction * B`` and divided by scheduler weight — and a
*shared* region governed by a Choudhury-Hahne dynamic threshold over
the shared free space only:

    r_i         = reserve_fraction * B * w_i / sum(w)
    shared_q_i  = max(q_i - r_i, 0)
    shared_free = S - sum_j shared_q_j,  S = (1 - reserve_fraction) * B
    T_i(t)      = r_i + alpha * max(shared_free, 0)

A queue below its reservation is therefore always admitted while the
port has room (burst absorption with a hard floor), while occupancy
above the reservation competes DT-style for the shared pool — so no
queue can starve another out of its guarantee no matter how greedy the
traffic mix.  The policy is stateless beyond the port occupancy it
observes, which keeps it trivially snapshot-safe and
FAST/REFERENCE-identical.
"""

from __future__ import annotations

from typing import List

from ..net.packet import Packet
from .base import BufferManager, Decision, PortView


class BShareBuffer(BufferManager):
    """Per-queue reservations plus a DT-governed shared pool."""

    name = "BShare"

    def __init__(self, alpha: float = 1.0,
                 reserve_fraction: float = 0.25) -> None:
        super().__init__()
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0 <= reserve_fraction < 1:
            raise ValueError(
                f"reserve_fraction must be in [0, 1), "
                f"got {reserve_fraction}")
        self.alpha = alpha
        self.reserve_fraction = reserve_fraction
        self.reserved_bytes: List[int] = []
        self.shared_bytes = 0
        self._drop_threshold = Decision.dropped("bshare threshold")

    def attach(self, port: PortView) -> None:
        super().attach(port)
        weights = port.queue_weights()
        total = sum(weights)
        reserve = self.reserve_fraction * port.buffer_bytes
        self.reserved_bytes = [
            int(reserve * weight / total) for weight in weights
        ]
        self.shared_bytes = port.buffer_bytes - sum(self.reserved_bytes)

    def current_threshold(self, queue_index: int) -> float:
        """The queue's admission limit at the current occupancy."""
        port = self.port
        reserved = self.reserved_bytes
        shared_used = 0
        for index in range(port.num_queues):
            shared_used += max(port.queue_bytes(index) - reserved[index], 0)
        shared_free = max(self.shared_bytes - shared_used, 0)
        return reserved[queue_index] + self.alpha * shared_free

    def admit(self, packet: Packet, queue_index: int) -> Decision:
        port = self.port
        occupancy = self._queue_occupancy
        reserved = self.reserved_bytes
        queue_len = (occupancy[queue_index] if occupancy is not None
                     else port.queue_bytes(queue_index))
        size = packet.size
        total = (port._total_bytes if self._direct_total
                 else port.total_bytes())
        if total + size > port.buffer_bytes:
            self.drops += 1
            return self._drop_full
        # The reservation is a hard floor: under it, admission only
        # depends on the port having room (checked above).
        if queue_len + size <= reserved[queue_index]:
            return self._accept
        shared_used = 0
        if occupancy is not None:
            for index, occupied in enumerate(occupancy):
                shared_used += max(occupied - reserved[index], 0)
        else:
            for index in range(port.num_queues):
                shared_used += max(
                    port.queue_bytes(index) - reserved[index], 0)
        shared_free = max(self.shared_bytes - shared_used, 0)
        limit = reserved[queue_index] + self.alpha * shared_free
        if queue_len + size > limit:
            self.drops += 1
            return self._drop_threshold
        return self._accept
