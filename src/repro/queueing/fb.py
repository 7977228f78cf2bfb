"""FB: flexible buffer sharing with per-queue burst absorption.

A deterministic reduction of the FB scheme (Apostolaki et al.,
arXiv:2105.10553): like Choudhury-Hahne DT, every queue's admission
limit tracks the *unused* buffer, but queues that are currently far
below their fair share — the signature of a fresh burst hitting a
drained queue — get a boosted threshold so short bursts are absorbed
instead of tail-dropped, while standing (congested) queues stay capped
at the plain DT threshold:

    T_i(t) = alpha * boost * free(t)   if q_i(t) < phi * fair_i
    T_i(t) = alpha * free(t)           otherwise

with ``fair_i = B * w_i / sum(w)`` and ``free(t) = B - sum_j q_j(t)``.
The policy is stateless beyond the port occupancy it observes, which
keeps it trivially snapshot-safe and FAST/REFERENCE-identical.
"""

from __future__ import annotations

from typing import List

from ..net.packet import Packet
from .base import BufferManager, Decision, PortView


class FBBuffer(BufferManager):
    """DT-style thresholds with a boost for under-share (bursty) queues."""

    name = "FB"

    def __init__(self, alpha: float = 1.0, burst_boost: float = 4.0,
                 burst_fraction: float = 0.25) -> None:
        super().__init__()
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if burst_boost < 1:
            raise ValueError(
                f"burst_boost must be >= 1, got {burst_boost}")
        if not 0 < burst_fraction <= 1:
            raise ValueError(
                f"burst_fraction must be in (0, 1], got {burst_fraction}")
        self.alpha = alpha
        self.burst_boost = burst_boost
        self.burst_fraction = burst_fraction
        self.fair_bytes: List[int] = []
        self._drop_threshold = Decision.dropped("fb threshold")

    def attach(self, port: PortView) -> None:
        super().attach(port)
        weights = port.queue_weights()
        total = sum(weights)
        self.fair_bytes = [
            int(port.buffer_bytes * weight / total) for weight in weights
        ]

    def current_threshold(self, queue_index: int) -> float:
        """The queue's admission limit at the current occupancy."""
        port = self.port
        queue_len = port.queue_bytes(queue_index)
        free = max(port.buffer_bytes - port.total_bytes(), 0)
        alpha = self.alpha
        if queue_len < self.burst_fraction * self.fair_bytes[queue_index]:
            alpha *= self.burst_boost
        return alpha * free

    def admit(self, packet: Packet, queue_index: int) -> Decision:
        port = self.port
        occupancy = self._queue_occupancy
        queue_len = (occupancy[queue_index] if occupancy is not None
                     else port.queue_bytes(queue_index))
        total = (port._total_bytes if self._direct_total
                 else port.total_bytes())
        free = port.buffer_bytes - total
        alpha = self.alpha
        if queue_len < self.burst_fraction * self.fair_bytes[queue_index]:
            alpha *= self.burst_boost
        if queue_len + packet.size > alpha * max(free, 0):
            self.drops += 1
            return self._drop_threshold
        if total + packet.size > port.buffer_bytes:
            self.drops += 1
            return self._drop_full
        return self._accept
