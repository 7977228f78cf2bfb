"""Longest-Queue-Drop (LQD) push-out buffer sharing.

The classic shared-memory policy with a *proven* worst-case guarantee:
admit every arrival while space exists; when the buffer is full, push
out the tail of the longest queue to make room (dropping the arrival
itself when its own queue is the longest).  Aiello, Kesselman and
Mansour showed LQD is at most 1.5-competitive against a clairvoyant
offline policy for shared-memory switches (arXiv:1207.1141), which makes
it the reference point of the competitive-ratio harness in
:mod:`repro.experiments.competitive` — DynaQ and friends trade some of
that worst-case efficiency for isolation, and the harness quantifies how
much.

Push-out uses the same :meth:`~repro.net.port.EgressPort.evict_tail`
mechanism as the BarberQ-style ``DynaQEvictBuffer``; on ports that do
not expose it (bare test fakes) LQD degrades to plain tail-drop.
"""

from __future__ import annotations

from typing import Optional

from ..net.packet import Packet
from .base import BufferManager, Decision, PortView


class LQDBuffer(BufferManager):
    """Push-out from the longest queue when the shared buffer is full."""

    name = "LQD"

    def __init__(self) -> None:
        super().__init__()
        self.pushouts = 0
        self._drop_longest = Decision.dropped("longest queue")

    def admit(self, packet: Packet, queue_index: int) -> Decision:
        drop = self._port_tail_drop(packet)
        if drop is None:
            return self._accept
        if self._push_out(packet, queue_index):
            self.drops -= 1  # _port_tail_drop counted a drop that isn't
            return self._accept
        return self._drop_longest

    # -- push-out ---------------------------------------------------------------

    def _push_out(self, packet: Packet, queue_index: int) -> bool:
        """Evict tails of the longest queue until ``packet`` fits.

        The arriving packet counts toward its own queue: when no other
        queue is strictly longer than the arrival's queue *including the
        arrival*, the arrival itself is the longest queue's tail and is
        dropped instead (the classical LQD rule).
        """
        port = self.port
        evict = getattr(port, "evict_tail", None)
        if evict is None:
            return False
        needed = port.total_bytes() + packet.size - port.buffer_bytes
        guard = port.num_queues * 64  # safety bound on evictions
        arriving_len = port.queue_bytes(queue_index) + packet.size
        while needed > 0 and guard > 0:
            victim = self._longest_queue(exclude=queue_index)
            if (victim is None
                    or port.queue_bytes(victim) <= arriving_len):
                return False
            evicted = evict(victim)
            if evicted is None:
                return False
            self.pushouts += 1
            needed -= evicted.size
            guard -= 1
        return needed <= 0

    def _longest_queue(self, exclude: int) -> Optional[int]:
        """Index of the longest non-empty queue (lowest index on ties)."""
        port = self.port
        best: Optional[int] = None
        best_len = 0
        for index in range(port.num_queues):
            if index == exclude:
                continue
            length = port.queue_bytes(index)
            if length > best_len:
                best = index
                best_len = length
        return best
