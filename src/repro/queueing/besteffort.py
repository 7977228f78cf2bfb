"""Best-effort shared buffer (the paper's *BestEffort* baseline).

The whole port buffer is shared first-come-first-served: a packet is
accepted whenever total occupancy leaves room, regardless of which service
queue it belongs to.  This is the scheme Fig. 1 shows violating fair
sharing — a queue with many flows monopolises the buffer and starves the
others below their weighted BDP.
"""

from __future__ import annotations

from ..net.packet import Packet
from .base import BufferManager, Decision, PortView


class BestEffortBuffer(BufferManager):
    """Tail-drop on total port occupancy only."""

    name = "BestEffort"

    def attach(self, port: PortView) -> None:
        super().attach(port)
        # Any packet the port buffer has room for is an unmarked,
        # side-effect-free accept: every per-queue limit keeps the contract.
        self.inline_admit_thresholds = [port.buffer_bytes] * port.num_queues

    def admit(self, packet: Packet, queue_index: int) -> Decision:
        drop = self._port_tail_drop(packet)
        if drop is not None:
            return drop
        return self._accept or Decision.accepted()


BestEffortBuffer.contract_owner = BestEffortBuffer
