"""DynaQ-Evict: a packet-eviction extension of DynaQ (beyond the paper).

The paper's related-work section (§II-C) observes that BarberQ attacks a
similar problem with *packet eviction* and concludes that plain dropping
is "enough" for service-queue isolation.  Our reproduction surfaces the
one corner where that conclusion costs latency: after thresholds are
stolen from an idle queue, the thief's packets remain buffered *above*
its reduced threshold, so the port can sit physically full and a
returning (e.g. high-priority PIAS) burst is tail-dropped even though its
own threshold has headroom — it then pays a full RTO.

``DynaQEvictBuffer`` closes that gap: when Algorithm 1 admits a packet
but the port is full, it evicts tail packets from queues whose occupancy
exceeds their *current* threshold (exactly the buffer they no longer own)
instead of dropping the arrival.  Eviction looks like loss to the victim
flow's transport, so congestion control semantics are preserved; the
difference is *who* takes the loss — the queue holding stolen buffer
rather than the queue entitled to it.

This is an extension for the ablation benches, disabled by default and
not part of the paper's evaluated design.
"""

from __future__ import annotations

from typing import Optional

from ..net.packet import Packet
from ..queueing.base import Decision
from .dynaq import DynaQBuffer


class DynaQEvictBuffer(DynaQBuffer):
    """DynaQ + tail eviction from over-threshold queues at a full port."""

    name = "DynaQ-Evict"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.evictions = 0

    def admit(self, packet: Packet, queue_index: int) -> Decision:
        decision = super().admit(packet, queue_index)
        if decision.accept or decision.reason != "port buffer full":
            return decision
        if self._make_room(packet, queue_index):
            self.drops -= 1  # the super() call counted a drop that isn't
            return Decision.accepted()
        return decision

    def _make_room(self, packet: Packet, queue_index: int) -> bool:
        """Evict over-threshold tails until ``packet`` fits, or give up."""
        needed = (self.port.total_bytes() + packet.size
                  - self.port.buffer_bytes)
        guard = self.port.num_queues * 64  # safety bound on evictions
        while needed > 0 and guard > 0:
            victim = self._most_over_threshold(exclude=queue_index)
            if victim is None:
                return False
            evicted = self.port.evict_tail(victim)
            if evicted is None:
                return False
            self.evictions += 1
            needed -= evicted.size
            guard -= 1
        return needed <= 0

    def _most_over_threshold(self, exclude: int) -> Optional[int]:
        """Queue holding the most buffer beyond its current threshold."""
        best: Optional[int] = None
        best_overage = 0
        for index in range(self.port.num_queues):
            if index == exclude:
                continue
            overage = (self.port.queue_bytes(index)
                       - self.thresholds[index])
            if overage > best_overage:
                best = index
                best_overage = overage
        return best


# Both contracts still hold: under-threshold accepts and repeat-pure drops
# come back from super() untouched; eviction only follows "buffer full".
DynaQEvictBuffer.contract_owner = DynaQEvictBuffer
