"""DynaQ — dynamic packet-dropping thresholds (paper §III, Algorithm 1).

Mechanism recap.  Every service queue *i* carries a dropping threshold
``T_i``; the invariant ``sum(T) == B`` holds at all times.  When a packet
*P* for queue *p* arrives and would push ``q_p`` above ``T_p``:

1. find the **victim** ``v`` — the other queue with the largest extra
   buffer ``T_i - S_i``;
2. if ``T_v < size(P)`` (threshold would go negative) **or** the victim is
   an *unsatisfied active queue* (``q_v > 0`` and ``T_v - size(P) < S_v``),
   drop *P* — this protects queues that still need their satisfaction
   threshold to reach their weighted fair share;
3. otherwise move ``size(P)`` of threshold from ``v`` to ``p``.

The final enqueue decision is then made on **port occupancy** (§III-B2,
"After this, the switch performs packet enqueueing decisions based on the
port buffer occupancy").  Inactive queues are deliberately *not* protected,
which is what makes DynaQ work-conserving: a lone active queue can grow its
threshold to the whole port buffer.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..net.packet import Packet
from ..perf.config import active_config
from ..queueing.base import BufferManager, Decision, PortView
from ..sim.errors import ConfigurationError
from ..sim.trace import (
    TOPIC_DYNAQ_RECONFIGURE,
    TOPIC_THRESHOLD_CHANGE,
    TraceBus,
)
from .thresholds import initial_thresholds, satisfaction_thresholds
from .victim import (
    IncrementalVictim,
    linear_victim,
    publish_steal,
    tournament_victim,
)

VictimSearch = Callable[[List[int], Optional[int]], Optional[int]]


class DynaQBuffer(BufferManager):
    """DynaQ admission control for one egress port.

    Parameters
    ----------
    victim_search:
        ``"linear"`` (reference argmax) or ``"tournament"`` (the loop-free
        ``MaxIdx`` tree of the hardware design).  Both are semantically
        identical; the option exists for the ablation benches.
    satisfaction_override:
        Per-queue ``S_i`` values replacing Eq. 3, used by the
        ``S_i = WBDP_i`` ablation the paper discusses (threshold
        fluctuation breaks fair sharing when the headroom is removed).
    trace:
        Optional :class:`TraceBus`; threshold exchanges are published to
        ``dynaq.threshold`` for the queue-evolution figures.
    """

    name = "DynaQ"

    def __init__(self, victim_search: str = "linear",
                 satisfaction_override: Optional[List[int]] = None,
                 trace: Optional[TraceBus] = None,
                 port_name: str = "") -> None:
        super().__init__()
        searches: dict = {
            "linear": linear_victim,
            "tournament": tournament_victim,
        }
        if victim_search not in searches:
            raise ValueError(
                f"unknown victim search {victim_search!r}; "
                f"expected one of {sorted(searches)}")
        self._search: VictimSearch = searches[victim_search]
        self._satisfaction_override = satisfaction_override
        self._trace = trace
        self._port_name = port_name
        self.threshold_moves = 0
        self.protected_drops = 0
        # Incremental victim tracker (fast path): T_i - S_i only changes
        # on steals and reconfigurations, so keeping the argmax warm
        # turns the per-arrival O(M) extra-vector rebuild + scan into an
        # O(1) query.  None in reference mode — admit() then runs the
        # configured search over a freshly built vector.  Created before
        # the threshold lists: their property setters sync it.
        self._tracker: Optional[IncrementalVictim] = (
            IncrementalVictim() if active_config().incremental_victim
            else None)
        self._thresholds: List[int] = []
        self._satisfaction: List[int] = []
        # Recurring Algorithm-1 outcomes (see Decision's docstring).
        self._drop_no_victim = Decision.dropped(
            "threshold exceeded, no victim")
        self._drop_unsatisfied = Decision.dropped("victim unsatisfied")
        # Repeat-pure drops (see the base class): both outcomes return
        # before any threshold steal, so re-admitting the same (queue,
        # size) with no intervening accept reproduces them exactly.
        # "port buffer full" is deliberately absent — that path can
        # follow a steal (and, in the evicting subclass, trigger
        # evictions).
        self.pure_drop_decisions = (self._drop_unsatisfied,
                                    self._drop_no_victim)

    # -- threshold state ---------------------------------------------------------
    #
    # Exposed as properties because tests and operator tooling assign
    # whole new lists (``manager.thresholds = [...]``) to set up
    # scenarios; the setters re-sync the incremental victim tracker so
    # the fast path can never observe a stale argmax.  Internal hot-path
    # code reads the private lists directly.

    @property
    def thresholds(self) -> List[int]:
        """Dropping thresholds ``T_i`` (assignment re-syncs the tracker)."""
        return self._thresholds

    @thresholds.setter
    def thresholds(self, values) -> None:
        self._thresholds = list(values)
        # DynaQ's accept path is exactly the inline-admission contract
        # (under-threshold + buffer room -> unmarked accept, no side
        # effects), so the port may bypass admit() for those packets.
        # Re-pointed here because assignment replaces the list identity.
        self.inline_admit_thresholds = self._thresholds
        self._sync_tracker()

    @property
    def satisfaction(self) -> List[int]:
        """Satisfaction thresholds ``S_i`` (assignment re-syncs the
        tracker)."""
        return self._satisfaction

    @satisfaction.setter
    def satisfaction(self, values) -> None:
        self._satisfaction = list(values)
        self._sync_tracker()

    # -- lifecycle ---------------------------------------------------------------

    def bind_trace(self, trace: TraceBus, port_name: str) -> None:
        """Adopt the port's trace bus unless one was passed explicitly."""
        if self._trace is None:
            self._trace = trace
        if not self._port_name:
            self._port_name = port_name

    def attach(self, port: PortView) -> None:
        super().attach(port)
        self.reinitialize()

    def reinitialize(self) -> None:
        """(Re)compute Eq. 1/Eq. 3 state from the port's current B and w.

        The paper's §III-B3 prescribes exactly this after an operator
        resizes the port buffer, restoring ``sum(T) == B``.
        """
        weights = self.port.queue_weights()
        self.thresholds = initial_thresholds(self.port.buffer_bytes, weights)
        self.satisfaction = self._derive_satisfaction(weights)
        self._sync_tracker()
        trace = self._trace
        if trace is not None:
            # Baseline snapshot (victim/gainer = -1): gives timeline
            # collectors T_i(0) and the otherwise-unpublished S_i values.
            trace.emit(TOPIC_THRESHOLD_CHANGE, lambda: dict(
                port=self._port_name, time=self.port.now(), victim=-1,
                gainer=-1, size=0, thresholds=tuple(self.thresholds),
                satisfaction=tuple(self.satisfaction)))

    def reconfigure(self, weights: Optional[List[float]] = None) -> None:
        """Mid-run weight reconfiguration (the operator-action fault).

        Re-derives the satisfaction thresholds ``S_i`` from the new
        weights and re-normalises the dropping thresholds to the Eq. 1
        split, so ``sum(T_i) == B`` holds exactly across the transition
        (the accumulated steals are discarded — the dynamics re-adapt
        within an RTT, exactly as after the §III-B3 buffer resize).
        ``weights=None`` re-reads the port's (already updated) scheduler
        weights; :meth:`repro.net.port.EgressPort.reconfigure_weights`
        is the usual caller.  Published to ``dynaq.reconfigure``.
        """
        if weights is not None and len(weights) != len(self.thresholds):
            raise ConfigurationError(
                f"expected {len(self.thresholds)} weights, "
                f"got {len(weights)}")
        new_weights = (list(weights) if weights is not None
                       else self.port.queue_weights())
        previous = list(self.thresholds)
        self.thresholds = initial_thresholds(
            self.port.buffer_bytes, new_weights)
        self.satisfaction = self._derive_satisfaction(new_weights)
        self._sync_tracker()
        trace = self._trace
        if trace is not None:
            trace.emit(TOPIC_DYNAQ_RECONFIGURE, lambda: dict(
                port=self._port_name, time=self.port.now(),
                thresholds=tuple(self.thresholds),
                satisfaction=tuple(self.satisfaction),
                detail=f"reconfigure from {previous}"))

    def _derive_satisfaction(self, weights: List[float]) -> List[int]:
        """Eq. 3 values (or the ablation override) for ``weights``."""
        if self._satisfaction_override is not None:
            if len(self._satisfaction_override) != len(self.thresholds):
                raise ConfigurationError(
                    "satisfaction_override must have one entry per queue")
            return list(self._satisfaction_override)
        return satisfaction_thresholds(self.port.buffer_bytes, weights)

    # -- Algorithm 1 ---------------------------------------------------------------

    def _sync_tracker(self) -> None:
        """Rebuild the incremental tracker after a wholesale T/S change.

        A length mismatch means the caller is mid-way through replacing
        both lists (reinitialize assigns T then S); the second setter
        runs the sync again with consistent state.
        """
        tracker = self._tracker
        if (tracker is not None
                and len(self._thresholds) == len(self._satisfaction)):
            tracker.reset(
                t - s for t, s in zip(self._thresholds, self._satisfaction))

    def admit(self, packet: Packet, queue_index: int) -> Decision:
        size = packet.size
        occupancy = self._queue_occupancy
        thresholds = self._thresholds
        queue_len = (occupancy[queue_index] if occupancy is not None
                     else self.port.queue_bytes(queue_index))
        if queue_len + size > thresholds[queue_index]:
            tracker = self._tracker
            if tracker is not None:
                # Inline replica of IncrementalVictim.query: skip the
                # arriving queue.  The port's inline admission sends
                # every over-threshold arrival here, so the method call
                # and the _victim_is_protected helper below are
                # flattened into straight-line code.
                victim = tracker._best
                if victim == queue_index:
                    victim = tracker._second
            else:
                extra = [t - s for t, s in zip(thresholds,
                                               self._satisfaction)]
                victim = self._search(extra, queue_index)
            if victim is None:
                # Single-queue port: no one to steal from.
                self.drops += 1
                return self._drop_no_victim
            # _victim_is_protected, inlined (Algorithm 1, line 3): drop
            # when the victim cannot give up ``size`` bytes or is an
            # unsatisfied active queue.
            victim_threshold = thresholds[victim]
            if victim_threshold < size or (
                    (occupancy[victim] if occupancy is not None
                     else self.port.queue_bytes(victim)) > 0
                    and victim_threshold - size < self._satisfaction[victim]):
                self.drops += 1
                self.protected_drops += 1
                return self._drop_unsatisfied
            self._move_threshold(victim, queue_index, size)
        # _port_tail_drop, inlined: this is the per-packet hot exit and
        # the helper call was the last per-admit Python call left.
        port = self.port
        total = (port._total_bytes if self._direct_total
                 else port.total_bytes())
        if total + size > port.buffer_bytes:
            self.drops += 1
            return self._drop_full
        return self._accept

    def repeat_drop(self, decision: Decision) -> None:
        self.drops += 1
        if decision is self._drop_unsatisfied:
            self.protected_drops += 1

    def _victim_is_protected(self, victim: int, size: int) -> bool:
        """Line 3 of Algorithm 1: drop instead of stealing when either
        the victim's threshold cannot give up ``size`` bytes (T_v would go
        negative) or the victim is an unsatisfied *active* queue."""
        threshold = self._thresholds[victim]
        if threshold < size:
            return True
        occupancy = self._queue_occupancy
        active = (occupancy[victim] if occupancy is not None
                  else self.port.queue_bytes(victim)) > 0
        return active and threshold - size < self._satisfaction[victim]

    def _move_threshold(self, victim: int, gainer: int, size: int) -> None:
        # Decrease the victim before increasing the gainer, preserving
        # sum(T) == B at every intermediate step (§III-B2).
        thresholds = self._thresholds
        satisfaction = self._satisfaction
        thresholds[victim] -= size
        thresholds[gainer] += size
        self.threshold_moves += 1
        tracker = self._tracker
        if tracker is not None:
            tracker.update(victim,
                           thresholds[victim] - satisfaction[victim])
            tracker.update(gainer,
                           thresholds[gainer] - satisfaction[gainer])
        trace = self._trace
        if trace is not None:
            trace.emit(TOPIC_THRESHOLD_CHANGE, lambda: dict(
                port=self._port_name, time=self.port.now(), victim=victim,
                gainer=gainer, size=size,
                thresholds=tuple(self.thresholds)))
            publish_steal(
                trace, port=self._port_name, time=self.port.now(),
                victim=victim, gainer=gainer, size=size,
                thresholds=self.thresholds)

    # -- introspection ---------------------------------------------------------------

    def threshold_sum(self) -> int:
        """``sum(T_i)`` — must equal the port buffer size (invariant)."""
        return sum(self.thresholds)

    def audit_thresholds(self) -> Optional[str]:
        """Cold-path ``sum(T_i) == B`` check (soak invariant engine).

        Returns a problem description, or ``None`` while the paper's
        §III-B equality holds.  Unlike the trace-driven
        :class:`~repro.faults.ThresholdInvariantMonitor` this reads the
        live vector directly, so it also catches a corrupted state that
        never publishes another threshold event.
        """
        total = self.threshold_sum()
        expected = self.port.buffer_bytes
        if total != expected:
            return (f"sum(T_i) == {total} != buffer {expected} "
                    f"(thresholds {list(self.thresholds)})")
        return None

    def extra_buffer(self, index: int) -> int:
        """Eq. 2 for one queue."""
        return self.thresholds[index] - self.satisfaction[index]


DynaQBuffer.contract_owner = DynaQBuffer
