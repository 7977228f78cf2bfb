"""Deficit Round Robin (Shreedhar & Varghese).

Each active queue holds a *deficit counter*; visiting a queue adds its
*quantum* and the queue may send packets while the deficit covers the
head-of-line size.  Quanta are bytes; the paper's testbed uses 1.5 KB (one
MTU) per unit of weight, e.g. weights 4:3:2:1 become quanta 6/4.5/3/1.5 KB.

The scheduler also maintains an EWMA estimate of the *round time* (the time
to cycle once through all active queues), which MQ-ECN's marking threshold
``K_i = min(quantum_i / T_round, C) * RTT * lambda`` consumes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from ...perf.config import active_config
from .base import QueueView, Scheduler, validate_weights

# EWMA gain for the round-time estimate, as in the MQ-ECN reference
# implementation (new sample weighted 1/4).
ROUND_TIME_GAIN = 0.25


class DRRScheduler(Scheduler):
    """Byte-based deficit round robin over ``len(quanta)`` queues."""

    def __init__(self, quanta: Sequence[float]) -> None:
        quanta_list = validate_weights(quanta)
        super().__init__(num_queues=len(quanta_list))
        self.quanta = quanta_list
        self._deficits: List[float] = [0.0] * self.num_queues
        self._active: Deque[int] = deque()
        self._in_active: List[bool] = [False] * self.num_queues
        # Round-time estimation state (consumed by MQ-ECN).
        self._clock = None            # callable returning now (ns), set by port
        self._round_started_at: Optional[int] = None
        self._round_head: Optional[int] = None
        self.round_time_ns: float = 0.0
        # Fast path: only MQ-ECN reads the round-time EWMA, so tracking
        # (a clock lambda call per rotation) stays off until a consumer
        # calls enable_round_tracking().  Reference mode tracks always,
        # as the pre-optimisation scheduler did.
        self._track_rounds = not active_config().lazy_round_time

    # -- wiring ---------------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Give the scheduler access to simulated time (for T_round)."""
        self._clock = clock

    def enable_round_tracking(self) -> None:
        """Turn the round-time EWMA on (MQ-ECN calls this on attach)."""
        self._track_rounds = True

    # -- scheduler interface ---------------------------------------------------

    @property
    def weights(self) -> List[float]:
        return list(self.quanta)

    def set_weights(self, quanta) -> None:
        """Swap the quanta mid-run (operator reconfiguration fault).

        Deficits are preserved: a queue mid-round keeps the credit it has
        already earned and simply accumulates at the new rate from the
        next visit on.
        """
        self.quanta = self._check_weight_count(validate_weights(quanta))

    def on_enqueue(self, index: int) -> None:
        if not self._in_active[index]:
            self._in_active[index] = True
            self._deficits[index] = 0.0
            self._active.append(index)

    def select(self, queues: QueueView) -> Optional[int]:
        # Each loop iteration either returns a packet, retires an empty
        # queue, or rotates the active list after granting a quantum; with a
        # finite head size the deficit eventually covers it, so this
        # terminates.
        track = self._track_rounds
        active = self._active
        deficits = self._deficits
        fast = self._fast_queues
        while active:
            index = active[0]
            if fast is not None:
                queue = fast[index]
                if queue:
                    head = queue[0].size
                else:
                    head = None
            elif queues.queue_empty(index):
                head = None
            else:
                head = queues.head_size(index)
            if head is None:
                active.popleft()
                self._in_active[index] = False
                deficits[index] = 0.0
                if track:
                    self._note_rotation()
                continue
            if deficits[index] >= head:
                deficits[index] -= head
                return index
            deficits[index] += self.quanta[index]
            active.rotate(-1)
            if track:
                self._note_rotation()
        return None

    # -- round-time estimation ---------------------------------------------------

    def _note_rotation(self) -> None:
        """Track when the head of the active list wraps around.

        A "round" completes when the queue that headed the active list is
        reached again; the elapsed wall-clock feeds the EWMA used by
        MQ-ECN.  The estimate is best-effort — queues joining/leaving reset
        the reference head, matching the switch-implementation reality that
        T_round is itself an approximation.
        """
        if self._clock is None:
            return
        if not self._active:
            self._round_head = None
            self._round_started_at = None
            return
        head = self._active[0]
        if self._round_head is None:
            self._round_head = head
            self._round_started_at = self._clock()
            return
        if head == self._round_head and self._round_started_at is not None:
            now = self._clock()
            sample = now - self._round_started_at
            if sample > 0:
                if self.round_time_ns <= 0:
                    self.round_time_ns = float(sample)
                else:
                    self.round_time_ns += ROUND_TIME_GAIN * (
                        sample - self.round_time_ns)
            self._round_started_at = now

    def estimated_round_time_ns(self, link_rate_bps: int) -> float:
        """Round-time estimate for MQ-ECN, with an analytic fallback.

        Before any measurement exists, approximate the round as the time to
        serve one quantum from every active queue at line rate.
        """
        if self.round_time_ns > 0:
            return self.round_time_ns
        active_quanta = sum(
            self.quanta[i] for i in range(self.num_queues)
            if self._in_active[i])
        if active_quanta <= 0 or link_rate_bps <= 0:
            return 0.0
        return active_quanta * 8 * 1e9 / link_rate_bps
