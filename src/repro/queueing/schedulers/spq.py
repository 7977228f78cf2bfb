"""Strict Priority Queueing and the SPQ/DRR hybrid.

SPQ always serves the lowest-indexed non-empty queue.  The hybrid mirrors
the paper's dynamic-flow configuration: queue 0 is a shared high-priority
SPQ queue (fed by PIAS with the first 100 KB of every flow) and the
remaining queues are dedicated DRR service queues served only when the SPQ
queue is empty.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...sim.errors import ConfigurationError
from .base import QueueView, Scheduler, validate_weights
from .drr import DRRScheduler


class SPQScheduler(Scheduler):
    """Pure strict priority: queue 0 is highest priority."""

    def __init__(self, num_queues: int,
                 weights: Optional[Sequence[float]] = None) -> None:
        super().__init__(num_queues=num_queues)
        if weights is None:
            self._weights = [1.0] * num_queues
        else:
            self._weights = validate_weights(weights)
            if len(self._weights) != num_queues:
                raise ConfigurationError(
                    "weights length must equal num_queues")

    @property
    def weights(self) -> List[float]:
        return list(self._weights)

    def set_weights(self, weights: Sequence[float]) -> None:
        """Swap the nominal weights (SPQ service order is unaffected)."""
        self._weights = self._check_weight_count(validate_weights(weights))

    def select(self, queues: QueueView) -> Optional[int]:
        fast = self._fast_queues
        if fast is not None:
            for index, queue in enumerate(fast):
                if queue:
                    return index
            return None
        for index in range(self.num_queues):
            if not queues.queue_empty(index):
                return index
        return None


class _OffsetQueueView:
    """Expose queues ``[offset, offset+n)`` of a port as queues ``[0, n)``.

    Lets the embedded DRR scheduler of the hybrid operate on the low-priority
    queues without knowing about the SPQ queue in front of them.
    """

    __slots__ = ("_queues", "_offset")

    def __init__(self, queues: QueueView, offset: int) -> None:
        self._queues = queues
        self._offset = offset

    def queue_empty(self, index: int) -> bool:
        return self._queues.queue_empty(index + self._offset)

    def head_size(self, index: int) -> int:
        return self._queues.head_size(index + self._offset)


class SPQDRRScheduler(Scheduler):
    """SPQ over DRR: queues ``[0, num_high)`` strict, the rest DRR.

    This is the paper's "SPQ (1 queue) / DRR (N queues)" switch
    configuration used in every FCT experiment.
    """

    def __init__(self, num_high: int, drr_quanta: Sequence[float]) -> None:
        if num_high < 1:
            raise ConfigurationError(
                "need at least one strict-priority queue")
        quanta = validate_weights(drr_quanta)
        super().__init__(num_queues=num_high + len(quanta))
        self.num_high = num_high
        self.drr = DRRScheduler(quanta)

    def bind_clock(self, clock) -> None:
        """Forward the simulation clock to the embedded DRR scheduler."""
        self.drr.bind_clock(clock)

    def bind_queues(self, queues) -> None:
        """Bind the strict queues here and the rest (the very same deque
        objects) to the embedded DRR, which then needs no offset view."""
        super().bind_queues(queues)
        self.drr.bind_queues(queues[self.num_high:])

    @property
    def weights(self) -> List[float]:
        # The SPQ queue has no fair-share weight; buffer managers treat it
        # like any other queue, so give it one quantum's worth of weight.
        high = [max(self.drr.quanta)] * self.num_high
        return high + list(self.drr.quanta)

    def set_weights(self, weights: Sequence[float]) -> None:
        """Reconfigure the DRR quanta; the SPQ entries are positional
        placeholders (strict-priority service ignores weights)."""
        self._check_weight_count(validate_weights(weights))
        self.drr.set_weights(weights[self.num_high:])

    def on_enqueue(self, index: int) -> None:
        if index >= self.num_high:
            self.drr.on_enqueue(index - self.num_high)

    def select(self, queues: QueueView) -> Optional[int]:
        fast = self._fast_queues
        if fast is not None:
            num_high = self.num_high
            for index in range(num_high):
                if fast[index]:
                    return index
            low = self.drr.select(None)
            return None if low is None else low + num_high
        for index in range(self.num_high):
            if not queues.queue_empty(index):
                return index
        low = self.drr.select(_OffsetQueueView(queues, self.num_high))
        if low is None:
            return None
        return low + self.num_high
