"""Packet-scheduler interface.

A scheduler decides, each time the link becomes free, which service queue
the egress port should dequeue from next.  Schedulers never touch packets:
they see queue state through the :class:`QueueView` protocol the port
implements (head-of-line packet size, emptiness) and return a queue index.

All schedulers here are **work-conserving**: if any queue holds a packet,
``select`` returns an index; ``None`` means every queue is empty.

A port may also hand a scheduler its queue deques once, through
:meth:`Scheduler.bind_queues`, and a bound scheduler may read them and
ignore the view; ``select(view)`` must stay correct unbound.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

from ...sim.errors import ConfigurationError


class QueueView(Protocol):
    """What a scheduler is allowed to observe about the port's queues."""

    def queue_empty(self, index: int) -> bool:
        """True if service queue ``index`` holds no packets."""
        ...

    def head_size(self, index: int) -> int:
        """Wire size (bytes) of the head-of-line packet of queue ``index``.

        Undefined when the queue is empty; schedulers must check first.
        """
        ...


class Scheduler:
    """Base class for packet schedulers."""

    def __init__(self, num_queues: int) -> None:
        if num_queues <= 0:
            raise ConfigurationError(
                f"need at least one queue, got {num_queues}")
        self.num_queues = num_queues
        # The port's queue deques once bind_queues ran; None = unbound,
        # read queue state through the view select() is given.
        self._fast_queues = None

    def bind_queues(self, queues) -> None:
        """Give the scheduler direct access to the port's queue deques.

        Optional fast-path wiring (the port calls it under
        ``inline_hot_calls``): the port shares the very list of deques
        backing its :class:`QueueView` answers, so emptiness and head
        size checks become subscripting instead of method calls.
        """
        if len(queues) != self.num_queues:
            raise ConfigurationError(
                f"bind_queues: expected {self.num_queues} queues, "
                f"got {len(queues)}")
        self._fast_queues = queues

    def on_enqueue(self, index: int) -> None:
        """Notification that a packet was enqueued into queue ``index``."""

    def select(self, queues: QueueView) -> Optional[int]:
        """Return the queue index to dequeue from, or ``None`` if all empty."""
        raise NotImplementedError

    @property
    def weights(self) -> List[float]:
        """Relative service weights per queue (used by buffer managers).

        Defaults to equal weights; weighted schedulers override this so
        that DynaQ/PQL/PMSB thresholds respect the scheduling policy.
        """
        return [1.0] * self.num_queues

    def set_weights(self, weights: Sequence[float]) -> None:
        """Replace the per-queue weights at runtime.

        Supports the mid-run reconfiguration fault (an operator changing
        queue weights on a live switch).  Weighted schedulers override
        this; the base class refuses because it has no weights to change.
        """
        raise ConfigurationError(
            f"{type(self).__name__} does not support runtime weight "
            "reconfiguration")

    def _check_weight_count(self, weights: List[float]) -> List[float]:
        """Shared ``set_weights`` guard: one weight per existing queue."""
        if len(weights) != self.num_queues:
            raise ConfigurationError(
                f"expected {self.num_queues} weights, got {len(weights)}")
        return weights


def validate_weights(weights: Sequence[float]) -> List[float]:
    """Check that ``weights`` are positive and return them as a list.

    Raises :class:`~repro.sim.errors.ConfigurationError` (a
    ``ValueError`` subclass) so that a zero, negative, or all-zero weight
    vector fails loudly at configuration time instead of surfacing as a
    ``ZeroDivisionError`` at the first enqueue.
    """
    result = list(weights)
    if not result:
        raise ConfigurationError("weights must be non-empty")
    for weight in result:
        if weight <= 0:
            raise ConfigurationError(
                f"weights must be positive, got {result}")
    return result
