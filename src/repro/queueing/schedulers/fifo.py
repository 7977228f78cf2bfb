"""Single-queue FIFO scheduler.

Used when a port is configured without service differentiation (e.g. host
NIC queues, or the pure best-effort motivation experiment run with a single
queue).
"""

from __future__ import annotations

from typing import Optional

from .base import QueueView, Scheduler


class FIFOScheduler(Scheduler):
    """Trivial scheduler over one queue."""

    def __init__(self) -> None:
        super().__init__(num_queues=1)

    def select(self, queues: QueueView) -> Optional[int]:
        fast = self._fast_queues
        if fast is not None:
            return 0 if fast[0] else None
        if queues.queue_empty(0):
            return None
        return 0
