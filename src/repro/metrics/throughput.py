"""Per-queue throughput sampling at a bottleneck port.

Mirrors the paper's methodology: per-queue throughput is measured at the
bottleneck egress port every ``interval`` (0.5 s on the testbed, 10 ms in
the large-scale simulations), producing one time series per service queue
plus the aggregate.

Two sampling backends share one sample format:

* **batched** (fast path, default) — the port already maintains
  per-queue transmit byte counters (:attr:`EgressPort.queue_tx_bytes`);
  the meter snapshots them on each sample boundary and differences
  consecutive snapshots.  No per-packet subscription, so the port's
  ``packet.dequeue`` topic usually stays silent and the port's cached
  publish path skips payload construction entirely.
* **subscriber** (reference path) — subscribe to every ``packet.dequeue``
  event and accumulate sizes, as the original implementation did.

Both see exactly the dequeues executed strictly before the sample
callback (the port increments its counters in the same call that
publishes the dequeue event, and sample boundaries are simulator events
like any other), so the two backends produce identical sample series —
``tests/test_perf_equivalence.py`` asserts this on a contended run.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..net.port import EgressPort
from ..perf.config import active_config
from ..sim.engine import Simulator
from ..sim.trace import TOPIC_PACKET_DEQUEUE
from ..sim.units import SECOND


class ThroughputSample(NamedTuple):
    """One sampling interval's result."""

    time_ns: int                 # end of the interval
    per_queue_bps: tuple         # goodput-ish rate per service queue
    aggregate_bps: float


class PortThroughputMeter:
    """Samples per-queue transmit rate of one port on a fixed interval."""

    def __init__(self, sim: Simulator, port: EgressPort,
                 interval_ns: int, *,
                 batched: Optional[bool] = None) -> None:
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.port = port
        self.interval_ns = interval_ns
        self.samples: List[ThroughputSample] = []
        self._bytes_this_interval = [0] * port.num_queues
        if batched is None:
            batched = active_config().batched_stats
        self.batched = batched
        if batched:
            self._last_tx = list(port.queue_tx_bytes)
        else:
            if port.trace is None:
                raise ValueError(
                    f"port {port.name} has no trace bus attached")
            port.trace.subscribe(TOPIC_PACKET_DEQUEUE, self._on_dequeue)
        self.sim.schedule(interval_ns, self._sample)

    def _on_dequeue(self, *, port: str, time: int, packet, queue: int,
                    detail: str, queue_bytes) -> None:
        if port == self.port.name:
            self._bytes_this_interval[queue] += packet.size

    def _sample(self) -> None:
        if self.batched:
            tx = self.port.queue_tx_bytes
            last = self._last_tx
            self._bytes_this_interval = [
                tx[i] - last[i] for i in range(len(tx))]
            self._last_tx = list(tx)
        scale = 8 * SECOND / self.interval_ns
        per_queue = tuple(count * scale
                          for count in self._bytes_this_interval)
        self.samples.append(ThroughputSample(
            self.sim.now, per_queue, sum(per_queue)))
        self._bytes_this_interval = [0] * self.port.num_queues
        self.sim.schedule(self.interval_ns, self._sample)

    # -- summaries ---------------------------------------------------------------

    def series(self, queue: int) -> List[float]:
        """Throughput time series (bps) for one queue."""
        return [sample.per_queue_bps[queue] for sample in self.samples]

    def aggregate_series(self) -> List[float]:
        """Aggregate throughput time series (bps)."""
        return [sample.aggregate_bps for sample in self.samples]

    def mean_rate_bps(self, queue: int, start_ns: int = 0,
                      end_ns: int = None) -> float:
        """Average rate of one queue over ``[start_ns, end_ns]``."""
        window = [s.per_queue_bps[queue] for s in self.samples
                  if s.time_ns > start_ns
                  and (end_ns is None or s.time_ns <= end_ns)]
        return sum(window) / len(window) if window else 0.0

    def mean_aggregate_bps(self, start_ns: int = 0,
                           end_ns: int = None) -> float:
        """Average aggregate rate over ``[start_ns, end_ns]``."""
        window = [s.aggregate_bps for s in self.samples
                  if s.time_ns > start_ns
                  and (end_ns is None or s.time_ns <= end_ns)]
        return sum(window) / len(window) if window else 0.0
