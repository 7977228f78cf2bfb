"""Data-plane diagnosis sketches (the PrintQueue idea, in simulation).

One :class:`PortDiagnosisSketch` per egress port, fed directly by the
port's enqueue/dequeue/drop hook sites — *not* by a bus subscription, so
it works without any tracing attached, costs nothing to silent topics,
and rides inside world snapshots as plain picklable state.  It keeps:

* a **time-window ring** of per-queue flow-composition registers:
  window ``w`` covers ``[w*window_ns, (w+1)*window_ns)`` and records how
  many bytes each flow *enqueued* into each service queue during the
  window.  Overwritten ring slots spill into an archive dict, so the
  offline query layer can cover the whole run while the hot path stays
  O(1) per packet;
* a **live composition** per queue (bytes of each flow currently
  buffered): incremented on enqueue, decremented on dequeue/eviction —
  this is what a threshold-crossing snapshot freezes;
* a **per-flow delay table** attributing queueing delay to flows:
  packet count, total/max delay, and the enqueue/dequeue instants and
  queue of the worst packet (the victim interval culprit queries use);
* **drop aggregation** per (queue, flow, reason);
* bounded **snapshots**: the queue's flow composition at the instant it
  crossed its DynaQ threshold (rising edge) or took a drop (at most one
  drop snapshot per queue per window).

Everything is integer arithmetic over the deterministic event stream,
so FAST and REFERENCE runs produce byte-identical sketch dumps — the
``fig05_diagnosed`` op-counter golden and ``tests/test_diagnosis.py``
enforce it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple


class SketchSettings:
    """Sizing knobs for :class:`PortDiagnosisSketch`.

    Parameters
    ----------
    window_ns:
        Width of one composition window (default 1 ms of simulated
        time — a handful of RTTs on the 500 us testbed).
    ring_slots:
        Live ring slots before a window spills to the archive.
    max_snapshots:
        Threshold-cross / drop snapshots retained per port (newest win).
    """

    __slots__ = ("window_ns", "ring_slots", "max_snapshots")

    def __init__(self, *, window_ns: int = 1_000_000,
                 ring_slots: int = 256,
                 max_snapshots: int = 512) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        if ring_slots <= 0:
            raise ValueError(f"ring_slots must be positive, got {ring_slots}")
        if max_snapshots <= 0:
            raise ValueError(
                f"max_snapshots must be positive, got {max_snapshots}")
        self.window_ns = window_ns
        self.ring_slots = ring_slots
        self.max_snapshots = max_snapshots


DEFAULT_SETTINGS = SketchSettings()

_active_settings: SketchSettings = DEFAULT_SETTINGS


def active_settings() -> SketchSettings:
    """Settings newly constructed sketches pick up."""
    return _active_settings


def set_settings(settings: SketchSettings) -> SketchSettings:
    """Install ``settings`` globally; returns the previous value."""
    global _active_settings
    previous = _active_settings
    _active_settings = settings
    return previous


class PortDiagnosisSketch:
    """Per-port queue-diagnosis state, updated by the port's hot path."""

    __slots__ = ("port", "window_ns", "snapshots", "updates",
                 "snapshots_taken", "_ring", "_archive", "_live", "_over",
                 "_flows", "_drops", "_drop_snap_window")

    def __init__(self, port: str,
                 settings: Optional[SketchSettings] = None) -> None:
        settings = settings if settings is not None else active_settings()
        self.port = port
        self.window_ns = settings.window_ns
        #: Retained snapshots, oldest evicted first.
        self.snapshots: Deque[Dict[str, Any]] = deque(
            maxlen=settings.max_snapshots)
        #: Hook invocations (enqueue + dequeue + drop + evict) — part of
        #: the golden op counters, so FAST and REFERENCE must agree.
        self.updates = 0
        #: Monotonic snapshot count (unlike ``len(snapshots)``, never
        #: loses evictions).
        self.snapshots_taken = 0
        # Ring slot = [window_id, {queue: {flow: bytes}}]; a slot whose
        # window moved on spills into the archive keyed by window id.
        self._ring: List[Optional[List[Any]]] = [None] * settings.ring_slots
        self._archive: Dict[int, Dict[int, Dict[int, int]]] = {}
        self._live: Dict[int, Dict[int, int]] = {}
        self._over: Dict[int, bool] = {}
        # flow -> [packets, total_delay_ns, max_delay_ns,
        #          max_enqueued_ns, max_dequeued_ns, max_queue]
        self._flows: Dict[int, List[int]] = {}
        # (queue, flow, reason) -> [count, bytes]; queue None for drops
        # that never reached a queue (downed link).
        self._drops: Dict[Tuple[Optional[int], int, str], List[int]] = {}
        self._drop_snap_window: Dict[int, int] = {}

    # -- hot-path updates ------------------------------------------------------

    def record_enqueue(self, now: int, queue: int, flow: int, size: int,
                       occupancy: int,
                       limit: Optional[int]) -> Optional[Dict[str, Any]]:
        """Account an admitted packet; returns a snapshot on a rising
        threshold crossing (occupancy moved above ``limit``)."""
        self.updates += 1
        window_id = now // self.window_ns
        index = window_id % len(self._ring)
        slot = self._ring[index]
        if slot is None or slot[0] != window_id:
            if slot is not None:
                self._archive[slot[0]] = slot[1]
            slot = self._ring[index] = [window_id, {}]
        per_queue = slot[1]
        window_flows = per_queue.get(queue)
        if window_flows is None:
            window_flows = per_queue[queue] = {}
        window_flows[flow] = window_flows.get(flow, 0) + size
        live = self._live.get(queue)
        if live is None:
            live = self._live[queue] = {}
        live[flow] = live.get(flow, 0) + size
        if limit is not None:
            if occupancy > limit:
                if not self._over.get(queue):
                    self._over[queue] = True
                    return self._take_snapshot(now, queue, "threshold-cross",
                                               occupancy, limit)
            elif self._over.get(queue):
                # The threshold moved up underneath us (a steal in this
                # queue's favour): re-arm the rising-edge detector.
                self._over[queue] = False
        return None

    def record_dequeue(self, now: int, queue: int, flow: int, size: int,
                       delay_ns: int, occupancy: int,
                       limit: Optional[int]) -> None:
        """Account a packet leaving the queue head (served or dropped at
        dequeue time) and attribute its queueing delay to its flow."""
        self.updates += 1
        live = self._live.get(queue)
        if live is not None:
            remaining = live.get(flow, 0) - size
            if remaining > 0:
                live[flow] = remaining
            else:
                live.pop(flow, None)
        stats = self._flows.get(flow)
        if stats is None:
            stats = self._flows[flow] = [0, 0, -1, 0, 0, 0]
        stats[0] += 1
        stats[1] += delay_ns
        if delay_ns > stats[2]:
            stats[2] = delay_ns
            stats[3] = now - delay_ns
            stats[4] = now
            stats[5] = queue
        if (limit is not None and occupancy <= limit
                and self._over.get(queue)):
            self._over[queue] = False

    def record_drop(self, now: int, queue: Optional[int], flow: int,
                    size: int, reason: str, occupancy: int,
                    limit: Optional[int]) -> Optional[Dict[str, Any]]:
        """Account a drop; returns a composition snapshot for the first
        drop a queue takes in each window."""
        self.updates += 1
        key = (queue, flow, reason)
        entry = self._drops.get(key)
        if entry is None:
            self._drops[key] = [1, size]
        else:
            entry[0] += 1
            entry[1] += size
        if queue is None:
            return None
        window_id = now // self.window_ns
        if self._drop_snap_window.get(queue) == window_id:
            return None
        self._drop_snap_window[queue] = window_id
        return self._take_snapshot(now, queue, f"drop:{reason}",
                                   occupancy, limit)

    def record_evict(self, now: int, queue: int, flow: int, size: int,
                     occupancy: int,
                     limit: Optional[int]) -> Optional[Dict[str, Any]]:
        """Account a tail eviction: the packet leaves the live
        composition *and* counts as a drop (reason ``evicted``)."""
        live = self._live.get(queue)
        if live is not None:
            remaining = live.get(flow, 0) - size
            if remaining > 0:
                live[flow] = remaining
            else:
                live.pop(flow, None)
        return self.record_drop(now, queue, flow, size, "evicted",
                                occupancy, limit)

    def _take_snapshot(self, now: int, queue: int, detail: str,
                       occupancy: int,
                       limit: Optional[int]) -> Dict[str, Any]:
        self.snapshots_taken += 1
        composition = {flow: size for flow, size
                       in sorted(self._live.get(queue, {}).items())}
        snapshot = {"time_ns": now, "queue": queue, "detail": detail,
                    "occupancy": occupancy, "limit": limit,
                    "composition": composition}
        self.snapshots.append(snapshot)
        return snapshot

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dump of the whole sketch, deterministically ordered.

        JSON object keys must be strings, so window ids / queue indices /
        flow ids become decimal strings here; the query layer converts
        them back.
        """
        windows: Dict[str, Dict[str, Dict[str, int]]] = {}
        merged: Dict[int, Dict[int, Dict[int, int]]] = dict(self._archive)
        for slot in self._ring:
            if slot is not None:
                merged[slot[0]] = slot[1]
        for window_id in sorted(merged):
            per_queue = merged[window_id]
            windows[str(window_id)] = {
                str(queue): {str(flow): size for flow, size
                             in sorted(per_queue[queue].items())}
                for queue in sorted(per_queue)}
        flows = {
            str(flow): {
                "packets": stats[0],
                "total_delay_ns": stats[1],
                "max_delay_ns": stats[2],
                "max_enqueued_ns": stats[3],
                "max_dequeued_ns": stats[4],
                "max_queue": stats[5],
            }
            for flow, stats in sorted(self._flows.items())}
        drops = [
            {"queue": queue, "flow": flow, "reason": reason,
             "count": entry[0], "bytes": entry[1]}
            for (queue, flow, reason), entry in sorted(
                self._drops.items(),
                key=lambda item: (item[0][0] if item[0][0] is not None
                                  else -1, item[0][1], item[0][2]))]
        snapshots = [
            dict(snapshot,
                 composition={str(flow): size for flow, size
                              in snapshot["composition"].items()})
            for snapshot in self.snapshots]
        return {
            "port": self.port,
            "window_ns": self.window_ns,
            "updates": self.updates,
            "snapshots_taken": self.snapshots_taken,
            "windows": windows,
            "flows": flows,
            "drops": drops,
            "snapshots": snapshots,
        }
