"""Hot-path performance configuration.

The simulator has two semantically identical datapaths:

* the **fast path** (default) — pooled :class:`~repro.sim.engine.Event`
  objects, cached zero-subscriber checks in front of every trace
  publish, an incremental victim-search structure inside DynaQ, and
  batched per-port stat counters read on sample boundaries instead of
  per-packet subscribers;
* the **reference path** — the straightforward implementations the fast
  paths were derived from: fresh allocations everywhere, a lazy
  ``TraceBus.emit`` per publish site, and a full ``T_i - S_i`` rescan on
  every over-threshold arrival.

Both paths must produce byte-identical results: the differential tests
in ``tests/test_perf_equivalence.py`` run the same seeded scenario under
both and compare JSONL trace hashes and operation counters, the latter
also against the golden counters in ``tests/data/op_counters.json``.

Components read the active config **at construction time** (never per
packet), so flipping modes affects objects built afterwards::

    from repro.perf import reference_mode

    with reference_mode():
        sim = Simulator()          # no event pooling
        net = build_star(...)      # eager publishes, rescanning DynaQ

This module is import-light on purpose: it must be importable from
``repro.sim.engine`` without dragging any experiment code into the core
import graph.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class PerfConfig:
    """Feature switches for the hot-path optimisations.

    Attributes
    ----------
    event_pooling:
        :class:`~repro.sim.engine.Simulator` recycles executed events
        through a free list (generation-counted; see the engine docs).
    lazy_trace:
        Ports cache per-topic subscriber flags against the bus version,
        so a zero-subscriber publish costs one int compare + dict lookup
        instead of a closure allocation.
    incremental_victim:
        DynaQ maintains the ``T_i - S_i`` argmax incrementally under
        threshold moves instead of rebuilding and rescanning the extra
        vector on every over-threshold arrival.
    batched_stats:
        :class:`~repro.metrics.throughput.PortThroughputMeter` reads
        batched per-port transmit counters on sample boundaries instead
        of subscribing to every ``packet.dequeue`` event.
    cached_decisions:
        Buffer managers return pre-built immutable
        :class:`~repro.queueing.base.Decision` singletons for the common
        accept / recurring drop outcomes instead of allocating one
        object per admission check (two per packet on the dequeue path).
    tx_time_cache:
        Ports memoise ``transmission_time(size)`` per packet size; real
        traffic uses a handful of sizes (MTU, ACK), so the per-packet
        ceil-division becomes a dict hit.
    lazy_round_time:
        DRR's round-time EWMA (consumed only by MQ-ECN) is kept off
        unless a consumer calls ``enable_round_tracking()``, removing a
        clock lambda call per scheduler rotation for every other scheme.
    inline_hot_calls:
        Construction-time call elision on the packet path: ports skip
        buffer-manager hooks that are provably the base-class no-ops,
        inline the default classifier, and DRR reads its port's queue
        state directly instead of through per-packet protocol methods.
    heap_scan_inflight:
        Ports stop tracking every scheduled delivery in a per-packet
        deque; a (rare) ``set_link_down`` finds in-flight packets by
        scanning the simulator heap for this port's delivery callback
        instead.  Moves O(1)-per-packet bookkeeping onto the fault path.
    queue_diagnosis:
        Opt-in observability, not an optimisation: ports maintain a
        :class:`~repro.diagnosis.sketch.PortDiagnosisSketch` (per-window
        flow composition, queueing-delay attribution, threshold-crossing
        snapshots) on the enqueue/dequeue path.  Off by default in
        *both* FAST and REFERENCE so the differential harness keeps
        comparing the unchanged datapaths; when enabled it must be
        enabled on both sides (see the ``fig05_diagnosed`` op-counter
        workload).
    """

    __slots__ = ("event_pooling", "lazy_trace", "incremental_victim",
                 "batched_stats",
                 "cached_decisions", "tx_time_cache", "lazy_round_time",
                 "inline_hot_calls", "heap_scan_inflight",
                 "queue_diagnosis")

    def __init__(self, *, event_pooling: bool = True,
                 lazy_trace: bool = True,
                 incremental_victim: bool = True,
                 batched_stats: bool = True,
                 cached_decisions: bool = True,
                 tx_time_cache: bool = True,
                 lazy_round_time: bool = True,
                 inline_hot_calls: bool = True,
                 heap_scan_inflight: bool = True,
                 queue_diagnosis: bool = False) -> None:
        self.event_pooling = event_pooling
        self.lazy_trace = lazy_trace
        self.incremental_victim = incremental_victim
        self.batched_stats = batched_stats
        self.cached_decisions = cached_decisions
        self.tx_time_cache = tx_time_cache
        self.lazy_round_time = lazy_round_time
        self.inline_hot_calls = inline_hot_calls
        self.heap_scan_inflight = heap_scan_inflight
        self.queue_diagnosis = queue_diagnosis

    def clone(self, **overrides: bool) -> "PerfConfig":
        """Copy with some switches flipped."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(overrides)
        return PerfConfig(**values)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        on = [name for name in self.__slots__ if getattr(self, name)]
        return f"<PerfConfig on={on}>"


#: Every optimisation enabled — the default for all runs.
FAST = PerfConfig()

#: Every optimisation disabled — the pre-optimisation reference
#: semantics, used as the baseline side of differential tests.
REFERENCE = PerfConfig(event_pooling=False, lazy_trace=False,
                       incremental_victim=False,
                       batched_stats=False, cached_decisions=False,
                       tx_time_cache=False, lazy_round_time=False,
                       inline_hot_calls=False, heap_scan_inflight=False,
                       queue_diagnosis=False)

_active: PerfConfig = FAST


def active_config() -> PerfConfig:
    """The config newly constructed components will read."""
    return _active


def set_config(config: PerfConfig) -> PerfConfig:
    """Install ``config`` globally; returns the previous one."""
    global _active
    previous = _active
    _active = config
    return previous


@contextmanager
def use_config(config: PerfConfig) -> Iterator[PerfConfig]:
    """Temporarily install ``config`` (exception-safe)."""
    previous = set_config(config)
    try:
        yield config
    finally:
        set_config(previous)


@contextmanager
def reference_mode() -> Iterator[PerfConfig]:
    """Temporarily run with every optimisation off (reference path)."""
    with use_config(REFERENCE) as config:
        yield config


@contextmanager
def fast_mode() -> Iterator[PerfConfig]:
    """Temporarily force every optimisation on."""
    with use_config(FAST) as config:
        yield config
