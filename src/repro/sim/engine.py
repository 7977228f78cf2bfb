"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: a binary heap of :class:`Event` objects
ordered by ``(time, sequence)``.  The sequence number makes execution order
fully deterministic when several events share a timestamp (FIFO within a
tick), which in turn makes every experiment in this repository exactly
reproducible for a given seed.

Events carry a plain callback instead of coroutine processes; for a
packet-level simulator this is both faster and easier to reason about than a
process-based kernel like simpy (which is not available offline anyway).

Event pooling
-------------

With :attr:`repro.perf.config.PerfConfig.event_pooling` on (the default)
the simulator recycles executed/dead events through a free list instead of
allocating a fresh :class:`Event` per schedule — at packet rates the event
allocator is one of the hottest sites in the whole simulator.  Recycling is
observable to code that *retains* an event handle after it fired, so every
event carries a **generation counter** (:attr:`Event.gen`):

* the counter is bumped every time the pool re-issues the object;
* :meth:`Simulator.cancel` on a handle whose event already executed is
  still a no-op *until* the object is re-issued — after that the handle
  refers to a different logical event, and a raw ``cancel`` would kill an
  innocent bystander;
* callers that keep handles across time therefore snapshot ``event.gen``
  at schedule time and cancel through
  :meth:`Simulator.cancel_versioned`, which no-ops on a stale generation
  (see :meth:`repro.net.port.EgressPort._track_in_flight` for the
  pattern).

Handles that are cleared inside their own callback (RTO timers, delayed
ACK timers, the watchdog) never observe a recycled object and need no
versioning.  ``tests/test_perf_pooling.py`` locks these rules in.

One queue, two layouts
----------------------

The binary heap is the only event queue.  A pooled simulator stores
``(time, seq, event)`` triples so ordering compares plain ints in C; an
unpooled one (the reference oracle) stores bare :class:`Event` objects
ordered by :meth:`Event.__lt__`.  Both pop in exactly ``(time, seq)``
order, which ``tests/test_sim_engine.py`` checks in lockstep.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, List, Optional

from ..perf.config import active_config
from .errors import SimulationError

#: Free-list size cap: enough to absorb the steady-state event population
#: of the largest experiments while bounding worst-case retained memory.
EVENT_POOL_CAP = 8192


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` / :meth:`.at` and
    can be cancelled with :meth:`Simulator.cancel`.  Cancellation is lazy:
    the heap entry stays put and is skipped when popped.  Executed events
    are marked ``cancelled`` too (they are dead either way), which makes
    cancelling an already-fired event a harmless no-op and keeps the
    simulator's live-event counter exact.

    ``gen`` is the pooling generation counter: it changes whenever the
    simulator re-issues this object for a new logical event, so a caller
    holding ``(event, gen)`` can tell a recycled object from the event it
    scheduled (see the module docstring).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "gen")

    def __init__(self, time: int, seq: int,
                 callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.gen = 0

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " dead" if self.cancelled else ""
        return f"<Event t={self.time} #{self.seq} g{self.gen} {name}{state}>"


class Simulator:
    """Event loop with an integer-nanosecond clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1_000, handler, arg1, arg2)   # 1 us from now
        sim.run(until=units.seconds(10))

    Setting :attr:`profiler` (see :class:`repro.telemetry.RunProfiler`)
    makes the loop time every callback; the attribute is ``None`` by
    default and costs one local truth test per event when unset.

    ``pooling`` selects event recycling explicitly; it defaults to
    :func:`repro.perf.config.active_config` at construction time.
    """

    def __init__(self, *, pooling: Optional[bool] = None) -> None:
        self.now: int = 0
        # Heap layout is fixed at construction: pooled simulators store
        # (time, seq, event) triples so ordering compares plain ints in C;
        # the reference path stores bare Events ordered by Event.__lt__,
        # as the pre-optimisation engine did.  seq uniqueness guarantees
        # triple comparison never falls through to the Event object.
        self._heap: List[Any] = []
        self._seq: int = 0
        self._live: int = 0
        self._running = False
        self._stopped = False
        self.events_executed: int = 0
        self.events_cancelled: int = 0
        self.events_reused: int = 0
        self.profiler = None  # duck-typed: record(callback, elapsed_s, heap_len)
        if pooling is None:
            pooling = active_config().event_pooling
        self.pooling = pooling
        self._free: List[Event] = []

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        if not self.pooling:
            return self.at(self.now + delay, callback, *args)
        # Pooled fast path, inlined: schedule() is called once or twice
        # per packet, so the extra at() call frame is measurable.  The
        # at() time check is redundant here (delay >= 0 implies
        # time >= now).
        time = self.now + delay
        seq = self._seq
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.gen += 1
            self.events_reused += 1
        else:
            event = Event(time, seq, callback, args)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def at(self, time: int, callback: Callable[..., None],
           *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self.now}")
        seq = self._seq
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.gen += 1
            self.events_reused += 1
        else:
            event = Event(time, seq, callback, args)
        self._seq = seq + 1
        self._live += 1
        if self.pooling:
            heapq.heappush(self._heap, (time, seq, event))
        else:
            heapq.heappush(self._heap, event)
        return event

    def at_many(self, times: List[int], callback: Callable[..., None],
                items: List[Any]) -> List[Event]:
        """Bulk :meth:`at`: schedule ``callback(item)`` at each
        ``times[i]`` and return the events in order.

        Bulk callers (preloaded arrival trains) schedule a whole train in
        one call, amortising the per-event frame and pool/heap attribute
        traffic.  Caller guarantees every time is ``>= now`` (a train
        running forward from ``times[0]``), so the past-check is hoisted
        to the first entry only.
        """
        if times and times[0] < self.now:
            raise SimulationError(
                f"cannot schedule at t={times[0]} < now={self.now}")
        events: List[Event] = []
        append = events.append
        free = self._free
        pop = free.pop
        seq = self._seq
        pooling = self.pooling
        heap = self._heap
        push = heapq.heappush
        reused = 0
        for i, time in enumerate(times):
            if free:
                event = pop()
                event.time = time
                event.seq = seq
                event.callback = callback
                event.args = (items[i],)
                event.cancelled = False
                event.gen += 1
                reused += 1
            else:
                event = Event(time, seq, callback, (items[i],))
            if pooling:
                push(heap, (time, seq, event))
            else:
                push(heap, event)
            seq += 1
            append(event)
        self._seq = seq
        self._live += len(events)
        self.events_reused += reused
        return events

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event.  Cancelling ``None``, a finished event,
        or an already-cancelled event is a harmless no-op so callers can
        cancel unconditionally.

        With event pooling on, a handle retained *after* its event fired
        may meanwhile refer to a recycled object; such callers must use
        :meth:`cancel_versioned` with the generation snapshotted at
        schedule time instead.
        """
        if event is not None and not event.cancelled:
            event.cancelled = True
            self._live -= 1
            self.events_cancelled += 1

    def cancel_versioned(self, event: Optional[Event], gen: int) -> None:
        """Cancel ``event`` only if it still is generation ``gen``.

        The pooling-safe cancel for retained handles: a no-op when the
        object has been re-issued for a different logical event (its
        ``gen`` moved on) or is already dead.
        """
        if event is not None and event.gen == gen and not event.cancelled:
            event.cancelled = True
            self._live -= 1
            self.events_cancelled += 1

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``stop()``.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        ``max_events`` bounds total callbacks executed in this call — a
        safety valve for property tests and runaway configurations.
        A horizon before :attr:`now` is refused: the clock never runs
        backwards (``until == now`` is legal and runs what is due now).
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until t={until} < now={self.now}")
        if max_events is not None and max_events < 0:
            raise SimulationError(
                f"max_events must be >= 0 (got {max_events})")
        self._running = True
        self._stopped = False
        try:
            if (self.pooling and self.profiler is None
                    and max_events is None):
                self._run_pooled(until)
            else:
                self._run_general(until, max_events)
        finally:
            self._running = False

    def _run_pooled(self, until: Optional[int]) -> None:
        """Tight run loop for the common pooled case (no profiler, no
        ``max_events``).  Byte-for-byte the same semantics as the general
        loop — same ordering, same clock behaviour, same counters — with
        the per-event release inlined and the optional checks hoisted out
        of the hot loop.

        ``until`` is compared with the explicit ``bounded`` flag rather
        than a ``float("inf")`` sentinel: event times are integers, and
        int→float comparison silently loses precision past 2**53 ns
        (~104 days of simulated time — reachable by long-horizon serve
        jobs), which could run events *beyond* the horizon.
        """
        heap = self._heap
        free = self._free
        pop = heapq.heappop
        bounded = until is not None
        executed = 0
        try:
            while heap:
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    # Inline head compaction: dead entries are popped and
                    # their events recycled right here.
                    pop(heap)
                    if len(free) < EVENT_POOL_CAP:
                        event.callback = None
                        event.args = ()
                        free.append(event)
                    continue
                time = entry[0]
                if bounded and time > until:
                    self.now = until
                    return
                pop(heap)
                event.cancelled = True  # consumed; see Event docstring
                self.now = time
                # Consumed before the callback runs: a raising callback
                # must still be accounted for in the deferred batch below,
                # or pending() would over-count after the exception and a
                # post-mortem snapshot would carry a corrupt live count.
                executed += 1
                try:
                    event.callback(*event.args)
                except BaseException:
                    # The event was consumed: recycle it even on the
                    # error path so pool accounting cannot drift.
                    if len(free) < EVENT_POOL_CAP:
                        event.callback = None
                        event.args = ()
                        free.append(event)
                    raise
                if len(free) < EVENT_POOL_CAP:
                    event.callback = None
                    event.args = ()
                    free.append(event)
                if self._stopped:
                    return
            if bounded and self.now < until:
                self.now = until
        finally:
            # Executed events leave the live set in one batch.  Safe to
            # defer: consumed events are marked cancelled before their
            # callback runs, so a cancel() from inside a callback cannot
            # double-count them, and pending() is exact again the moment
            # run() returns.
            self.events_executed += executed
            self._live -= executed

    def _run_general(self, until: Optional[int],
                     max_events: Optional[int]) -> None:
        """The general loop: either heap layout, optional profiler and
        ``max_events``."""
        heap = self._heap
        profiler = self.profiler
        pooling = self.pooling
        executed = 0
        while max_events is None or executed < max_events:
            if not heap:
                if until is not None and self.now < until:
                    self.now = until
                break
            event = heap[0][2] if pooling else heap[0]
            if event.cancelled:
                self._compact_head()
                continue
            if until is not None and event.time > until:
                self.now = until
                break
            heapq.heappop(heap)
            event.cancelled = True  # consumed; see Event docstring
            self._live -= 1
            self.now = event.time
            # Count the event as executed *before* running its
            # callback: if the callback raises, the heap and the live
            # counter must still agree so a post-mortem snapshot of
            # the simulator is consistent (the event was consumed).
            self.events_executed += 1
            executed += 1
            try:
                if profiler is None:
                    event.callback(*event.args)
                else:
                    start = perf_counter()
                    event.callback(*event.args)
                    profiler.record(
                        event.callback, perf_counter() - start, len(heap))
            except BaseException:
                # Consumed events are recycled even when their callback
                # raises, keeping pool_size() in lockstep with the pooled
                # loop's accounting.
                if pooling:
                    self._release(event)
                raise
            if pooling:
                self._release(event)
            if self._stopped:
                break

    def stop(self) -> None:
        """Stop the loop after the currently executing callback returns."""
        self._stopped = True

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the sequence counter)."""
        return self._seq

    def pending(self) -> int:
        """Number of live (non-cancelled) events still in the heap.

        O(1): maintained incrementally on schedule / cancel / execute.
        """
        return self._live

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if idle."""
        self._compact_head()
        if not self._heap:
            return None
        return self._heap[0][0] if self.pooling else self._heap[0].time

    def pool_size(self) -> int:
        """Events currently parked in the free list."""
        return len(self._free)

    def audit_counters(self) -> List[str]:
        """Cold-path sanity audit of the operation counters.

        Returns problem descriptions (empty = sane): the live-event
        count stays non-negative, no more events have executed than were
        ever scheduled, the free list is bounded by ``EVENT_POOL_CAP``,
        and the heap never holds *more* live events than :meth:`pending`
        reports.  Unlike :meth:`check_consistency` this audit is safe to
        run from inside an event callback: the pooled run loop batches
        its ``_live`` decrement and its ``events_executed`` increment
        until :meth:`run` returns, so mid-run the live counter may exceed
        the heap count and the executed counter lags — both only in the
        direction these checks tolerate.  Used by the soak invariant
        engine on its check cadence, never by the datapath.
        """
        problems: List[str] = []
        if self.pending() < 0:
            problems.append(f"negative live-event count {self.pending()}")
        if self.events_executed > self.events_scheduled:
            problems.append(
                f"{self.events_executed} events executed but only "
                f"{self.events_scheduled} ever scheduled")
        if self.pool_size() > EVENT_POOL_CAP:
            problems.append(
                f"free list holds {self.pool_size()} events, cap is "
                f"{EVENT_POOL_CAP}")
        alive = self._alive_count()
        if alive > self._live:
            problems.append(
                f"heap/counter mismatch: {alive} live events in heap "
                f"but pending() reports {self._live}")
        return problems

    def pending_events_for(self, callback: Callable[..., None]) -> List[Event]:
        """Live scheduled events whose callback is ``callback`` (by
        identity), in execution order.

        O(heap size); meant for *rare* control paths that trade away
        per-occurrence bookkeeping — a link-down fault collecting the
        deliveries still on the wire (see
        :attr:`repro.perf.config.PerfConfig.heap_scan_inflight`) — never
        for per-packet logic.
        """
        if self.pooling:
            hits = [entry[2] for entry in self._heap
                    if not entry[2].cancelled
                    and entry[2].callback is callback]
        else:
            hits = [event for event in self._heap
                    if not event.cancelled and event.callback is callback]
        hits.sort()  # Event.__lt__: (time, seq) == schedule order here
        return hits

    def _alive_count(self) -> int:
        """Count live (non-cancelled) events actually present in the
        heap.  O(heap size) — cold paths only."""
        if self.pooling:
            return sum(1 for entry in self._heap if not entry[2].cancelled)
        return sum(1 for event in self._heap if not event.cancelled)

    def check_consistency(self) -> None:
        """Verify the heap and the live counter agree.

        Raises :class:`SimulationError` on a mismatch.  O(heap size), so
        this is for rare control paths only — the snapshot layer calls it
        before pickling a post-mortem world to guarantee the saved state
        is resumable, even after an exception escaped a callback.  Only
        exact *between* :meth:`run` calls: the pooled loop defers its
        live-counter decrement, so mid-run use :meth:`audit_counters`.
        """
        alive = self._alive_count()
        if alive != self._live:
            raise SimulationError(
                f"heap/counter mismatch: {alive} live events in heap but "
                f"pending() reports {self._live}")

    # -- internals -----------------------------------------------------------

    def _compact_head(self) -> None:
        """Pop dead (cancelled/consumed) events off the heap head."""
        pooling = self.pooling
        heap = self._heap
        while heap:
            event = heap[0][2] if pooling else heap[0]
            if not event.cancelled:
                break
            heapq.heappop(heap)
            if pooling:
                self._release(event)

    def _release(self, event: Event) -> None:
        """Park a dead event in the free list (drops payload references)."""
        if len(self._free) < EVENT_POOL_CAP:
            event.callback = None
            event.args = ()
            self._free.append(event)
