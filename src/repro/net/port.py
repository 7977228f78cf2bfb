"""Multi-queue egress port.

The egress port is where everything in the paper happens: packets arriving
for an output link are classified into one of M service queues, pass the
buffer manager's admission check (DynaQ / BestEffort / PQL / ECN schemes),
and are later pulled by a work-conserving packet scheduler (DRR / WRR /
SPQ) when the link is free.

One object models the port buffer, the service queues, the scheduler
binding, and the link (rate + propagation delay) to the downstream node.
It implements both observation protocols:

* :class:`~repro.queueing.base.PortView` for buffer managers, and
* :class:`~repro.queueing.schedulers.base.QueueView` for schedulers.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..perf.config import active_config
from ..queueing.base import BufferManager
from ..queueing.schedulers.base import Scheduler
from ..queueing.schedulers.drr import DRRScheduler
from ..sim.engine import Event, Simulator
from ..sim.errors import ConfigurationError
from ..sim.trace import (
    TOPIC_PACKET_DEQUEUE,
    TOPIC_PACKET_DROP,
    TOPIC_PACKET_ENQUEUE,
    TOPIC_PACKET_MARK,
    TOPIC_QUEUE_SNAPSHOT,
    TraceBus,
)
from ..sim.units import transmission_time
from .packet import Packet

Classifier = Callable[[Packet], int]

#: Topics a port publishes per packet; the port caches one "anyone
#: listening?" flag per entry, refreshed by a bus watcher.
_PORT_TOPICS = (TOPIC_PACKET_DROP, TOPIC_PACKET_ENQUEUE,
                TOPIC_PACKET_DEQUEUE, TOPIC_PACKET_MARK)

#: Size cap for the per-size transmission-time memo.  Real traffic uses a
#: handful of sizes; a randomized-size workload in a long-lived serve
#: daemon must not grow the dict without bound, so on hitting the cap the
#: memo is cleared and rebuilt from the working set (results are pure
#: functions of (size, rate), so clearing never changes an answer).
_TX_CACHE_CAP = 512


class EgressPort:
    """One output port of a host NIC or switch."""

    def __init__(self, sim: Simulator, name: str, *, rate_bps: int,
                 prop_delay_ns: int, buffer_bytes: int,
                 scheduler: Scheduler, buffer_manager: BufferManager,
                 classifier: Optional[Classifier] = None,
                 trace: Optional[TraceBus] = None) -> None:
        if rate_bps <= 0 or buffer_bytes <= 0 or prop_delay_ns < 0:
            raise ConfigurationError(
                f"bad port parameters for {name}: rate={rate_bps}, "
                f"buffer={buffer_bytes}, prop={prop_delay_ns}")
        self.sim = sim
        self.name = name
        self.link_rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.buffer_bytes = buffer_bytes
        self.scheduler = scheduler
        self.buffer_manager = buffer_manager
        self.num_queues = scheduler.num_queues
        self._classifier = classifier or self._default_classifier
        self.trace = trace
        self.peer = None  # downstream node, set by connect()

        self._queues: List[Deque[Packet]] = [
            deque() for _ in range(self.num_queues)]
        self._queue_bytes: List[int] = [0] * self.num_queues
        self._total_bytes = 0
        self._busy = False

        # Fault-injection state (see repro.faults): a downed link drops
        # arrivals and in-flight packets, a stalled port stops draining,
        # and a positive corruption rate flips packets to checksum-fail.
        self.link_up = True
        self.stalled = False
        self.corrupt_rate = 0.0
        self._corrupt_rng = None

        # Counters for experiments and assertions.
        self.enqueued_packets = 0
        self.dropped_packets = 0
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        self.inflight_losses = 0
        self.corrupted_packets = 0
        # Conservation breakdown: packets that left a queue *without*
        # being transmitted.  Together with the buffered packets these
        # close the port-local conservation equation audited by the
        # soak invariant engine (see audit_conservation):
        #   enqueued == transmitted + buffered + evicted + dequeue_drops
        self.evicted_packets = 0
        self.dequeue_drops = 0
        # Batched per-queue transmit counters: stat collectors read these
        # on sample boundaries instead of subscribing to every
        # packet.dequeue event (see PortThroughputMeter).
        self.queue_tx_bytes: List[int] = [0] * self.num_queues

        # Per-topic subscriber flags, refreshed by a bus watcher on every
        # (un)subscribe, plus one all-silent flag (_quiet) that the hot
        # call sites test inline.  The watcher is also how bench/probe.py
        # finds every port of a world, so it is registered for every port
        # that has a bus.
        self._topic_live: Dict[str, bool] = {}
        self._quiet = True
        if trace is not None:
            trace.add_watcher(self._refresh_topic_flags)
            self._refresh_topic_flags()
        # Memoised transmission_time per packet size: real traffic uses a
        # handful of sizes (MTU, ACK), so the per-packet ceil division
        # collapses to a dict hit.
        self._tx_cache: Dict[int, int] = {}
        # Construction-time call elision: skip manager and scheduler
        # hooks that are provably the base-class no-ops, inline the
        # default classifier, and bind the queue deques to the scheduler
        # so it reads them without per-packet protocol calls.
        manager_cls = type(buffer_manager)
        self._on_enqueued = (
            None if manager_cls.on_enqueued is BufferManager.on_enqueued
            else buffer_manager.on_enqueued)
        self._on_dequeue = (
            None if manager_cls.on_dequeue is BufferManager.on_dequeue
            else buffer_manager.on_dequeue)
        self._sched_on_enqueue = (
            None if type(scheduler).on_enqueue is Scheduler.on_enqueue
            else scheduler.on_enqueue)
        self._inline_classify = classifier is None
        # Inline-admission fast path: when the manager publishes the
        # contract list (see BufferManager.inline_admit_thresholds),
        # send()/send_many() accept under-threshold packets without the
        # admit() call, only ever the contract owner's (an overriding
        # subclass keeps every call).  The manager is pinned here; the
        # list is re-read per packet/burst because managers may replace
        # it wholesale (DynaQ reinitialize).
        owner = manager_cls.contract_owner
        self._fast_admit = (
            buffer_manager if owner is not None
            and manager_cls.admit is owner.admit else None)
        scheduler.bind_queues(self._queues)
        # Opt-in queue diagnosis (PrintQueue-style sketches, see
        # repro.diagnosis): constructed only under the queue_diagnosis
        # switch, so the default datapath pays one `is not None` test
        # per hook site and nothing else.  The import stays lazy to keep
        # the diagnosis package out of the core import graph.
        self._sketch = None
        if active_config().queue_diagnosis:
            from ..diagnosis.sketch import PortDiagnosisSketch
            self._sketch = PortDiagnosisSketch(name)
        self._deliver = None  # cached peer.receive, set by connect()
        # Burst-local drop memo (send_many): per-queue last repeat-pure
        # dropped size + decision.  Valid only within one send_many call
        # and only between accepts; _memo_zeros resets it.
        self._drop_memo_sizes = [0] * self.num_queues
        self._drop_memo_decs: List[Optional[object]] = (
            [None] * self.num_queues)
        self._memo_zeros = [0] * self.num_queues
        # Transmit-completion callback, bound once (attach_pool in
        # repro.net.shared_buffer re-points it at its releasing wrapper).
        self._tx_complete = self._transmit_next
        # Inline DRR (construction-time type pin): send() and
        # _transmit_next() replicate on_enqueue/select against the
        # scheduler's own state containers, skipping a Python call per
        # packet.  The container identities are stable for the port's
        # lifetime — reconfiguration mutates them in place.
        self._drr = ((scheduler._deficits, scheduler._active,
                      scheduler._in_active)
                     if type(scheduler) is DRRScheduler else None)

        bind_clock = getattr(scheduler, "bind_clock", None)
        if bind_clock is not None:
            # Bound method, not a lambda: the scheduler retains the clock
            # for the run's lifetime and lambdas would break snapshots.
            bind_clock(self.now)
        if trace is not None:
            buffer_manager.bind_trace(trace, name)
        buffer_manager.attach(self)

    # -- wiring -----------------------------------------------------------------

    def connect(self, peer) -> None:
        """Attach the downstream node (anything with ``receive(packet)``)."""
        self.peer = peer
        # One bound method per port, reused for every delivery: saves the
        # per-packet attribute chain + bound-method allocation, and gives
        # set_link_down's heap scan a unique identity to match on.
        self._deliver = peer.receive

    def _default_classifier(self, packet: Packet) -> int:
        return min(packet.service_class, self.num_queues - 1)

    def set_classifier(self, classifier: Optional[Classifier]) -> None:
        """Swap the packet classifier at runtime (``None`` restores the
        default service-class mapping).

        The supported way to change classification after construction:
        it also turns off the inlined default classifier so the new
        function is actually consulted.
        """
        self._classifier = classifier or self._default_classifier
        self._inline_classify = classifier is None

    # -- PortView protocol ---------------------------------------------------------

    def queue_bytes(self, index: int) -> int:
        return self._queue_bytes[index]

    def total_bytes(self) -> int:
        return self._total_bytes

    def queue_weights(self) -> List[float]:
        return self.scheduler.weights

    def now(self) -> int:
        return self.sim.now

    # -- QueueView protocol ----------------------------------------------------------

    def queue_empty(self, index: int) -> bool:
        return not self._queues[index]

    def head_size(self, index: int) -> int:
        return self._queues[index][0].size

    # -- datapath ----------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Offer ``packet`` to this port (classification + admission)."""
        if self.peer is None:
            raise ConfigurationError(f"port {self.name} is not connected")
        if self._inline_classify:
            service_class = packet.service_class
            last = self.num_queues - 1
            queue_index = service_class if service_class < last else last
        else:
            queue_index = self._classifier(packet)
        quiet = self._quiet
        sketch = self._sketch
        if not self.link_up:
            self.dropped_packets += 1
            if sketch is not None:
                self._sketch_drop(packet, queue_index, "link down")
            if not quiet:
                self._publish(TOPIC_PACKET_DROP, packet, queue_index,
                              "link down")
            return
        size = packet.size
        fadmit = self._fast_admit
        thresholds = (fadmit.inline_admit_thresholds
                      if fadmit is not None else None)
        if (thresholds is None
                or self._queue_bytes[queue_index] + size
                > thresholds[queue_index]
                or self._total_bytes + size > self.buffer_bytes):
            decision = self.buffer_manager.admit(packet, queue_index)
            if not decision.accept:
                self.dropped_packets += 1
                if sketch is not None:
                    self._sketch_drop(packet, queue_index,
                                      decision.reason)
                if not quiet:
                    self._publish(TOPIC_PACKET_DROP, packet, queue_index,
                                  decision.reason)
                return
            if decision.mark and packet.ecn_capable:
                packet.ecn_ce = True
                if not quiet:
                    self._publish(TOPIC_PACKET_MARK, packet, queue_index,
                                  "enqueue")
        packet.enqueued_at = self.sim.now
        self._queues[queue_index].append(packet)
        self._queue_bytes[queue_index] += size
        self._total_bytes += size
        self.enqueued_packets += 1
        drr = self._drr
        if drr is not None:
            # Inline replica of DRRScheduler.on_enqueue: activate an
            # idle queue with zero deficit.
            if not drr[2][queue_index]:
                drr[2][queue_index] = True
                drr[0][queue_index] = 0.0
                drr[1].append(queue_index)
        else:
            sched_on_enqueue = self._sched_on_enqueue
            if sched_on_enqueue is not None:
                sched_on_enqueue(queue_index)
        on_enqueued = self._on_enqueued
        if on_enqueued is not None:
            on_enqueued(packet, queue_index)
        if sketch is not None:
            self._sketch_enqueue(packet, queue_index)
        if not quiet:
            self._publish(TOPIC_PACKET_ENQUEUE, packet, queue_index, "")
        if not self._busy:
            self._transmit_next()

    def send_many(self, packets: List[Packet]) -> None:
        """Offer a burst of packets arriving at the same timestamp.

        Semantically identical to calling :meth:`send` once per packet;
        bulk drivers (the bench feeders, trace replayers) use it so the
        per-arrival Python call overhead is paid once per burst.  Only
        loop-invariant state is hoisted — the clock (no events can run
        while the loop spins), classification mode, trace quiescence and
        the admission entry point; anything a per-packet side effect can
        change (link state, port busyness) is re-checked per packet
        exactly as :meth:`send` would.  Keep the loop body in lockstep
        with send().
        """
        now = self.sim.now
        if self.peer is None:
            raise ConfigurationError(f"port {self.name} is not connected")
        inline_classify = self._inline_classify
        classifier = self._classifier
        last = self.num_queues - 1
        quiet = self._quiet
        sketch = self._sketch
        admit = self.buffer_manager.admit
        queues = self._queues
        queue_bytes = self._queue_bytes
        drr = self._drr
        sched_on_enqueue = self._sched_on_enqueue
        on_enqueued = self._on_enqueued
        # Inline-admission contract: the list identity can only change
        # through external reconfiguration, never from inside this loop
        # (admit() mutates thresholds in place), so one fetch per burst
        # is exact.
        fadmit = self._fast_admit
        thresholds = (fadmit.inline_admit_thresholds
                      if fadmit is not None else None)
        buffer_bytes = self.buffer_bytes
        # Drop memo (the repeat-pure contract; see BufferManager): within
        # this burst, a (queue, size) that just drop-pure-failed fails
        # identically until an accept or an impure admit() outcome
        # mutates port or manager state — so drop storms pay one admit()
        # per queue, not one per packet.
        pure_drops = (fadmit.pure_drop_decisions
                      if fadmit is not None else ())
        memo_sizes = self._drop_memo_sizes if pure_drops else None
        memo_decs = self._drop_memo_decs
        memo_zeros = self._memo_zeros
        memo_live = False
        if memo_sizes is not None:
            # Stale entries from the previous burst must never be
            # trusted once this burst stores its first memo.
            memo_sizes[:] = memo_zeros
        for packet in packets:
            if inline_classify:
                service_class = packet.service_class
                queue_index = (service_class if service_class < last
                               else last)
            else:
                queue_index = classifier(packet)
            if not self.link_up:
                self.dropped_packets += 1
                if sketch is not None:
                    self._sketch_drop(packet, queue_index, "link down")
                if not quiet:
                    self._publish(TOPIC_PACKET_DROP, packet, queue_index,
                                  "link down")
                continue
            size = packet.size
            if (thresholds is None
                    or queue_bytes[queue_index] + size
                    > thresholds[queue_index]
                    or self._total_bytes + size > buffer_bytes):
                if memo_live and memo_sizes[queue_index] == size:
                    decision = memo_decs[queue_index]
                    fadmit.repeat_drop(decision)
                else:
                    decision = admit(packet, queue_index)
                    if memo_sizes is not None:
                        if decision in pure_drops:
                            memo_sizes[queue_index] = size
                            memo_decs[queue_index] = decision
                            memo_live = True
                        elif memo_live:
                            # An accept, or a drop that may follow a
                            # threshold steal ("port buffer full"),
                            # mutated state the memoised drops depend on.
                            memo_sizes[:] = memo_zeros
                            memo_live = False
                if not decision.accept:
                    self.dropped_packets += 1
                    if sketch is not None:
                        self._sketch_drop(packet, queue_index,
                                          decision.reason)
                    if not quiet:
                        self._publish(TOPIC_PACKET_DROP, packet,
                                      queue_index, decision.reason)
                    continue
                if decision.mark and packet.ecn_capable:
                    packet.ecn_ce = True
                    if not quiet:
                        self._publish(TOPIC_PACKET_MARK, packet,
                                      queue_index, "enqueue")
            elif memo_live:
                # Inline-admit accept: mutates occupancy too.
                memo_sizes[:] = memo_zeros
                memo_live = False
            packet.enqueued_at = now
            queues[queue_index].append(packet)
            queue_bytes[queue_index] += size
            self._total_bytes += size
            self.enqueued_packets += 1
            if drr is not None:
                if not drr[2][queue_index]:
                    drr[2][queue_index] = True
                    drr[0][queue_index] = 0.0
                    drr[1].append(queue_index)
            elif sched_on_enqueue is not None:
                sched_on_enqueue(queue_index)
            if on_enqueued is not None:
                on_enqueued(packet, queue_index)
            if sketch is not None:
                self._sketch_enqueue(packet, queue_index)
            if not quiet:
                self._publish(TOPIC_PACKET_ENQUEUE, packet, queue_index,
                              "")
            if not self._busy:
                self._transmit_next()

    def _transmit_next(self) -> None:
        if self.stalled or not self.link_up:
            # Drain stall or downed link: park the port.  set_link_up() /
            # resume() restart the transmit loop.
            self._busy = False
            return
        sim = self.sim
        scheduler = self.scheduler
        drr = self._drr
        if drr is not None and not scheduler._track_rounds:
            # Inline replica of DRRScheduler.select (round tracking
            # re-checked per call — MQ-ECN can enable it mid-run).
            deficits, active, in_active = drr
            queues = self._queues
            quanta = scheduler.quanta
            queue_index = None
            while active:
                qi = active[0]
                q = queues[qi]
                if q:
                    d = deficits[qi]
                    head_size = q[0].size
                    if d >= head_size:
                        deficits[qi] = d - head_size
                        queue_index = qi
                        break
                    deficits[qi] = d + quanta[qi]
                    active.rotate(-1)
                else:
                    active.popleft()
                    in_active[qi] = False
                    deficits[qi] = 0.0
        else:
            queue_index = scheduler.select(self)
        if queue_index is None:
            self._busy = False
            return
        packet = self._queues[queue_index].popleft()
        size = packet.size
        self._queue_bytes[queue_index] -= size
        self._total_bytes -= size
        on_dequeue = self._on_dequeue
        # None means the manager's hook is the base-class unconditional
        # accept (construction-time check), so the decision dance below
        # can be skipped entirely.
        decision = None if on_dequeue is None else on_dequeue(
            packet, queue_index)
        cache = self._tx_cache
        tx_ns = cache.get(size)
        if tx_ns is None:
            tx_ns = transmission_time(size, self.link_rate_bps)
            if len(cache) >= _TX_CACHE_CAP:
                cache.clear()
            cache[size] = tx_ns
        self._busy = True
        quiet = self._quiet
        sketch = self._sketch
        if decision is not None:
            if not decision.accept:
                # Dequeue-time drop (TCN drop variant): the scheduling
                # slot is already committed, so the wire idles for the
                # packet's transmission time — the very pathology §II-C
                # describes.
                self.dropped_packets += 1
                self.dequeue_drops += 1
                if sketch is not None:
                    # The packet *did* queue (delay attribution stands)
                    # and then dropped at the head.
                    self._sketch_dequeue(packet, queue_index)
                    self._sketch_drop(packet, queue_index, decision.reason)
                if not quiet:
                    self._publish(TOPIC_PACKET_DROP, packet, queue_index,
                                  decision.reason)
                self.sim.schedule(tx_ns, self._tx_complete)
                return
            if decision.mark and packet.ecn_capable:
                packet.ecn_ce = True
                if not quiet:
                    self._publish(TOPIC_PACKET_MARK, packet, queue_index,
                                  "dequeue")
        if sketch is not None:
            self._sketch_dequeue(packet, queue_index)
        if not quiet:
            self._publish(TOPIC_PACKET_DEQUEUE, packet, queue_index, "")
        self.transmitted_packets += 1
        self.transmitted_bytes += size
        self.queue_tx_bytes[queue_index] += size
        if (self.corrupt_rate > 0.0 and self._corrupt_rng is not None
                and self._corrupt_rng.random() < self.corrupt_rate):
            packet.corrupted = True
            self.corrupted_packets += 1
        if sim.pooling:
            # Fused inline of the two schedule() calls, sharing one round
            # of free-list/seq bookkeeping.  Completion first: its seq
            # must stay below the delivery's so a zero-prop-delay tie
            # keeps completion-before-delivery order.
            comp_time = sim.now + tx_ns
            free = sim._free
            seq = sim._seq
            cb = self._tx_complete
            if free:
                comp = free.pop()
                comp.time = comp_time
                comp.seq = seq
                comp.callback = cb
                comp.args = ()
                comp.cancelled = False
                comp.gen += 1
                sim.events_reused += 1
            else:
                comp = Event(comp_time, seq, cb, ())
            dtime = comp_time + self.prop_delay_ns
            dseq = seq + 1
            cb = self._deliver
            if free:
                delivery = free.pop()
                delivery.time = dtime
                delivery.seq = dseq
                delivery.callback = cb
                delivery.args = (packet,)
                delivery.cancelled = False
                delivery.gen += 1
                sim.events_reused += 1
            else:
                delivery = Event(dtime, dseq, cb, (packet,))
            sim._seq = dseq + 1
            sim._live += 2
            heap = sim._heap
            heappush(heap, (comp_time, seq, comp))
            heappush(heap, (dtime, dseq, delivery))
        else:
            sim.schedule(tx_ns, self._tx_complete)
            sim.schedule(tx_ns + self.prop_delay_ns, self._deliver, packet)

    def evict_tail(self, queue_index: int):
        """Remove and return the tail packet of a queue (or ``None``).

        Exists for eviction-based buffer managers (the BarberQ-style
        DynaQ extension): dropping an already-buffered packet of an
        over-threshold queue to admit a more deserving arrival.  The
        evicted packet is accounted as a drop.
        """
        queue = self._queues[queue_index]
        if not queue:
            return None
        packet = queue.pop()
        self._queue_bytes[queue_index] -= packet.size
        self._total_bytes -= packet.size
        self.dropped_packets += 1
        self.evicted_packets += 1
        if self._sketch is not None:
            snapshot = self._sketch.record_evict(
                self.sim.now, queue_index, packet.flow_id, packet.size,
                self._queue_bytes[queue_index],
                self._sketch_limit(queue_index))
            if snapshot is not None:
                self._sketch_publish(snapshot)
        self._publish(TOPIC_PACKET_DROP, packet, queue_index, "evicted")
        return packet

    # -- cold-path auditing --------------------------------------------------------

    def audit_conservation(self) -> List[str]:
        """Cross-check occupancy and conservation counters (cold path).

        Returns a list of human-readable problems, empty when the port
        is consistent.  Checks, in order: per-queue byte accounting,
        total-occupancy accounting, the ``total <= B`` bound, per-queue
        FIFO order (packets leave in arrival order, so ``enqueued_at``
        must be non-decreasing front to back), and the packet
        conservation equation
        ``enqueued == transmitted + buffered + evicted + dequeue_drops``.

        Only the soak invariant engine calls this, on its own cadence —
        never the datapath.
        """
        problems: List[str] = []
        buffered = 0
        for index, queue in enumerate(self._queues):
            actual = sum(packet.size for packet in queue)
            buffered += len(queue)
            if actual != self._queue_bytes[index]:
                problems.append(
                    f"queue {index}: occupancy counter says "
                    f"{self._queue_bytes[index]}B but the deque holds "
                    f"{actual}B")
            last_arrival = None
            for packet in queue:
                if (last_arrival is not None
                        and packet.enqueued_at < last_arrival):
                    problems.append(
                        f"queue {index}: FIFO order violated "
                        f"(enqueued_at {packet.enqueued_at} behind "
                        f"{last_arrival})")
                    break
                last_arrival = packet.enqueued_at
        if sum(self._queue_bytes) != self._total_bytes:
            problems.append(
                f"total occupancy counter {self._total_bytes}B != "
                f"sum of queue counters {sum(self._queue_bytes)}B")
        if self._total_bytes > self.buffer_bytes:
            problems.append(
                f"occupancy {self._total_bytes}B exceeds the buffer "
                f"({self.buffer_bytes}B)")
        accounted = (self.transmitted_packets + buffered
                     + self.evicted_packets + self.dequeue_drops)
        if self.enqueued_packets != accounted:
            problems.append(
                f"conservation: enqueued {self.enqueued_packets} != "
                f"transmitted {self.transmitted_packets} + buffered "
                f"{buffered} + evicted {self.evicted_packets} + "
                f"dequeue drops {self.dequeue_drops}")
        return problems

    # -- operator actions ----------------------------------------------------------

    def resize_buffer(self, new_buffer_bytes: int) -> None:
        """Change the port buffer size at runtime (paper §III-B3).

        The paper notes that resizing breaks DynaQ's ``sum(T) == B``
        equality and prescribes re-running the threshold initialisation;
        any buffer manager exposing ``reinitialize()`` gets exactly that.
        Shrinking below the current occupancy is allowed — the buffer
        drains naturally because admission checks use the new size.
        """
        if new_buffer_bytes <= 0:
            raise ConfigurationError(
                f"port {self.name}: buffer must be positive, "
                f"got {new_buffer_bytes}")
        self.buffer_bytes = new_buffer_bytes
        reinitialize = getattr(self.buffer_manager, "reinitialize", None)
        if reinitialize is not None:
            reinitialize()

    def set_link_rate(self, rate_bps: int) -> None:
        """Change the link rate at runtime (shaping, §V prototype).

        Invalidates the memoised per-size transmission times; in-flight
        transmissions keep the duration they were scheduled with, which
        matches how a real shaper only affects subsequent packets.
        """
        if rate_bps <= 0:
            raise ConfigurationError(
                f"port {self.name}: rate must be positive, got {rate_bps}")
        self.link_rate_bps = rate_bps
        self._tx_cache.clear()

    def reconfigure_weights(self, weights: Sequence[float]) -> None:
        """Change the scheduler weights at runtime (operator action).

        Forwards to the scheduler's ``set_weights`` and then lets the
        buffer manager re-derive its weight-dependent state: DynaQ's
        ``reconfigure`` re-normalises ``T_i``/``S_i`` so ``sum(T) == B``
        holds across the transition; managers without a dedicated
        reconfigure path fall back to ``reinitialize``.
        """
        self.scheduler.set_weights(weights)
        reconfigure = getattr(self.buffer_manager, "reconfigure", None)
        if reconfigure is not None:
            reconfigure()
            return
        reinitialize = getattr(self.buffer_manager, "reinitialize", None)
        if reinitialize is not None:
            reinitialize()

    # -- fault hooks (driven by repro.faults.FaultController) ---------------------

    def set_link_down(self) -> None:
        """Take the link down: drop in-flight packets, refuse arrivals.

        Packets already on the wire (transmitted but not yet received)
        are lost — their delivery events are cancelled and accounted as
        drops, which is what makes a flap visible to transports as loss
        rather than as a silent pause.

        Nothing is recorded per packet to make this possible: the wire's
        contents are found by scanning the event heap for this port's
        delivery callback, which yields them in schedule order.
        """
        if not self.link_up:
            return
        self.link_up = False
        for delivery in self.sim.pending_events_for(self._deliver):
            packet = delivery.args[0]
            self.sim.cancel(delivery)
            self.dropped_packets += 1
            self.inflight_losses += 1
            self._publish(TOPIC_PACKET_DROP, packet, None, "lost in flight")

    def set_link_up(self) -> None:
        """Bring the link back; resume draining queued packets."""
        if self.link_up:
            return
        self.link_up = True
        if not self._busy:
            self._transmit_next()

    def stall(self) -> None:
        """Pause the scheduler (drain stall): queued packets sit still.

        Unlike a downed link, arrivals are still admitted and buffered,
        so a stall fills the port buffer and exercises admission-control
        behaviour under sustained occupancy.
        """
        self.stalled = True

    def resume(self) -> None:
        """Resume draining after a :meth:`stall`."""
        if not self.stalled:
            return
        self.stalled = False
        if not self._busy:
            self._transmit_next()

    def set_corruption(self, rate: float, rng=None) -> None:
        """Corrupt a fraction of departing packets (checksum-drop later).

        Corrupted packets traverse the wire normally but fail the
        checksum at the end host and are discarded there, so the sender
        sees loss only via missing ACKs.  ``rate = 0`` clears the fault.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"corruption rate must be in [0, 1], got {rate}")
        self.corrupt_rate = rate
        if rng is not None:
            self._corrupt_rng = rng
        if rate > 0.0 and self._corrupt_rng is None:
            raise ConfigurationError(
                f"port {self.name}: corruption needs an rng for "
                "deterministic replay")

    # -- queue diagnosis (opt-in, self._sketch is None by default) ---------------

    def _sketch_limit(self, queue_index: int) -> Optional[int]:
        """The queue's current dropping threshold, for managers that
        have one (DynaQ's ``T_i``); ``None`` disables crossing
        detection for threshold-less schemes."""
        thresholds = getattr(self.buffer_manager, "thresholds", None)
        if thresholds is None:
            return None
        return thresholds[queue_index]

    def _sketch_enqueue(self, packet: Packet, queue_index: int) -> None:
        snapshot = self._sketch.record_enqueue(
            self.sim.now, queue_index, packet.flow_id, packet.size,
            self._queue_bytes[queue_index], self._sketch_limit(queue_index))
        if snapshot is not None:
            self._sketch_publish(snapshot)

    def _sketch_dequeue(self, packet: Packet, queue_index: int) -> None:
        now = self.sim.now
        self._sketch.record_dequeue(
            now, queue_index, packet.flow_id, packet.size,
            now - packet.enqueued_at, self._queue_bytes[queue_index],
            self._sketch_limit(queue_index))

    def _sketch_drop(self, packet: Packet, queue_index: int,
                     reason: str) -> None:
        snapshot = self._sketch.record_drop(
            self.sim.now, queue_index, packet.flow_id, packet.size,
            reason, self._queue_bytes[queue_index],
            self._sketch_limit(queue_index))
        if snapshot is not None:
            self._sketch_publish(snapshot)

    def _sketch_publish(self, snapshot: dict) -> None:
        """Mirror a threshold-cross/drop snapshot onto the trace bus.

        Uses the lazy ``emit`` path: the topic is silent in almost every
        run, so the payload closure is almost never called.
        """
        trace = self.trace
        if trace is not None:
            trace.emit(TOPIC_QUEUE_SNAPSHOT, lambda: dict(
                port=self.name, time=snapshot["time_ns"],
                queue=snapshot["queue"], detail=snapshot["detail"],
                occupancy=snapshot["occupancy"], limit=snapshot["limit"],
                composition=dict(snapshot["composition"])))

    # -- tracing -----------------------------------------------------------------

    def _refresh_topic_flags(self) -> None:
        """Recompute the per-topic liveness flags (bus watcher target).

        Runs on every (un)subscribe, never per packet, so :meth:`_publish`
        — and the ``_quiet`` test inlined at the hot call sites — needs
        no version bookkeeping at all.
        """
        has = self.trace.has_subscribers
        self._topic_live = {t: has(t) for t in _PORT_TOPICS}
        self._quiet = not any(self._topic_live.values())

    def _publish(self, topic: str, packet: Packet,
                 queue_index: Optional[int], detail: str) -> None:
        """Publish one packet event if anyone listens to ``topic``.

        A publish to a silent topic costs one dict lookup; mid-run
        (un)subscribes are pushed into the flags by the bus watcher.
        """
        if self._topic_live.get(topic):
            trace = self.trace
            trace.publish(topic, port=self.name, time=self.sim.now,
                          packet=packet, queue=queue_index, detail=detail,
                          queue_bytes=tuple(self._queue_bytes))
