"""Lightweight tracing / probe hooks.

Components publish events ("packet dropped", "queue length changed", ...) to
a :class:`TraceBus`; metric collectors subscribe to the topics they care
about.  Publishing to a topic with no subscribers is a dict lookup and a
truth test, so tracing can stay compiled-in without slowing down large
simulations.  Publish sites whose payload is expensive to build use
:meth:`TraceBus.emit`, which defers payload construction behind the
subscriber check.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

Subscriber = Callable[..., None]
PayloadFactory = Callable[[], Dict[str, Any]]


class TraceBus:
    """Minimal publish/subscribe bus keyed by string topics.

    :attr:`version` increments on every (un)subscription.  Hot publish
    sites (ports) cache per-topic "anyone listening?" flags keyed by this
    counter, so a publish to a silent topic costs one int compare and a
    dict lookup instead of building a payload — see
    ``docs/performance.md``.

    Subscriber tuples are copy-on-write: (un)subscribing rebinds the
    topic to a new tuple, so a delivery in flight keeps iterating the
    one it started with and nothing is copied per event.
    """

    def __init__(self) -> None:
        self._subscribers: Dict[str, Tuple[Subscriber, ...]] = {}
        self.version = 0
        self._watchers: List[Callable[[], None]] = []

    def subscribe(self, topic: str, callback: Subscriber) -> None:
        """Register ``callback`` to be invoked on every ``publish(topic)``.

        Subscribing the same callback twice delivers each event twice;
        one :meth:`unsubscribe` removes one registration.
        """
        self._subscribers[topic] = (
            self._subscribers.get(topic, ()) + (callback,))
        self.version += 1
        for watcher in self._watchers:
            watcher()

    def unsubscribe(self, topic: str, callback: Subscriber) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        callbacks = list(self._subscribers.get(topic, ()))
        if callback in callbacks:
            callbacks.remove(callback)
            self._subscribers[topic] = tuple(callbacks)
            self.version += 1
            for watcher in self._watchers:
                watcher()

    def add_watcher(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` after every subscription change.

        Push-invalidation for hot publish sites: a port caches "is
        anyone listening?" flags and refreshes them from its watcher, so
        the per-publish fast path is a single attribute test with no
        version compare at all.
        """
        self._watchers.append(callback)

    def publish(self, topic: str, *args: Any, **kwargs: Any) -> None:
        """Invoke every subscriber of ``topic`` with the given payload.

        Callbacks that subscribe or unsubscribe *during* delivery
        affect the next publish, not the one in flight.
        """
        callbacks = self._subscribers.get(topic)
        if callbacks:
            for callback in callbacks:
                callback(*args, **kwargs)

    def emit(self, topic: str, payload: PayloadFactory) -> None:
        """Guarded publish: build the payload only if someone listens.

        ``payload`` is a zero-argument callable returning the kwargs dict
        for the subscribers.  This factors the ``has_subscribers`` +
        ``publish`` idiom used by hot publish sites (ports, DynaQ) into
        one place, keeping tracing free when nobody is subscribed.
        """
        callbacks = self._subscribers.get(topic)
        if not callbacks:
            return
        kwargs = payload()
        for callback in callbacks:
            callback(**kwargs)

    def has_subscribers(self, topic: str) -> bool:
        """True if publishing to ``topic`` would call anyone."""
        return bool(self._subscribers.get(topic))


# Well-known topics used across the package.  Collectors import these
# constants instead of spelling the strings so typos fail loudly.
TOPIC_PACKET_DROP = "packet.drop"
TOPIC_PACKET_ENQUEUE = "packet.enqueue"
TOPIC_PACKET_DEQUEUE = "packet.dequeue"
TOPIC_PACKET_MARK = "packet.mark"
TOPIC_PACKET_DELIVERED = "packet.delivered"
TOPIC_FLOW_START = "flow.start"
TOPIC_FLOW_COMPLETE = "flow.complete"
TOPIC_THRESHOLD_CHANGE = "dynaq.threshold"
TOPIC_VICTIM_STEAL = "dynaq.steal"
TOPIC_DYNAQ_RECONFIGURE = "dynaq.reconfigure"
TOPIC_FAULT_INJECT = "fault.inject"
TOPIC_FAULT_RECOVER = "fault.recover"
#: Parallel-sweep job lifecycle (launch/retry/done/failed/cached).  These
#: events are published by the *parent* process of a worker pool; their
#: ``time`` field is wall-clock nanoseconds since the sweep started, not
#: simulated time (worker simulations each run their own clock).
TOPIC_PARALLEL_JOB = "parallel.job"
#: Service-tier job lifecycle published by the ``repro serve`` daemon
#: (accepted/started/heartbeat-missed/migrated/retried/done/failed/
#: shed/drain).  Like ``parallel.job``, ``time`` is wall-clock
#: nanoseconds — here since the daemon started — because the daemon
#: outlives any single simulation clock.
TOPIC_SERVE_JOB = "serve.job"
#: Queue-diagnosis snapshots: the flow composition of a service queue at
#: the instant it crossed its DynaQ threshold or took a drop.  Published
#: by ports only when the ``queue_diagnosis`` perf switch is on (see
#: repro.diagnosis), so the default datapath never emits these.
TOPIC_QUEUE_SNAPSHOT = "diagnosis.snapshot"
#: Competitive-ratio harness rounds: one event per finished
#: policy x adversary x buffer-size round with the measured ratio in
#: ``detail`` (see repro.experiments.competitive).  ``time`` is a
#: deterministic sequence number, not wall clock, so competitive traces
#: stay byte-identical between serial and ``--jobs N`` runs.
TOPIC_COMPETITIVE_ROUND = "competitive.round"
#: Soak-harness case verdicts: one event per finished randomized case
#: with the scenario digest and verdict in ``detail`` (see repro.soak).
#: Like ``competitive.round``, ``time`` is a deterministic sequence
#: number so soak traces stay byte-identical between serial and
#: ``--jobs N`` runs.
TOPIC_SOAK_CASE = "soak.case"
#: Snapshot lifecycle (autosave written / world restored).  Note: the
#: telemetry recorder does *not* subscribe to this topic by default —
#: save events carry the snapshot path and a restored invocation saves
#: on a different file, so recording them would break the byte-identity
#: of killed+restored traces vs uninterrupted runs.  Opt in explicitly
#: with ``--trace-topics snapshot.lifecycle``.
TOPIC_SNAPSHOT_LIFECYCLE = "snapshot.lifecycle"

#: Every well-known topic, in a stable order.  The telemetry recorder
#: subscribes to all of these by default, and the trace-file schema
#: checker treats anything else as unknown.
ALL_TOPICS = (
    TOPIC_PACKET_DROP,
    TOPIC_PACKET_ENQUEUE,
    TOPIC_PACKET_DEQUEUE,
    TOPIC_PACKET_MARK,
    TOPIC_PACKET_DELIVERED,
    TOPIC_FLOW_START,
    TOPIC_FLOW_COMPLETE,
    TOPIC_THRESHOLD_CHANGE,
    TOPIC_VICTIM_STEAL,
    TOPIC_DYNAQ_RECONFIGURE,
    TOPIC_FAULT_INJECT,
    TOPIC_FAULT_RECOVER,
    TOPIC_PARALLEL_JOB,
    TOPIC_SERVE_JOB,
    TOPIC_COMPETITIVE_ROUND,
    TOPIC_SOAK_CASE,
    TOPIC_QUEUE_SNAPSHOT,
    TOPIC_SNAPSHOT_LIFECYCLE,
)
