"""Structured event trace: bus subscriber streaming typed records.

:class:`TraceRecorder` subscribes to the well-known topics of a
:class:`~repro.sim.trace.TraceBus`, normalises every event through
:func:`~repro.telemetry.records.normalize`, and hands the records to a
sink (usually a :class:`~repro.telemetry.sinks.JsonlSink`).  Per-topic
filters and an optional simulated-time window keep trace files small on
long runs.  For ``packet.*`` topics and a sink that takes finished lines,
:func:`~repro.telemetry.records.packet_line` writes the same bytes
without the record dict, three frames below the publish site.

Typical use::

    trace = TraceBus()
    with TraceRecorder(trace, JsonlSink("run.jsonl")) as recorder:
        net = build_star(..., trace=trace)
        ...
        net.sim.run(until=...)
    print(recorder.records_written)
"""

from __future__ import annotations

from math import inf
from typing import Any, Iterable, Optional

from ..sim.trace import ALL_TOPICS, TOPIC_SNAPSHOT_LIFECYCLE, TraceBus
from .records import PACKET_TOPICS, json_string, normalize, packet_line

#: What a recorder subscribes to when no topics are named.  Everything
#: except ``snapshot.lifecycle``: save events carry the snapshot path
#: and a restored invocation performs no saves of its own, so recording
#: them by default would break the byte-identity of killed+restored
#: traces against uninterrupted runs (the snapshot-smoke guarantee).
#: Name the topic in ``--trace-topics`` to opt in.
DEFAULT_TOPICS = tuple(topic for topic in ALL_TOPICS
                       if topic != TOPIC_SNAPSHOT_LIFECYCLE)


class _TopicHandler:
    """One topic's subscriber: picklable, payload as named parameters.

    ``packet.*`` events reach :func:`packet_line` with no payload dict;
    other topics, extra kwargs, a sink without ``write_line`` and what
    ``packet_line`` declines go to :meth:`TraceRecorder._on_event`
    (absent keys and these defaults normalise alike).  ``__self__`` is
    the recorder, as on a bound method, for ``SimWorld.close_recorders``.
    """

    def __init__(self, recorder: "TraceRecorder", topic: str) -> None:
        self.__self__ = recorder
        self.topic = topic
        self.topic_json = json_string(topic)
        self.write_line = (getattr(recorder._sink, "write_line", None)
                           if topic in PACKET_TOPICS else None)
        start_ns, end_ns = recorder.start_ns, recorder.end_ns
        self.start_ns = -inf if start_ns is None else start_ns
        self.end_ns = inf if end_ns is None else end_ns

    def __call__(self, port: Any = "", time: Any = 0, packet: Any = None,
                 queue: Any = None, detail: Any = "",
                 queue_bytes: Any = None, **extra: Any) -> None:
        recorder, write_line = self.__self__, self.write_line
        if write_line is not None and not extra and type(time) is int:
            if time < self.start_ns or time > self.end_ns:
                recorder.records_skipped += 1
                return
            line = packet_line(self.topic_json, port, time, packet, queue,
                               detail, queue_bytes)
            if line is not None:
                write_line(line)
                recorder.records_written += 1
                return
        recorder._on_event(self.topic, port=port, time=time, packet=packet,
                           queue=queue, detail=detail,
                           queue_bytes=queue_bytes, **extra)


class TraceRecorder:
    """Subscribes to trace topics and streams typed records to a sink.

    Parameters
    ----------
    topics:
        Topics to record; defaults to :data:`DEFAULT_TOPICS` (every
        well-known topic except ``snapshot.lifecycle``).  Unknown names
        raise ``ValueError`` so a typo'd ``--trace-topics`` fails
        loudly instead of silently recording nothing.
    start_ns / end_ns:
        Optional inclusive simulated-time window; events outside it are
        counted in :attr:`records_skipped` but not written.
    """

    def __init__(self, trace: TraceBus, sink, *,
                 topics: Optional[Iterable[str]] = None,
                 start_ns: Optional[int] = None,
                 end_ns: Optional[int] = None) -> None:
        selected = tuple(topics) if topics is not None else DEFAULT_TOPICS
        unknown = [name for name in selected if name not in ALL_TOPICS]
        if unknown:
            raise ValueError(
                f"unknown trace topics {unknown}; known: {list(ALL_TOPICS)}")
        self._trace = trace
        self._sink = sink
        self.topics = selected
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.records_written = 0
        self.records_skipped = 0
        self._handlers = [_TopicHandler(self, topic) for topic in selected]
        for handler in self._handlers:
            trace.subscribe(handler.topic, handler)
        self._closed = False

    # -- event path -----------------------------------------------------------

    def _on_event(self, topic: str, **payload: Any) -> None:
        time_ns = payload.get("time", 0)
        if ((self.start_ns is not None and time_ns < self.start_ns)
                or (self.end_ns is not None and time_ns > self.end_ns)):
            self.records_skipped += 1
            return
        self._sink.write(normalize(topic, payload))
        self.records_written += 1

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Unsubscribe from the bus and close the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handler in self._handlers:
            self._trace.unsubscribe(handler.topic, handler)
        self._handlers.clear()
        self._sink.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
