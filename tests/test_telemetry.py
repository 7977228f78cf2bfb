"""Tests for the telemetry layer: recorder, flight recorder, timeline,
profiler, record schema, and the bundled session."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynaq import DynaQBuffer
from repro.metrics.export import (
    write_steal_matrix_csv,
    write_threshold_series_csv,
)
from repro.net.port import EgressPort
from repro.queueing.schedulers.drr import DRRScheduler
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.trace import (
    ALL_TOPICS,
    TOPIC_DYNAQ_RECONFIGURE,
    TOPIC_PACKET_DROP,
    TOPIC_PACKET_ENQUEUE,
    TOPIC_PARALLEL_JOB,
    TOPIC_QUEUE_SNAPSHOT,
    TOPIC_SNAPSHOT_LIFECYCLE,
    TOPIC_THRESHOLD_CHANGE,
    TOPIC_VICTIM_STEAL,
    TraceBus,
)
from repro.telemetry import (
    ANOMALY_DROP_BURST,
    ANOMALY_SIMULATION_ERROR,
    ANOMALY_THRESHOLD_INVARIANT,
    DEFAULT_TOPICS,
    FlightRecorder,
    JsonlSink,
    MemorySink,
    META_TOPIC_DUMP,
    REQUIRED_TOPIC_FIELDS,
    RunProfiler,
    TelemetrySession,
    ThresholdTimeline,
    TraceRecorder,
    normalize,
    validate_record,
    validate_trace_file,
)
from repro.telemetry.records import PACKET_TOPICS

from conftest import FakePort, make_packet

MTU = 1500


def dynaq_port(sim, trace, *, buffer_bytes=12_000, num_queues=4):
    """A real egress port with DynaQ, small enough to overflow quickly."""
    port = EgressPort(
        sim, "p0", rate_bps=10 ** 9, prop_delay_ns=0,
        buffer_bytes=buffer_bytes,
        scheduler=DRRScheduler([MTU] * num_queues),
        buffer_manager=DynaQBuffer(), trace=trace)

    class Sink:
        def receive(self, packet):
            pass

    port.connect(Sink())
    return port


def flood(sim, port, *, packets=40, queue=0):
    """Inject a burst far above what the port can drain."""
    for i in range(packets):
        sim.schedule(i, port.send, make_packet(MTU, flow_id=i % 3,
                                               service_class=queue))
    sim.run()


# -- TraceRecorder -----------------------------------------------------------

def test_recorder_jsonl_round_trip(tmp_path):
    path = tmp_path / "run.jsonl"
    sim = Simulator()
    trace = TraceBus()
    with TraceRecorder(trace, JsonlSink(path)) as recorder:
        port = dynaq_port(sim, trace)
        flood(sim, port)
    assert recorder.records_written > 0

    count, errors = validate_trace_file(path)
    assert errors == []
    assert count == recorder.records_written

    records = [json.loads(line) for line in path.open()]
    topics = {record["topic"] for record in records}
    # Port lifecycle + DynaQ internals all present in one trace.
    assert TOPIC_PACKET_ENQUEUE in topics
    assert TOPIC_THRESHOLD_CHANGE in topics
    assert TOPIC_VICTIM_STEAL in topics
    # The baseline snapshot is first among the threshold records.
    baseline = next(r for r in records
                    if r["topic"] == TOPIC_THRESHOLD_CHANGE)
    assert baseline["victim"] == -1 and baseline["gainer"] == -1
    assert sum(baseline["threshold"]) == 12_000


def test_recorder_topic_filter():
    trace = TraceBus()
    sink = MemorySink()
    recorder = TraceRecorder(trace, sink, topics=[TOPIC_PACKET_DROP])
    trace.publish(TOPIC_PACKET_DROP, port="p", time=1,
                  packet=make_packet(), queue=0, detail="full",
                  queue_bytes=(0,))
    trace.publish(TOPIC_PACKET_ENQUEUE, port="p", time=2,
                  packet=make_packet(), queue=0, detail="",
                  queue_bytes=(MTU,))
    recorder.close()
    assert [record["topic"] for record in sink.records] == [TOPIC_PACKET_DROP]


def test_recorder_rejects_unknown_topic():
    with pytest.raises(ValueError, match="unknown trace topics"):
        TraceRecorder(TraceBus(), MemorySink(), topics=["packet.dorp"])


def test_recorder_time_window():
    trace = TraceBus()
    sink = MemorySink()
    recorder = TraceRecorder(trace, sink, topics=[TOPIC_PACKET_DROP],
                             start_ns=10, end_ns=20)
    for time in (5, 10, 15, 20, 25):
        trace.publish(TOPIC_PACKET_DROP, port="p", time=time,
                      packet=make_packet(), queue=0, detail="full",
                      queue_bytes=(0,))
    recorder.close()
    assert [record["time_ns"] for record in sink.records] == [10, 15, 20]
    assert recorder.records_written == 3
    assert recorder.records_skipped == 2


def test_recorder_close_unsubscribes_and_is_idempotent():
    trace = TraceBus()
    sink = MemorySink()
    recorder = TraceRecorder(trace, sink)
    recorder.close()
    recorder.close()
    trace.publish(TOPIC_PACKET_DROP, port="p", time=1,
                  packet=make_packet(), queue=0, detail="full",
                  queue_bytes=(0,))
    assert sink.records == []


def test_trace_files_do_not_depend_on_the_locale(tmp_path):
    """``-X warn_default_encoding`` makes an ``open`` that leaves the
    encoding to the locale an error: the sink and the validator name
    UTF-8 (and ``\\n``), so bytes and snapshot offsets are the same
    everywhere."""
    path = tmp_path / "t.jsonl"
    script = (
        "import sys\n"
        "from repro.telemetry import JsonlSink, validate_trace_file\n"
        "sink = JsonlSink(sys.argv[1])\n"
        "sink.write({'detail': 'caf\\xe9'})\n"
        "sink.write_line('{}\\n')\n"
        "sink.close()\n"
        "print(validate_trace_file(sys.argv[1])[0])\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", script, str(path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]
    assert path.read_bytes() == b'{"detail": "caf\\u00e9"}\n{}\n'


# -- packet_line: the packet topics' encoder vs normalize + json.dumps --------

class _StrSubclass(str):
    pass


class _Flow:
    def __init__(self, flow_id):
        self.flow_id = flow_id


_ints = st.integers() | st.sampled_from(
    [0, -1, 2 ** 63, -(2 ** 63) - 1, 2 ** 64 + 1])
_texts = st.text(max_size=8) | st.sampled_from(
    ["", "s0->h0", "port buffer full", 'said "no"', "back\\slash",
     "na\u00efve \u2603 \U0001f40d", "nul\x00 tab\t del\x7f\n", "\ud800"])
_int_or_none = st.none() | _ints
#: Values the encoder formats itself, per publish kwarg ...
_EXACT = {
    "port": _texts,
    "time": _ints,
    "packet": st.none() | st.builds(_Flow, _int_or_none) | st.builds(object),
    "queue": _int_or_none,
    "detail": _texts,
    "queue_bytes": st.none() | st.lists(_ints, max_size=9).map(tuple),
}
#: ... and look-alikes whose ``str()`` is not their JSON, or whose JSON
#: needs ``normalize`` first: each must be handed to the generic route.
_IMPOSTOR = {
    "port": st.sampled_from([_StrSubclass("p"), 7, None]),
    "time": st.sampled_from([True, False, 2.0]),
    "packet": st.builds(_Flow, st.booleans()),
    "queue": st.sampled_from([True, 1.5]),
    "detail": st.sampled_from([_StrSubclass("d"), 3, None]),
    "queue_bytes": (st.lists(_ints, max_size=4)
                    | st.sampled_from([(True, 0), (1.5, 2), ((1, 2), 3)])),
}
_EXTRA = st.fixed_dictionaries({}, optional={
    "flow": _int_or_none, "size": _ints, "thresholds": st.just((1, 2))})


@st.composite
def _publishes(draw):
    """``(kwargs, fast)``: one publish and whether no part of it should
    need the generic route (absent kwargs do not)."""
    kwargs, fast = {}, True
    for name in _EXACT:
        kind = draw(st.sampled_from(
            ["exact"] * 5 + ["absent"] * 2 + ["impostor"]))
        if kind == "impostor":
            fast = False
        if kind != "absent":
            pool = _EXACT if kind == "exact" else _IMPOSTOR
            kwargs[name] = draw(pool[name])
    extra = draw(st.just({}) | _EXTRA)
    return {**kwargs, **extra}, fast and not extra


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PACKET_TOPICS)),
       st.lists(_publishes(), min_size=1, max_size=5),
       st.sampled_from([(None, None), (0, None), (None, 10 ** 6), (-9, 9)]))
def test_packet_lines_equal_the_generic_encoder(topic, publishes, window):
    """Byte equality with ``json.dumps(normalize(...), sort_keys=True)``
    through a live recorder, and the fallback taken exactly when a value
    is not of the exact type the encoder formats."""
    start_ns, end_ns = window

    def in_window(kwargs):
        time = kwargs.get("time", 0)
        return ((start_ns is None or time >= start_ns)
                and (end_ns is None or time <= end_ns))

    recorded = [(kwargs, fast) for kwargs, fast in publishes
                if in_window(kwargs)]
    generic = []
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        bus = TraceBus()
        recorder = TraceRecorder(bus, JsonlSink(path), topics=[topic],
                                 start_ns=start_ns, end_ns=end_ns)
        on_event = recorder._on_event
        recorder._on_event = lambda topic, **payload: (
            generic.append(payload), on_event(topic, **payload))
        for kwargs, _fast in publishes:
            bus.publish(topic, **kwargs)
        recorder.close()
        assert path.read_bytes() == "".join(
            json.dumps(normalize(topic, kwargs), sort_keys=True) + "\n"
            for kwargs, _fast in recorded).encode("ascii")
    assert recorder.records_written == len(recorded)
    assert recorder.records_skipped == len(publishes) - len(recorded)
    # Whether a skipped event reached the generic route is not observable.
    assert (sum(map(in_window, generic))
            == sum(not fast for _kwargs, fast in recorded))


# -- FlightRecorder ----------------------------------------------------------

def drop(trace, *, port="p0", time):
    trace.publish(TOPIC_PACKET_DROP, port=port, time=time,
                  packet=make_packet(), queue=0, detail="port buffer full",
                  queue_bytes=(0,))


def test_flight_recorder_dumps_on_drop_burst(tmp_path):
    path = tmp_path / "flight.jsonl"
    trace = TraceBus()
    recorder = FlightRecorder(trace, capacity=64, drop_burst_count=8,
                              drop_burst_window_ns=1_000, dump_path=path)
    # 7 slow drops: no burst (window exceeded by the time #8 arrives).
    for i in range(7):
        drop(trace, time=i * 10_000)
    assert recorder.anomalies == []
    # 8 drops inside one window: burst fires once.
    for i in range(8):
        drop(trace, time=100_000 + i)
    assert len(recorder.anomalies) == 1
    reason, port, _ = recorder.anomalies[0]
    assert reason == ANOMALY_DROP_BURST
    assert port == "p0"
    assert recorder.dumps_written == [path]

    lines = [json.loads(line) for line in path.open()]
    assert lines[0]["topic"] == META_TOPIC_DUMP
    assert lines[0]["detail"] == ANOMALY_DROP_BURST
    assert len(lines) == 1 + 15  # marker + every event retained
    count, errors = validate_trace_file(path)
    assert errors == [] and count == 16
    recorder.close()


def test_flight_recorder_one_dump_per_arm(tmp_path):
    trace = TraceBus()
    recorder = FlightRecorder(trace, drop_burst_count=2,
                              drop_burst_window_ns=1_000,
                              dump_path=tmp_path / "f.jsonl")
    for i in range(8):
        drop(trace, time=i)
    # 4 bursts detected, but only the first dumped.
    assert len(recorder.anomalies) == 4
    assert len(recorder.dumps_written) == 1
    recorder.rearm()
    for i in range(2):
        drop(trace, time=1_000_000 + i)
    assert len(recorder.dumps_written) == 2
    recorder.close()


def test_flight_recorder_ring_is_bounded():
    trace = TraceBus()
    recorder = FlightRecorder(trace, capacity=4, drop_burst_count=0)
    for i in range(10):
        drop(trace, time=i)
    ring = recorder.ring("p0")
    assert len(ring) == 4
    assert [record["time_ns"] for record in ring] == [6, 7, 8, 9]
    assert recorder.events_seen == 10
    assert recorder.ports() == ["p0"]
    recorder.close()


def test_flight_recorder_threshold_invariant():
    trace = TraceBus()
    recorder = FlightRecorder(trace, drop_burst_count=0)

    def publish_thresholds(thresholds, time):
        trace.publish(TOPIC_THRESHOLD_CHANGE, port="p0", time=time,
                      victim=1, gainer=0, size=MTU,
                      thresholds=tuple(thresholds))

    publish_thresholds([25_000] * 4, 0)         # baseline: sum = 100k
    publish_thresholds([26_500, 23_500, 25_000, 25_000], 10)  # still 100k
    assert recorder.anomalies == []
    publish_thresholds([26_500, 25_000, 25_000, 25_000], 20)  # leak!
    assert recorder.anomalies == [
        (ANOMALY_THRESHOLD_INVARIANT, "p0", 20)]
    recorder.close()


def test_flight_recorder_guard_dumps_on_simulation_error():
    trace = TraceBus()
    recorder = FlightRecorder(trace, drop_burst_count=0)
    drop(trace, time=5)
    with pytest.raises(SimulationError):
        with recorder.guard():
            raise SimulationError("boom")
    assert recorder.anomalies[0][0] == ANOMALY_SIMULATION_ERROR
    recorder.close()


def test_flight_recorder_rejects_bad_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(TraceBus(), capacity=0)


# -- ThresholdTimeline -------------------------------------------------------

def test_timeline_collects_series_and_steals():
    trace = TraceBus()
    timeline = ThresholdTimeline(trace)
    port = FakePort(buffer_bytes=100_000, num_queues=4)
    manager = DynaQBuffer(trace=trace, port_name="p0")
    manager.attach(port)  # publishes the baseline snapshot
    port.fill(0, 25_000)
    manager.admit(make_packet(MTU), 0)  # steal: q0 takes from a victim

    assert timeline.ports() == ["p0"]
    assert timeline.num_queues("p0") == 4
    series = timeline.series("p0")
    assert len(series) == 2
    assert series[0][1] == (25_000,) * 4
    assert series[1][1][0] == 25_000 + MTU
    assert timeline.threshold_series("p0", 0) == [
        (0, 25_000), (0, 25_000 + MTU)]
    assert timeline.satisfaction("p0") == (25_000,) * 4

    assert timeline.total_stolen_bytes("p0") == MTU
    assert timeline.steal_moves("p0") == 1
    assert timeline.steal_moves("p0", gainer=0) == 1
    assert timeline.steal_moves("p0", gainer=1) == 0
    matrix = timeline.steal_matrix("p0")
    assert sum(sum(row) for row in matrix) == MTU
    assert sum(matrix[0]) == 0  # the gainer stole, nobody stole from it
    timeline.close()


def test_timeline_csv_export(tmp_path):
    trace = TraceBus()
    timeline = ThresholdTimeline(trace)
    manager = DynaQBuffer(trace=trace, port_name="p0")
    port = FakePort(buffer_bytes=100_000, num_queues=4)
    manager.attach(port)
    port.fill(0, 25_000)
    manager.admit(make_packet(MTU), 0)

    series_path = tmp_path / "series.csv"
    rows = write_threshold_series_csv(series_path, timeline, "p0")
    assert rows == 2
    lines = series_path.read_text().splitlines()
    assert lines[0] == "time_s,T1_bytes,T2_bytes,T3_bytes,T4_bytes"
    assert len(lines) == 3

    matrix_path = tmp_path / "matrix.csv"
    size = write_steal_matrix_csv(matrix_path, timeline, "p0")
    assert size == 4
    lines = matrix_path.read_text().splitlines()
    assert lines[0].startswith("victim\\gainer,q1,q2,q3,q4")
    assert len(lines) == 5
    timeline.close()


def test_timeline_empty_port_exports_nothing(tmp_path):
    timeline = ThresholdTimeline(TraceBus())
    assert write_threshold_series_csv(tmp_path / "s.csv", timeline, "p") == 0
    assert write_steal_matrix_csv(tmp_path / "m.csv", timeline, "p") == 0


# -- RunProfiler -------------------------------------------------------------

def test_profiler_counters_monotonic():
    sim = Simulator()
    profiler = RunProfiler().attach(sim)
    seen = []

    def tick(n):
        seen.append((profiler.events, profiler.heap_high_water))
        if n < 5:
            sim.schedule(10, tick, n + 1)

    sim.schedule(1, tick, 0)
    sim.run()
    profiler.detach()
    # events counts every executed event and never decreases.
    assert [events for events, _ in seen] == list(range(6))
    assert profiler.events == sim.events_executed == 6
    # high-water mark only ratchets up.
    marks = [mark for _, mark in seen]
    assert all(b >= a for a, b in zip(marks, marks[1:]))
    assert profiler.callback_s >= 0.0
    assert profiler.wall_s >= 0.0


def test_profiler_buckets_by_qualname():
    sim = Simulator()
    profiler = RunProfiler().attach(sim)

    def alpha():
        pass

    def beta():
        pass

    for _ in range(3):
        sim.schedule(1, alpha)
    sim.schedule(2, beta)
    sim.run()
    stats = dict(profiler.top_callbacks())
    assert stats[alpha.__qualname__].count == 3
    assert stats[beta.__qualname__].count == 1
    assert stats[alpha.__qualname__].max_s >= 0.0
    assert stats[alpha.__qualname__].mean_us >= 0.0


def test_profiler_cancelled_ratio_and_summary():
    sim = Simulator()
    profiler = RunProfiler().attach(sim)
    events = [sim.schedule(i + 1, lambda: None) for i in range(4)]
    sim.cancel(events[0])
    sim.run()
    summary = profiler.summary()
    assert summary["events"] == 3
    assert summary["events_scheduled"] == 4
    assert summary["events_cancelled"] == 1
    assert profiler.cancelled_ratio == pytest.approx(0.25)
    assert summary["sim_time_ns"] == sim.now
    profiler.detach()
    assert sim.profiler is None


def test_profiler_untraced_sim_unaffected():
    # No profiler attached: the loop must not try to call one.
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 1


# -- record schema -----------------------------------------------------------

def test_normalize_threshold_records():
    baseline = normalize(TOPIC_THRESHOLD_CHANGE, dict(
        port="p0", time=0, victim=-1, gainer=-1, size=0,
        thresholds=(10, 10), satisfaction=(5, 5)))
    assert baseline["detail"] == "init"
    assert baseline["queue"] is None
    assert baseline["threshold"] == [10, 10]
    assert baseline["satisfaction"] == [5, 5]

    steal = normalize(TOPIC_VICTIM_STEAL, dict(
        port="p0", time=7, victim=2, gainer=0, size=MTU))
    assert steal["detail"] == f"q0 took {MTU}B from q2"
    assert steal["queue"] == 0
    assert validate_record(steal) == []


def test_validate_record_rejects_bad_shapes():
    good = normalize(TOPIC_PACKET_DROP, dict(
        port="p", time=3, packet=make_packet(), queue=1, detail="full",
        queue_bytes=(0, MTU)))
    assert validate_record(good) == []

    assert validate_record("not a dict")
    assert any("missing field" in e for e in validate_record({}))
    bad_topic = dict(good, topic="packet.dorp")
    assert any("unknown topic" in e for e in validate_record(bad_topic))
    bad_time = dict(good, time_ns="late")
    assert any("time_ns" in e for e in validate_record(bad_time))
    extra = dict(good, surprise=1)
    assert any("unknown fields" in e for e in validate_record(extra))


def test_validate_trace_file_flags_problems(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = normalize(TOPIC_PACKET_DROP, dict(
        port="p", time=3, packet=make_packet(), queue=1, detail="full",
        queue_bytes=(0,)))
    path.write_text(json.dumps(good) + "\n"
                    + "{not json\n"
                    + json.dumps(dict(good, topic="bogus")) + "\n")
    count, errors = validate_trace_file(path)
    assert count == 3
    assert len(errors) == 2
    assert "invalid JSON" in errors[0]
    assert "unknown topic" in errors[1]


def test_validate_trace_file_error_cap_is_exact(tmp_path):
    # One empty record yields many "missing field" problems at once; the
    # cap must stop mid-record, never overshoot.
    path = tmp_path / "very_bad.jsonl"
    path.write_text("{}\n" * 5)
    count, errors = validate_trace_file(path, max_errors=3)
    assert count == 1  # stops at the line that hit the cap
    assert len(errors) == 4  # exactly max_errors + the truncation marker
    assert all("missing field" in e for e in errors[:3])
    assert errors[3] == "... (stopping after 3 problems)"


def test_required_topic_fields_enforced():
    job = normalize(TOPIC_PARALLEL_JOB, dict(
        port="executor", time=1, detail="done fct[dynaq@0.5]"))
    assert validate_record(job) == []
    blank = dict(job, detail="")
    assert any("non-empty 'detail'" in e for e in validate_record(blank))

    reconf = normalize(TOPIC_DYNAQ_RECONFIGURE, dict(
        port="p0", time=2, thresholds=(10, 10), satisfaction=(4, 4)))
    assert validate_record(reconf) == []
    for missing in ("threshold", "satisfaction"):
        broken = dict(reconf, **{missing: None})
        assert any(f"non-empty {missing!r}" in e
                   for e in validate_record(broken))


def test_normalize_snapshot_lifecycle_record():
    record = normalize(TOPIC_SNAPSHOT_LIFECYCLE, dict(
        port="world", time=9, detail="save", path="/tmp/x.snap", saves=2))
    assert record["path"] == "/tmp/x.snap"
    assert record["saves"] == 2
    assert validate_record(record) == []
    pathless = dict(record, path="")
    assert any("non-empty 'path'" in e for e in validate_record(pathless))


def test_normalize_queue_snapshot_record():
    record = normalize(TOPIC_QUEUE_SNAPSHOT, dict(
        port="p0", time=5, queue=1, detail="threshold-cross",
        occupancy=900, limit=800, composition={3: 600, 4: 300}))
    # Flow-id keys are stringified so the record JSON-roundtrips exactly.
    assert record["composition"] == {"3": 600, "4": 300}
    assert record["occupancy"] == 900
    assert record["limit"] == 800
    assert validate_record(record) == []
    bad = dict(record, composition={3: 600})
    assert any("composition" in e for e in validate_record(bad))
    missing = dict(record, queue=None)
    assert any("non-empty 'queue'" in e for e in validate_record(missing))


def test_default_topics_exclude_snapshot_lifecycle():
    # Lifecycle events depend on snapshot paths/cadence, which differ
    # between a kill/restore pair and an uninterrupted run, so the
    # recorder only captures them on explicit opt-in.
    assert TOPIC_SNAPSHOT_LIFECYCLE in ALL_TOPICS
    assert TOPIC_SNAPSHOT_LIFECYCLE not in DEFAULT_TOPICS
    assert set(DEFAULT_TOPICS) == set(ALL_TOPICS) - {TOPIC_SNAPSHOT_LIFECYCLE}
    assert set(REQUIRED_TOPIC_FIELDS) <= set(ALL_TOPICS)


# -- TelemetrySession --------------------------------------------------------

def test_session_inert_without_flags():
    session = TelemetrySession()
    assert not session.active
    assert not session.trace.has_subscribers(TOPIC_PACKET_DROP)
    session.close()


def test_session_wires_collectors(tmp_path):
    session = TelemetrySession(trace_out=tmp_path / "t.jsonl",
                               flight_dump=tmp_path / "f.jsonl",
                               timeline=True)
    assert session.active
    assert session.recorder is not None
    assert session.flight is not None
    assert session.timeline is not None
    with session:
        sim = Simulator()
        port = dynaq_port(sim, session.trace)
        flood(sim, port, packets=10)
    assert session.recorder.records_written > 0
    assert (tmp_path / "t.jsonl").exists()
    session.close()  # idempotent


def test_session_dumps_flight_on_simulation_error(tmp_path):
    path = tmp_path / "f.jsonl"
    with pytest.raises(SimulationError):
        with TelemetrySession(flight_dump=path) as session:
            drop(session.trace, time=1)
            raise SimulationError("boom")
    lines = [json.loads(line) for line in path.open()]
    assert lines[0]["detail"] == ANOMALY_SIMULATION_ERROR
    assert len(lines) == 2


def test_all_topics_cover_port_and_dynaq():
    assert TOPIC_THRESHOLD_CHANGE in ALL_TOPICS
    assert TOPIC_VICTIM_STEAL in ALL_TOPICS
    assert TOPIC_PACKET_DROP in ALL_TOPICS
