"""Snapshot/restore: file integrity, byte-identical resume, triage.

The differential tests are the heart of this file: a run that is killed
at an autosave and restored must produce the same trace bytes, the same
samples, and the same engine op counters as a run that was never
interrupted (given the same autosave cadence, since every autosave tick
consumes one event sequence number).  Both the pooled FAST engine and
the bare-Event REFERENCE engine are covered.
"""

import hashlib
import json
import pickle

import pytest

from repro.errors import (
    ConfigurationError,
    SimulationError,
    SnapshotError,
    SnapshotHalt,
    SnapshotIntegrityError,
)
from repro.experiments.testbed import DEFAULT_CONFIG, _prepare_bulk
from repro.perf.config import fast_mode, reference_mode
from repro.sim.engine import Simulator
from repro.sim.trace import TOPIC_SNAPSHOT_LIFECYCLE, TraceBus
from repro.sim.units import milliseconds
from repro.snapshot import (
    SNAPSHOT_VERSION,
    SimWorld,
    SnapshotManager,
    SnapshotPolicy,
    restore_world,
    run_world,
)
from repro.telemetry import TelemetrySession

MODES = [fast_mode, reference_mode]


# -- snapshot file format -----------------------------------------------------

def test_save_load_roundtrip_with_header(tmp_path):
    manager = SnapshotManager()
    path = tmp_path / "x.snap"
    manager.save({"a": [1, 2]}, path, kind="unit", sim_now=7,
                 meta={"k": "v"})
    obj, header = manager.load(path, expect_kind="unit")
    assert obj == {"a": [1, 2]}
    assert header["kind"] == "unit"
    assert header["sim_now"] == 7
    assert header["meta"]["k"] == "v"


def test_peek_reads_header_without_unpickling(tmp_path):
    manager = SnapshotManager()
    path = tmp_path / "x.snap"
    manager.save([1, 2, 3], path, kind="unit", sim_now=3)
    header = manager.peek(path)
    assert header["kind"] == "unit"
    assert header["payload_bytes"] > 0


def test_corrupted_payload_is_detected(tmp_path):
    manager = SnapshotManager()
    path = tmp_path / "x.snap"
    manager.save({"a": 1}, path, kind="unit")
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotIntegrityError):
        manager.load(path)


def test_truncated_payload_is_detected(tmp_path):
    manager = SnapshotManager()
    path = tmp_path / "x.snap"
    manager.save(list(range(100)), path, kind="unit")
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(SnapshotIntegrityError):
        manager.load(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.snap"
    header = json.dumps({"magic": "not-a-snapshot", "version": 1})
    path.write_bytes(header.encode() + b"\n" + b"payload")
    with pytest.raises(SnapshotError):
        SnapshotManager().load(path)


class _Tripwire:
    """Counts how often a pickle holding it is actually unpickled."""

    loads = 0

    def __reduce__(self):
        return (_trip, ())


def _trip():
    _Tripwire.loads += 1
    return _Tripwire()


def test_unknown_version_rejected(tmp_path):
    manager = SnapshotManager()
    path = tmp_path / "x.snap"
    manager.save(_Tripwire(), path, kind="unit")
    good = path.read_bytes()
    header_line, _, rest = good.partition(b"\n")
    header = json.loads(header_line)
    assert header["version"] == SNAPSHOT_VERSION == 6
    # 1 is what the builds before the recorder's pickled handlers
    # changed shape wrote; 2 those that could park every pending event
    # in a calendar queue this build no longer reads; 3 those whose
    # ports, schedulers and forwarding tables lack the fast-path wiring;
    # 4 those whose ports carry transmit-batch state; 5 those whose
    # reference-mode ports hold no transmission-time memo.  Each is
    # refused by its header, and the payload never reaches pickle.
    for version in (99, 1, 2, 3, 4, 5):
        header["version"] = version
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        with pytest.raises(SnapshotError,
                           match=f"unsupported snapshot version {version} "):
            manager.load(path)
    assert _Tripwire.loads == 0
    path.write_bytes(good)
    manager.load(path)
    assert _Tripwire.loads == 1      # the tripwire does trip


def test_kind_mismatch_rejected(tmp_path):
    manager = SnapshotManager()
    path = tmp_path / "x.snap"
    manager.save({"a": 1}, path, kind="bulk")
    with pytest.raises(SnapshotError, match="kind"):
        manager.load(path, expect_kind="fct")


def test_unpicklable_payload_fails_cleanly(tmp_path):
    path = tmp_path / "x.snap"
    with pytest.raises(SnapshotError):
        SnapshotManager().save(lambda: 0, path, kind="unit")
    assert not path.exists()  # nothing half-written is left behind


def test_autosave_atomically_replaces_previous(tmp_path):
    manager = SnapshotManager()
    path = tmp_path / "x.snap"
    manager.save({"save": 1}, path, kind="unit")
    manager.save({"save": 2}, path, kind="unit")
    obj, _ = manager.load(path)
    assert obj == {"save": 2}


# -- policy validation --------------------------------------------------------

def test_policy_rejects_nonpositive_cadence():
    with pytest.raises(ConfigurationError):
        SnapshotPolicy(every_ns=0, out="x.snap")


def test_policy_requires_out_for_autosave():
    with pytest.raises(ConfigurationError, match="snapshot-out"):
        SnapshotPolicy(every_ns=1000)


def test_policy_kill_drill_requires_cadence():
    with pytest.raises(ConfigurationError, match="snapshot-every"):
        SnapshotPolicy(halt_after_saves=2)


def test_drain_world_requires_chunk():
    with pytest.raises(ConfigurationError):
        SimWorld(kind="unit", net=None, finish=lambda w: None,
                 horizon_ns=10, drain_key="app")


# -- differential resume ------------------------------------------------------

def _build_bulk(trace=None):
    """A small fig.-5-style staggered-stop bulk world."""
    return _prepare_bulk(
        "dynaq", flows_per_queue=[2, 2, 2, 2],
        quanta=[DEFAULT_CONFIG.quantum_bytes] * 4,
        stop_times_ns=[milliseconds(8), milliseconds(12),
                       milliseconds(16), None],
        duration_ns=milliseconds(24),
        sample_interval_ns=milliseconds(3),
        config=DEFAULT_CONFIG, trace=trace)


def _op_counters(world):
    sim = world.net.sim
    return (sim.now, sim.events_scheduled, sim.events_executed,
            sim.events_cancelled)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", MODES, ids=["fast", "reference"])
def test_killed_and_restored_run_is_byte_identical(tmp_path, mode):
    every_ns = milliseconds(7)

    with mode():
        # Arm A: uninterrupted, same autosave cadence.
        trace_a = tmp_path / "a.jsonl"
        session = TelemetrySession(trace_out=trace_a)
        with session:
            world_a = _build_bulk(session.trace)
            run_world(world_a, SnapshotPolicy(
                every_ns=every_ns, out=tmp_path / "a.snap"))
            result_a = world_a.finish(world_a)
            counters_a = _op_counters(world_a)

        # Arm B: killed by the drill right after the 2nd autosave...
        trace_b = tmp_path / "b.jsonl"
        snap_b = tmp_path / "b.snap"
        session = TelemetrySession(trace_out=trace_b)
        policy_b = SnapshotPolicy(every_ns=every_ns, out=snap_b,
                                  halt_after_saves=2)
        with session:
            world_b = _build_bulk(session.trace)
            with pytest.raises(SnapshotHalt):
                run_world(world_b, policy_b)

        header = SnapshotManager().peek(snap_b)
        assert header["kind"] == "bulk"
        assert header["meta"]["saves"] == 2
        assert header["sim_now"] == 2 * every_ns

        # ...then restored under the *same* policy: the drill counter
        # rode inside the snapshot, so it never re-trips.
        world_r = restore_world(snap_b, expect_kind="bulk")
        assert world_r.restored
        assert world_r.saves == 2
        run_world(world_r, policy_b)
        result_r = world_r.finish(world_r)
        counters_r = _op_counters(world_r)
        world_r.close_recorders()
        assert world_r.saves > 2  # kept autosaving after the restore

    assert result_r.scheme == result_a.scheme
    assert result_r.samples == result_a.samples
    assert counters_r == counters_a
    assert _sha256(trace_b) == _sha256(trace_a)


def test_restore_onto_shorter_trace_is_refused(tmp_path):
    """A trace shorter than the snapshot's offset is not the file the
    snapshot was recording; ``truncate`` used to zero-pad the gap and
    let the resumed run append valid records after NUL bytes."""
    trace_path = tmp_path / "b.jsonl"
    snap = tmp_path / "b.snap"
    session = TelemetrySession(trace_out=trace_path)
    with session:
        world = _build_bulk(session.trace)
        with pytest.raises(SnapshotHalt):
            run_world(world, SnapshotPolicy(
                every_ns=milliseconds(7), out=snap, halt_after_saves=1))
    kept = trace_path.read_bytes()[:64]
    trace_path.write_bytes(kept)
    with pytest.raises(SnapshotError, match=r"is 64 bytes, shorter than "
                       r"the snapshot's offset \d+") as refusal:
        restore_world(snap, expect_kind="bulk")
    assert str(trace_path) in str(refusal.value)
    assert trace_path.read_bytes() == kept  # left as found, no padding


def _wire_contents(world):
    """What ``set_link_down`` would find on each wire: the pending
    deliveries, looked up by callback identity."""
    sim = world.net.sim
    return [[(event.time, event.seq)
             for event in sim.pending_events_for(port._deliver)]
            for port in world.iter_ports()]


def test_kill_restore_reference_keeps_wire_contents(tmp_path):
    """Kill/restore stays byte-identical on the bare-Event reference heap
    with the port's inlined DRR select, and the restored heap holds every
    packet that was on the wire under its port's own delivery callback —
    what a link-down after the restore scans for."""
    every_ns = milliseconds(7)

    with reference_mode():
        trace_a = tmp_path / "a.jsonl"
        session = TelemetrySession(trace_out=trace_a)
        with session:
            world_a = _build_bulk(session.trace)
            run_world(world_a, SnapshotPolicy(
                every_ns=every_ns, out=tmp_path / "a.snap"))
            result_a = world_a.finish(world_a)
            counters_a = _op_counters(world_a)
            # The premise: the bottleneck ran the port's inlined DRR
            # select (only plain-DRR ports get it, so `any`, not `all`).
            assert any(port._drr is not None
                       for port in world_a.iter_ports())

        trace_b = tmp_path / "b.jsonl"
        snap_b = tmp_path / "b.snap"
        session = TelemetrySession(trace_out=trace_b)
        policy_b = SnapshotPolicy(every_ns=every_ns, out=snap_b,
                                  halt_after_saves=1)
        with session:
            world_b = _build_bulk(session.trace)
            with pytest.raises(SnapshotHalt):
                run_world(world_b, policy_b)
            on_the_wire = _wire_contents(world_b)

        world_r = restore_world(snap_b, expect_kind="bulk")
        # The other premise: the kill caught packets mid-flight, and the
        # restored heap still holds every one of them under its port's
        # own callback — what a link-down fault after the restore scans.
        assert any(on_the_wire)
        assert _wire_contents(world_r) == on_the_wire
        run_world(world_r, policy_b)
        result_r = world_r.finish(world_r)
        counters_r = _op_counters(world_r)
        world_r.close_recorders()

    assert result_r.samples == result_a.samples
    assert counters_r == counters_a
    assert _sha256(trace_b) == _sha256(trace_a)


@pytest.mark.parametrize("mode", MODES, ids=["fast", "reference"])
def test_restore_without_policy_keeps_sequence_parity(tmp_path, mode):
    """A bare restore (no --snapshot-every) still matches byte-for-byte:
    the world remembers its cadence and keeps consuming one sequence
    number per tick even though nothing is written."""
    every_ns = milliseconds(5)
    with mode():
        world_a = _build_bulk()
        run_world(world_a, SnapshotPolicy(every_ns=every_ns,
                                          out=tmp_path / "a.snap"))
        counters_a = _op_counters(world_a)
        samples_a = world_a.finish(world_a).samples

        snap = tmp_path / "b.snap"
        world_b = _build_bulk()
        with pytest.raises(SnapshotHalt):
            run_world(world_b, SnapshotPolicy(
                every_ns=every_ns, out=snap, halt_after_saves=1))

        world_r = restore_world(snap)
        run_world(world_r)  # no policy at all
        assert world_r.saves == 1  # nothing new was written
        assert _op_counters(world_r) == counters_a
        assert world_r.finish(world_r).samples == samples_a


# -- restored heap semantics --------------------------------------------------

class _Hits:
    """Picklable callback target with a stable bound-method identity."""

    def __init__(self):
        self.tags = []
        self.cb = self.hit  # one bound method, shared through the pickle

    def hit(self, tag):
        self.tags.append(tag)


@pytest.mark.parametrize("mode", MODES, ids=["fast", "reference"])
def test_stale_generation_cancel_is_noop_across_restore(tmp_path, mode):
    with mode():
        sim = Simulator()
        hits = _Hits()
        first = sim.schedule(5, hits.cb, "early")
        stale_gen = first.gen
        sim.run(until=5)
        assert hits.tags == ["early"]
        # Pooled engines recycle `first`'s object for this new event
        # (gen bumps); the reference engine allocates a fresh one and
        # leaves `first` consumed.  Either way the retained handle is
        # stale now.
        later = sim.schedule(10, hits.cb, "late")
        if sim.pooling:
            assert later is first and later.gen == stale_gen + 1

        manager = SnapshotManager()
        path = tmp_path / "sim.snap"
        manager.save({"sim": sim, "hits": hits, "first": first,
                      "later": later}, path, kind="unit",
                     sim_now=sim.now)
        state, _ = manager.load(path)
        sim2, hits2 = state["sim"], state["hits"]

        # The stale handle stays a no-op on the restored heap.
        assert sim2.pending() == 1
        sim2.cancel_versioned(state["first"], stale_gen)
        assert sim2.pending() == 1
        sim2.check_consistency()

        # pending_events_for still finds the live event by identity.
        pending = sim2.pending_events_for(hits2.cb)
        assert [event.args for event in pending] == [("late",)]

        # Cancelling with the *current* generation does take effect.
        live = state["later"]
        sim2.cancel_versioned(live, live.gen)
        assert sim2.pending() == 0
        sim2.check_consistency()
        sim2.run()
        assert hits2.tags == ["early"]  # "late" was cancelled


@pytest.mark.parametrize("mode", MODES, ids=["fast", "reference"])
def test_restored_heap_executes_pending_events_once(tmp_path, mode):
    with mode():
        sim = Simulator()
        hits = _Hits()
        for delay, tag in [(5, "a"), (10, "b"), (15, "c")]:
            sim.schedule(delay, hits.cb, tag)
        sim.run(until=5)
        manager = SnapshotManager()
        path = tmp_path / "sim.snap"
        manager.save({"sim": sim, "hits": hits}, path, kind="unit")
        state, _ = manager.load(path)
        sim2, hits2 = state["sim"], state["hits"]
        sim2.run()
        assert hits2.tags == ["a", "b", "c"]
        assert sim2.pending() == 0
        sim2.check_consistency()


# -- post-exception resumability ----------------------------------------------

class _Bomb:
    def explode(self):
        raise RuntimeError("injected failure")


@pytest.mark.parametrize("mode", MODES, ids=["fast", "reference"])
def test_exception_escaping_callback_leaves_resumable_state(tmp_path, mode):
    with mode():
        sim = Simulator()
        hits = _Hits()
        bomb = _Bomb()
        sim.schedule(1, hits.cb, "before")
        sim.schedule(2, bomb.explode)
        sim.schedule(3, hits.cb, "after")
        with pytest.raises(RuntimeError, match="injected"):
            sim.run()
        # The raising event was consumed *before* its callback ran, so
        # heap and counters agree and the state is snapshot-worthy.
        sim.check_consistency()
        assert hits.tags == ["before"]
        assert sim.pending() == 1

        manager = SnapshotManager()
        path = tmp_path / "postmortem.snap"
        manager.save({"sim": sim, "hits": hits}, path, kind="unit")
        state, _ = manager.load(path)
        sim2, hits2 = state["sim"], state["hits"]
        sim2.run()  # the crash never re-fires; the tail completes
        assert hits2.tags == ["before", "after"]
        sim2.check_consistency()


def _raise_simulation_error():
    raise SimulationError("injected mid-run failure")


@pytest.mark.parametrize("mode", MODES, ids=["fast", "reference"])
def test_simulation_error_writes_restorable_triage_bundle(tmp_path, mode):
    with mode():
        world = _build_bulk()
        world.net.sim.schedule(milliseconds(5), _raise_simulation_error)
        policy = SnapshotPolicy(triage_dir=tmp_path / "triage")
        with pytest.raises(SimulationError, match="injected"):
            run_world(world, policy)

        assert world.last_triage is not None
        bundle = tmp_path / "triage"
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["reason"] == "simulation-error"
        assert manifest["heap_consistent"] is True
        assert manifest["sim_now"] == milliseconds(5)
        profile = (bundle / "profile.txt").read_text()
        assert "simulation-error" in profile
        assert "events executed" in profile

        # The post-mortem snapshot is itself restorable: the poisoned
        # event was already consumed, so the run completes this time.
        restored = restore_world(bundle / "snapshot.bin",
                                 expect_kind="bulk")
        run_world(restored)
        assert restored.finish(restored).samples


def test_restore_rejects_non_world_payload(tmp_path):
    path = tmp_path / "x.snap"
    SnapshotManager().save({"not": "a world"}, path, kind="bulk")
    with pytest.raises(SnapshotError, match="SimWorld"):
        restore_world(path)


def test_world_state_survives_a_plain_pickle_cycle():
    """Identity sharing: the heap, ports, and collectors stay one graph."""
    world = pickle.loads(pickle.dumps(_build_bulk()))
    sim = world.net.sim
    assert sim.pending() > 0
    sim.check_consistency()
    for port in world.iter_ports():
        assert port.sim is sim  # no duplicated simulator after restore


# -- snapshot.lifecycle events ------------------------------------------------

class _LifecycleLog:
    """Picklable subscriber so a copy can ride inside the snapshot."""

    def __init__(self):
        self.events = []

    def __call__(self, **payload):
        self.events.append((payload["detail"], payload["saves"]))


def test_autosave_and_restore_publish_lifecycle_events(tmp_path):
    trace = TraceBus()
    log = _LifecycleLog()
    trace.subscribe(TOPIC_SNAPSHOT_LIFECYCLE, log)
    snap = tmp_path / "x.snap"
    policy = SnapshotPolicy(every_ns=milliseconds(7), out=snap,
                            halt_after_saves=1)

    world = _build_bulk(trace)
    with pytest.raises(SnapshotHalt):
        run_world(world, policy)
    assert log.events == [("save", 1)]

    # The world is pickled *before* the save event is published, so the
    # subscriber copy inside the snapshot has not seen its own save; the
    # first thing it observes is the restore.
    restored = restore_world(snap, expect_kind="bulk")
    subscribers = restored.net.trace._subscribers[TOPIC_SNAPSHOT_LIFECYCLE]
    copies = [s for s in subscribers if isinstance(s, _LifecycleLog)]
    assert len(copies) == 1
    assert copies[0].events == [("restore", 1)]

    # Finishing the run keeps autosaving and publishing on the new bus.
    run_world(restored, SnapshotPolicy(every_ns=milliseconds(7), out=snap))
    assert copies[0].events[0] == ("restore", 1)
    assert [d for d, _ in copies[0].events[1:]] == ["save"] * (
        len(copies[0].events) - 1)
    assert copies[0].events[-1][1] == restored.saves


def test_lifecycle_events_without_bus_are_free(tmp_path):
    # No trace bus attached: autosave must not trip over the missing bus.
    world = _build_bulk(trace=None)
    run_world(world, SnapshotPolicy(every_ns=milliseconds(7),
                                    out=tmp_path / "x.snap"))
    assert world.saves > 0
