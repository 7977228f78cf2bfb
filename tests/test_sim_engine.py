"""Unit tests for the discrete-event kernel.

The kernel has one event queue in two layouts: pooled simulators keep
``(time, seq, event)`` triples, unpooled (reference) ones keep bare
``Event`` objects ordered by ``Event.__lt__``.  The hypothesis suite at
the bottom drives both in lockstep through random interleavings of
``schedule`` / ``at`` / ``cancel`` / ``cancel_versioned`` / ``run`` and a
pickle snapshot/restore of the mid-run simulator: same callbacks in the
same order, same clock, same counters.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError

LAYOUTS = pytest.mark.parametrize("pooling", [False, True])


def test_schedule_and_run_executes_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_timestamp_executes_fifo():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(5, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_run_until_is_inclusive():
    sim = Simulator()
    hits = []
    sim.schedule(100, hits.append, "at-100")
    sim.schedule(101, hits.append, "at-101")
    sim.run(until=100)
    assert hits == ["at-100"]
    assert sim.now == 100


def test_run_until_with_no_events_advances_clock():
    sim = Simulator()
    sim.run(until=500)
    assert sim.now == 500


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(5, lambda: order.append("nested"))

    sim.schedule(1, first)
    sim.run()
    assert order == ["first", "nested"]
    assert sim.now == 6


def test_cancel_prevents_execution():
    sim = Simulator()
    hits = []
    event = sim.schedule(10, hits.append, "x")
    sim.cancel(event)
    sim.run()
    assert hits == []


def test_cancel_none_is_noop():
    sim = Simulator()
    sim.cancel(None)  # must not raise


def test_cancel_after_execution_is_noop():
    sim = Simulator()
    hits = []
    event = sim.schedule(1, hits.append, "x")
    sim.run()
    sim.cancel(event)
    assert hits == ["x"]


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_at_in_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_stop_halts_after_current_callback():
    sim = Simulator()
    order = []

    def stopper():
        order.append("stop")
        sim.stop()

    sim.schedule(1, stopper)
    sim.schedule(2, order.append, "never")
    sim.run()
    assert order == ["stop"]
    assert sim.pending() == 1


def test_run_resumes_after_stop():
    sim = Simulator()
    order = []
    sim.schedule(1, lambda: (order.append("a"), sim.stop()))
    sim.schedule(2, order.append, "b")
    sim.run()
    sim.run()
    assert order[-1] == "b"


def test_max_events_bounds_execution():
    for pooling in (False, True):
        sim = Simulator(pooling=pooling)
        count = []
        for _ in range(100):
            sim.schedule(1, count.append, 1)
        sim.run(max_events=10)
        assert len(count) == 10
        sim.run(until=50, max_events=0)  # a bound of zero runs nothing
        assert len(count) == 10 and sim.now == 1
        assert sim.events_executed == 10 and sim.pending() == 90
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=-1)
        assert len(count) == 10
        sim.run()                        # refusals left it runnable
        assert len(count) == 100


@LAYOUTS
@pytest.mark.parametrize("bound", [{}, {"max_events": 10}],
                         ids=["unbounded", "max_events"])
def test_run_until_in_the_past_raises(pooling, bound):
    """The clock never runs backwards: with an event still pending past
    the old horizon, ``run(until=5)`` used to set ``now = 5`` and let
    ``at()`` accept times before already-executed events."""
    sim = Simulator(pooling=pooling)
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(30, fired.append, "late")
    sim.run(until=20, **bound)
    assert sim.now == 20 and fired == ["early"]
    with pytest.raises(SimulationError, match="t=5 < now=20"):
        sim.run(until=5, **bound)
    assert sim.now == 20 and fired == ["early"]
    sim.run(until=20, **bound)           # until == now stays legal
    assert sim.now == 20 and fired == ["early"]
    sim.at(20, fired.append, "due-now")
    sim.run(until=20, **bound)
    assert fired == ["early", "due-now"]
    sim.run(**bound)
    assert fired == ["early", "due-now", "late"] and sim.now == 30


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.cancel(e1)
    assert sim.pending() == 1


def test_peek_time_skips_cancelled():
    sim = Simulator()
    e1 = sim.schedule(1, lambda: None)
    sim.schedule(7, lambda: None)
    sim.cancel(e1)
    assert sim.peek_time() == 7


def test_peek_time_empty_heap():
    sim = Simulator()
    assert sim.peek_time() is None


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_cancel_after_execution_keeps_pending_exact():
    # The O(1) live counter must not double-decrement when an already
    # executed event is cancelled.  pooling=False so the executed handle
    # is not recycled into the survivor; retained-handle cancellation
    # under pooling goes through cancel_versioned (test_perf_pooling.py).
    sim = Simulator(pooling=False)
    executed = sim.schedule(1, lambda: None)
    sim.run()
    survivor = sim.schedule(5, lambda: None)
    assert sim.pending() == 1
    sim.cancel(executed)  # no-op: already consumed by the run loop
    assert sim.pending() == 1
    sim.cancel(survivor)
    assert sim.pending() == 0


def test_double_cancel_counts_once():
    sim = Simulator()
    event = sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending() == 1
    assert sim.events_cancelled == 1


def test_scheduled_and_cancelled_counters():
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(4)]
    sim.cancel(events[0])
    sim.cancel(events[2])
    sim.run()
    assert sim.events_scheduled == 4
    assert sim.events_cancelled == 2
    assert sim.events_executed == 2
    assert sim.pending() == 0


@pytest.mark.parametrize("pooling", [True, False])
def test_audit_counters_reports_more_executed_than_scheduled(pooling):
    """Every executed event consumed a sequence number, so a run that
    reports more executions than schedules has a corrupt counter."""
    sim = Simulator(pooling=pooling)
    for i in range(3):
        sim.schedule(i + 1, lambda: None)
    sim.run()
    assert sim.audit_counters() == []
    sim.events_executed += 1
    assert sim.audit_counters() == [
        "4 events executed but only 3 ever scheduled"]


def test_profiler_hook_records_each_event():
    sim = Simulator()

    class Probe:
        def __init__(self):
            self.calls = []

        def record(self, callback, elapsed_s, heap_len):
            self.calls.append((callback, elapsed_s, heap_len))

    probe = Probe()
    sim.profiler = probe
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.run()
    assert len(probe.calls) == 2
    assert all(elapsed >= 0 for _, elapsed, _ in probe.calls)


def test_reentrant_run_raises():
    sim = Simulator()
    caught = []

    def reenter():
        try:
            sim.run()
        except SimulationError:
            caught.append(True)

    sim.schedule(1, reenter)
    sim.run()
    assert caught == [True]


def test_callback_args_passed_through():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda a, b: seen.append((a, b)), 1, "two")
    sim.run()
    assert seen == [(1, "two")]


def test_deterministic_event_sequence():
    """Two identical simulations produce identical execution traces."""
    def build_and_run():
        sim = Simulator()
        trace = []

        def emit(tag):
            trace.append((sim.now, tag))
            if tag < 3:
                sim.schedule(10 - tag, emit, tag + 1)

        sim.schedule(5, emit, 0)
        sim.schedule(5, emit, 2)
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


@LAYOUTS
def test_extreme_horizon_is_exact(pooling):
    """``run(until=...)`` past 2**53 ns must not round the horizon.

    2**53 + 1 is the first integer a double cannot represent; a float
    horizon sentinel would land the clock on 2**53 instead and run (or
    skip) events scheduled exactly at the boundary.  Covers the tight
    pooled loop, the general loop (forced via ``max_events``), and both
    heap layouts.
    """
    boundary = 2 ** 53 + 1
    fired = []

    sim = Simulator(pooling=pooling)
    sim.run(until=boundary)
    assert sim.now == boundary and isinstance(sim.now, int)
    sim.at(boundary + 1, fired.append, "tight")
    sim.run(until=boundary)              # inclusive horizon: not yet
    assert fired == []
    sim.run(until=boundary + 1)
    assert fired == ["tight"] and sim.now == boundary + 1

    general = Simulator(pooling=pooling)
    general.at(boundary + 1, fired.append, "general")
    general.run(until=boundary + 1, max_events=10)
    assert fired == ["tight", "general"]
    assert general.now == boundary + 1 and isinstance(general.now, int)


# -- lockstep differential: pooled triples vs bare reference Events -----------


class Recorder:
    """Picklable callback target: logs ``(tag, now)`` on each firing.

    Tags that are non-negative multiples of five chain a follow-up
    event, so run loops are exercised with mid-run insertions.  Chained
    tags are negative and never chain again.
    """

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def fire(self, tag):
        self.log.append((tag, self.sim.now))
        if tag >= 0 and tag % 5 == 0:
            self.sim.schedule(7, self.fire, -tag - 1)


class World:
    """One simulator plus its recorder and retained event handles.

    Pickled as a single root so handle aliasing survives the snapshot
    exactly the way ``repro.snapshot`` pickles a live world.
    """

    def __init__(self, sim):
        self.sim = sim
        self.rec = Recorder(sim)
        self.handles = []   # [(event, gen-at-schedule-time), ...]

    def apply(self, op, arg):
        sim = self.sim
        if op == "schedule":
            event = sim.schedule(arg, self.rec.fire, len(self.handles))
            self.handles.append((event, event.gen))
        elif op == "at":
            event = sim.at(sim.now + arg, self.rec.fire,
                           len(self.handles))
            self.handles.append((event, event.gen))
        elif op == "cancel":
            if self.handles:
                event, gen = self.handles[arg % len(self.handles)]
                # Raw cancel only while the handle is still current:
                # through a recycled one it is documented to kill the
                # bystander now living in the object, which only the
                # pooled layout has.  (There the reference side would
                # be cancelling a consumed event: a no-op either way.)
                if event.gen == gen:
                    sim.cancel(event)
        elif op == "cancel_versioned":
            if self.handles:
                event, gen = self.handles[arg % len(self.handles)]
                sim.cancel_versioned(event, gen)
        elif op == "cancel_stale":
            if self.handles:
                event, gen = self.handles[arg % len(self.handles)]
                sim.cancel_versioned(event, gen - 1)   # never current
        elif op == "run":
            sim.run(until=sim.now + arg)
        elif op == "run_events":
            # The general loop on both sides, zero-event bound included.
            sim.run(until=sim.now + 25, max_events=arg)
        elif op == "snapshot":
            return pickle.loads(pickle.dumps(self))
        return self

    def observe(self):
        sim = self.sim
        sim.check_consistency()
        return (self.rec.log, sim.now, sim.events_executed,
                sim.events_cancelled, sim.events_scheduled, sim.pending(),
                sim.peek_time(),
                [(event.time, event.args)
                 for event in sim.pending_events_for(self.rec.fire)])


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 40)),
        st.tuples(st.just("at"), st.integers(0, 40)),
        st.tuples(st.just("cancel"), st.integers(0, 999)),
        st.tuples(st.just("cancel_versioned"), st.integers(0, 999)),
        st.tuples(st.just("cancel_stale"), st.integers(0, 999)),
        st.tuples(st.just("run"), st.integers(0, 25)),
        st.tuples(st.just("run_events"), st.integers(0, 4)),
        st.tuples(st.just("snapshot"), st.just(0)),
    ),
    min_size=1, max_size=60)


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
def test_pooled_matches_reference_on_random_interleavings(ops):
    """Lockstep differential: same ops → same observable behaviour from
    the pooled triple heap and the bare-Event reference heap
    (``events_reused`` and ``pool_size()`` are what pooling is allowed
    to change, so they are not compared)."""
    pooled = World(Simulator(pooling=True))
    reference = World(Simulator(pooling=False))
    for op, arg in ops:
        pooled = pooled.apply(op, arg)
        reference = reference.apply(op, arg)
        assert pooled.observe() == reference.observe(), (op, arg)
    # Drain both and compare the full execution record.
    pooled.sim.run()
    reference.sim.run()
    assert pooled.observe() == reference.observe()
    assert pooled.sim.pending() == reference.sim.pending() == 0


def test_snapshot_restore_preserves_stale_handle_semantics():
    """A pickled-and-restored pooled heap honours versioned cancels
    taken before the snapshot."""
    world = World(Simulator(pooling=True))
    world.apply("schedule", 10)
    world.apply("schedule", 20)
    world.apply("run", 15)            # first fires, handle recycled
    restored = world.apply("snapshot", 0)
    event, gen = restored.handles[0]
    restored.sim.cancel_versioned(event, gen)   # stale: must no-op
    restored.sim.run()
    assert [tag for tag, _ in restored.rec.log] == [0, -1, 1]
    restored.sim.check_consistency()
