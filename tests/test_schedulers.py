"""Unit tests for the packet schedulers."""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.queueing.schedulers.base import Scheduler, validate_weights
from repro.queueing.schedulers.drr import DRRScheduler
from repro.queueing.schedulers.fifo import FIFOScheduler
from repro.queueing.schedulers.spq import SPQDRRScheduler, SPQScheduler
from repro.queueing.schedulers.wrr import WRRScheduler
from repro.sim.errors import ConfigurationError

from conftest import ListQueueView


def drain(scheduler, view, limit=100_000):
    """Dequeue everything, returning the byte count served per queue."""
    served = [0] * len(view.queues)
    for _ in range(limit):
        index = scheduler.select(view)
        if index is None:
            return served
        served[index] += view.pop(index)
    raise AssertionError("scheduler did not drain")


def fill(view, scheduler, queue, sizes):
    for size in sizes:
        view.queues[queue].append(size)
        scheduler.on_enqueue(queue)


# -- base -----------------------------------------------------------------

def test_validate_weights_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        validate_weights([])
    with pytest.raises(ValueError):
        validate_weights([1, 0])


def test_scheduler_base_needs_positive_queues():
    with pytest.raises(ValueError):
        Scheduler(0)


def test_default_weights_equal():
    assert Scheduler(3).weights == [1.0, 1.0, 1.0]


# -- FIFO -----------------------------------------------------------------

def test_fifo_serves_single_queue():
    scheduler = FIFOScheduler()
    view = ListQueueView([[100, 200]])
    assert scheduler.select(view) == 0
    view.pop(0)
    assert scheduler.select(view) == 0
    view.pop(0)
    assert scheduler.select(view) is None


# -- DRR ------------------------------------------------------------------

def test_drr_equal_quanta_splits_bytes_evenly():
    scheduler = DRRScheduler([1500, 1500])
    view = ListQueueView([[], []])
    fill(view, scheduler, 0, [1500] * 40)
    fill(view, scheduler, 1, [1500] * 40)
    served = drain(scheduler, view)
    assert served == [60_000, 60_000]


def test_drr_respects_weighted_quanta():
    scheduler = DRRScheduler([3000, 1500])
    view = ListQueueView([[], []])
    fill(view, scheduler, 0, [1500] * 60)
    fill(view, scheduler, 1, [1500] * 60)
    # Serve the first 30 packets: ratio should be ~2:1.
    counts = [0, 0]
    for _ in range(30):
        index = scheduler.select(view)
        view.pop(index)
        counts[index] += 1
    assert counts[0] == pytest.approx(2 * counts[1], abs=2)


def test_drr_byte_fair_with_mixed_packet_sizes():
    """DRR (unlike WRR) stays fair when packet sizes differ."""
    scheduler = DRRScheduler([1500, 1500])
    view = ListQueueView([[], []])
    fill(view, scheduler, 0, [500] * 120)   # small packets
    fill(view, scheduler, 1, [1500] * 40)   # full MTU
    served_bytes = [0, 0]
    for _ in range(80):
        index = scheduler.select(view)
        served_bytes[index] += view.pop(index)
    assert served_bytes[0] == pytest.approx(served_bytes[1], rel=0.1)


def test_drr_skips_empty_queue():
    scheduler = DRRScheduler([1500, 1500])
    view = ListQueueView([[], []])
    fill(view, scheduler, 1, [1500] * 3)
    served = drain(scheduler, view)
    assert served == [0, 4500]


def test_drr_all_empty_returns_none():
    scheduler = DRRScheduler([1500])
    assert scheduler.select(ListQueueView([[]])) is None


def test_drr_packet_larger_than_quantum_accumulates_deficit():
    scheduler = DRRScheduler([1500, 1500])
    view = ListQueueView([[], []])
    fill(view, scheduler, 0, [9000])  # jumbo frame, 6 quanta needed
    fill(view, scheduler, 1, [1500] * 4)
    served = drain(scheduler, view)
    assert served == [9000, 6000]


def test_drr_reactivated_queue_resets_deficit():
    scheduler = DRRScheduler([1500, 1500])
    view = ListQueueView([[], []])
    fill(view, scheduler, 0, [1500])
    drain(scheduler, view)
    fill(view, scheduler, 0, [1500])
    assert scheduler.select(view) == 0


def test_drr_weights_property():
    assert DRRScheduler([6000, 4500, 3000, 1500]).weights == [
        6000, 4500, 3000, 1500]


def test_drr_round_time_estimate_analytic_fallback():
    scheduler = DRRScheduler([1500, 1500])
    view = ListQueueView([[], []])
    fill(view, scheduler, 0, [1500])
    fill(view, scheduler, 1, [1500])
    # 2 active queues x 1500 B at 1 Gbps = 24 us per round.
    estimate = scheduler.estimated_round_time_ns(10 ** 9)
    assert estimate == pytest.approx(24_000)


def test_drr_round_time_measured_with_clock():
    clock_value = [0]
    scheduler = DRRScheduler([1500, 1500])
    scheduler.bind_clock(lambda: clock_value[0])
    # Round tracking is lazy by default; its consumer (MQ-ECN) switches
    # it on at attach time, which this test stands in for.
    scheduler.enable_round_tracking()
    view = ListQueueView([[], []])
    fill(view, scheduler, 0, [1500] * 50)
    fill(view, scheduler, 1, [1500] * 50)
    for _ in range(60):
        clock_value[0] += 12_000  # 12 us per packet at 1 Gbps
        index = scheduler.select(view)
        view.pop(index)
    assert scheduler.round_time_ns > 0


# -- WRR ------------------------------------------------------------------

def test_wrr_equal_weights_round_robin():
    scheduler = WRRScheduler([1.0, 1.0])
    view = ListQueueView([[], []])
    fill(view, scheduler, 0, [1500] * 10)
    fill(view, scheduler, 1, [1500] * 10)
    order = []
    for _ in range(6):
        index = scheduler.select(view)
        view.pop(index)
        order.append(index)
    assert sorted(order[:2]) == [0, 1]
    assert order.count(0) == 3
    assert order.count(1) == 3


def test_wrr_weighted_packet_counts():
    scheduler = WRRScheduler([3.0, 1.0])
    view = ListQueueView([[], []])
    fill(view, scheduler, 0, [1500] * 40)
    fill(view, scheduler, 1, [1500] * 40)
    counts = [0, 0]
    for _ in range(40):
        index = scheduler.select(view)
        view.pop(index)
        counts[index] += 1
    assert counts[0] == pytest.approx(30, abs=2)


def test_wrr_work_conserving_with_one_queue_active():
    scheduler = WRRScheduler([1.0, 1.0, 1.0])
    view = ListQueueView([[], [], []])
    fill(view, scheduler, 2, [1500] * 5)
    assert drain(scheduler, view) == [0, 0, 7500]


# -- SPQ ------------------------------------------------------------------

def test_spq_serves_highest_priority_first():
    scheduler = SPQScheduler(3)
    view = ListQueueView([[], [1500], [1500]])
    assert scheduler.select(view) == 1


def test_spq_all_empty():
    assert SPQScheduler(2).select(ListQueueView([[], []])) is None


def test_spq_weights_validation():
    with pytest.raises(ValueError):
        SPQScheduler(2, weights=[1.0])


def test_spqdrr_high_queue_preempts():
    scheduler = SPQDRRScheduler(1, [1500, 1500])
    view = ListQueueView([[], [], []])
    fill(view, scheduler, 1, [1500] * 4)
    fill(view, scheduler, 0, [100])
    assert scheduler.select(view) == 0


def test_spqdrr_low_queues_are_drr_fair():
    scheduler = SPQDRRScheduler(1, [1500, 1500])
    view = ListQueueView([[], [], []])
    fill(view, scheduler, 1, [1500] * 20)
    fill(view, scheduler, 2, [1500] * 20)
    served = [0, 0, 0]
    for _ in range(10):
        index = scheduler.select(view)
        served[index] += view.pop(index)
    assert served[0] == 0
    assert served[1] == served[2]


def test_spqdrr_needs_high_queue():
    with pytest.raises(ValueError):
        SPQDRRScheduler(0, [1500])


def test_spqdrr_weights_cover_all_queues():
    scheduler = SPQDRRScheduler(1, [1500, 3000])
    assert len(scheduler.weights) == 3


def test_spqdrr_on_enqueue_routes_to_drr():
    scheduler = SPQDRRScheduler(1, [1500, 1500])
    view = ListQueueView([[], [], []])
    fill(view, scheduler, 2, [1500])
    assert scheduler.select(view) == 2


# -- work-conservation property across all schedulers ----------------------

@given(st.lists(st.tuples(st.integers(0, 3), st.integers(64, 9000)),
                min_size=1, max_size=60))
def test_schedulers_are_work_conserving(contents):
    """If any queue is non-empty, select() returns a valid index."""
    for make in (lambda: DRRScheduler([1500] * 4),
                 lambda: WRRScheduler([1.0, 2.0, 3.0, 4.0]),
                 lambda: SPQScheduler(4),
                 lambda: SPQDRRScheduler(1, [1500] * 3)):
        scheduler = make()
        view = ListQueueView([[], [], [], []])
        for queue, size in contents:
            view.queues[queue].append(size)
            scheduler.on_enqueue(queue)
        total = sum(len(q) for q in view.queues)
        for _ in range(total):
            index = scheduler.select(view)
            assert index is not None
            assert view.queues[index], "selected an empty queue"
            view.pop(index)
        assert scheduler.select(view) is None


# -- bound queues (the port's fast-path wiring) -----------------------------

class _Head:
    """A queued packet as a bound scheduler sees it: only its size."""

    __slots__ = ("size",)

    def __init__(self, size):
        self.size = size


class _DequeView:
    """The QueueView a port answers from the very deques it binds."""

    def __init__(self, queues):
        self.queues = queues

    def queue_empty(self, index):
        return not self.queues[index]

    def head_size(self, index):
        return self.queues[index][0].size


BOUND_VS_UNBOUND = {
    "fifo": FIFOScheduler,
    "spq": lambda: SPQScheduler(4),
    "drr": lambda: DRRScheduler([1500.0, 3000.0, 4500.0, 6000.0]),
    "spqdrr": lambda: SPQDRRScheduler(1, [1500.0, 3000.0, 4500.0]),
    "spqdrr_two_high": lambda: SPQDRRScheduler(2, [1500.0, 4500.0]),
}


def _drr_state(scheduler):
    drr = getattr(scheduler, "drr", scheduler)
    if not isinstance(drr, DRRScheduler):
        return None
    return list(drr._deficits), list(drr._active), list(drr._in_active)


@pytest.mark.parametrize("name", sorted(BOUND_VS_UNBOUND))
@given(st.lists(st.one_of(st.none(),
                          st.tuples(st.integers(0, 3),
                                    st.integers(64, 9000))),
                max_size=80))
def test_bound_select_matches_unbound(name, steps):
    """A bound scheduler, given no view at all, picks the same queue as
    an unbound twin asking the view at every step, and ends with the same
    deficits and active order.  ``None`` steps select and pop; tuples
    enqueue; the queues are drained at the end."""
    bound = BOUND_VS_UNBOUND[name]()
    unbound = BOUND_VS_UNBOUND[name]()
    queues = [deque() for _ in range(bound.num_queues)]
    bound.bind_queues(queues)
    view = _DequeView(queues)

    def select_both():
        index = bound.select(None)
        assert index == unbound.select(view)
        if index is not None:
            queues[index].popleft()
        return index

    for step in steps:
        if step is None:
            select_both()
        else:
            queue = step[0] % bound.num_queues
            queues[queue].append(_Head(step[1]))
            bound.on_enqueue(queue)
            unbound.on_enqueue(queue)
        assert _drr_state(bound) == _drr_state(unbound)
    while select_both() is not None:
        pass
    assert not any(queues)
    assert _drr_state(bound) == _drr_state(unbound)


@pytest.mark.parametrize("name", sorted(BOUND_VS_UNBOUND))
def test_bind_queues_length_checked(name):
    scheduler = BOUND_VS_UNBOUND[name]()
    with pytest.raises(ConfigurationError, match="bind_queues"):
        scheduler.bind_queues([deque()] * (scheduler.num_queues + 1))
