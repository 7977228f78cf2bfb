"""Event pooling correctness: a recycled event must be indistinguishable.

The simulator recycles executed events through a free list, and its one
failure mode is a recycled object leaking state from its previous life
to a handle someone still holds.  These tests pin the defences in:

* generation counters let retained handles detect recycling, and
  ``cancel_versioned`` no-ops on a stale generation instead of killing
  the innocent event now living in the object;
* a raising callback leaves identical pool state in both run loops;
* a port's link-down loses exactly the packets on the wire when delivery
  events are recycled underneath it.
"""

import pytest

from repro.net.packet import Packet
from repro.perf.config import PerfConfig, use_config
from repro.sim.engine import Simulator


# -- Event pool: generations and versioned cancel -----------------------------


def _pooled_sim() -> Simulator:
    return Simulator(pooling=True)


def test_event_generation_bumps_on_reuse():
    sim = _pooled_sim()
    fired = []
    first = sim.schedule(10, fired.append, "one")
    gen = first.gen
    sim.run()
    # The executed event goes back to the free list; the next schedule
    # re-issues the same object with a bumped generation.
    second = sim.schedule(10, fired.append, "two")
    assert second is first
    assert second.gen == gen + 1
    assert sim.events_reused == 1
    sim.run()
    assert fired == ["one", "two"]


def test_cancel_versioned_noop_on_stale_generation():
    sim = _pooled_sim()
    fired = []
    handle = sim.schedule(10, fired.append, "old")
    stale_gen = handle.gen
    sim.run()
    # Recycle the object into a new logical event...
    recycled = sim.schedule(10, fired.append, "new")
    assert recycled is handle
    # ...then cancel through the stale handle: must NOT kill the new one.
    sim.cancel_versioned(handle, stale_gen)
    sim.run()
    assert fired == ["old", "new"]
    # A current-generation versioned cancel still works.
    live = sim.schedule(10, fired.append, "never")
    sim.cancel_versioned(live, live.gen)
    sim.run()
    assert fired == ["old", "new"]


def test_raw_cancel_on_recycled_handle_would_misfire():
    """Documents *why* versioned cancel exists: a raw cancel through a
    stale handle kills the bystander event now living in the object."""
    sim = _pooled_sim()
    fired = []
    handle = sim.schedule(10, fired.append, "old")
    sim.run()
    recycled = sim.schedule(10, fired.append, "new")
    assert recycled is handle
    sim.cancel(handle)  # the unsafe pattern
    sim.run()
    assert fired == ["old"]  # "new" was killed — hence cancel_versioned


def test_pending_exact_after_pooled_run():
    sim = _pooled_sim()
    for i in range(5):
        sim.schedule(10 * (i + 1), lambda: None)
    keep = sim.schedule(1000, lambda: None)
    assert sim.pending() == 6
    sim.run(until=500)
    assert sim.pending() == 1
    sim.cancel(keep)
    assert sim.pending() == 0
    sim.run()
    assert sim.events_executed == 5


def test_self_clearing_timer_pattern_safe_without_versioning():
    """A handle cleared inside its own callback (RTO-timer pattern)
    never observes a recycled object."""
    sim = _pooled_sim()
    state = {"timer": None, "fired": 0}

    def on_timer():
        state["timer"] = None
        state["fired"] += 1

    state["timer"] = sim.schedule(10, on_timer)
    sim.run()
    assert state["timer"] is None
    assert state["fired"] == 1


def test_raising_callback_keeps_pool_stats_identical():
    """A raising callback must leave identical pool/counter state in the
    tight pooled loop and the general loop (the general loop used to
    leak the consumed event instead of recycling it)."""
    def boom():
        raise RuntimeError("boom")

    stats = []
    for force_general in (False, True):
        sim = _pooled_sim()
        done = []
        for i in range(4):
            sim.schedule(10 + i, done.append, i)
        sim.schedule(20, boom)
        sim.schedule(30, done.append, 99)
        kwargs = {"max_events": 100} if force_general else {}
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=1_000, **kwargs)
        sim.check_consistency()          # resumable post-mortem state
        stats.append((sim.now, sim.pool_size(), sim.pending(),
                      sim.events_executed, sim.events_reused,
                      tuple(done)))
        # The run is resumable: the remaining event still fires.
        sim.run()
        assert done[-1] == 99
    assert stats[0] == stats[1]


# -- port in-flight safety under event recycling ------------------------------


def test_link_down_with_recycled_delivery_events():
    """After heavy traffic (events recycled many times over), link-down
    must lose exactly the packets on the wire — no stale-handle kills —
    on the pooled heap and the unpooled one alike."""
    from repro.experiments.runner import buffer_factory
    from repro.net.port import EgressPort
    from repro.queueing.schedulers.drr import DRRScheduler

    for pooling in (True, False):
        with use_config(PerfConfig(event_pooling=pooling)):
            sim = Simulator()
            port = EgressPort(
                sim, "p->s", rate_bps=10 ** 9, prop_delay_ns=100_000,
                buffer_bytes=85_000,
                scheduler=DRRScheduler([1500.0] * 2),
                buffer_manager=buffer_factory(
                    "besteffort", rtt_ns=500_000)())
            received = []
            port.connect(type("Sink", (), {
                "receive": lambda self, p: received.append(p.flow_id)})())
            for i in range(40):
                sim.at(i * 12_000 + 1, port.send,
                       Packet(i, "p", "s", 1500, service_class=i % 2))
            # Cut the link mid-run: several deliveries are in flight.
            sim.at(300_000, port.set_link_down)
            sim.run()
            assert sim.pooling is pooling
            assert port.inflight_losses == 9
            assert port.dropped_packets == 24
            assert received == list(range(16))
