"""Experiment worlds: the snapshot-aware run driver.

A :class:`SimWorld` bundles everything an experiment needs to finish —
the built :class:`~repro.net.topology.Network`, the scenario's
collectors (meters, samplers, FCT collectors, fault controllers), the
horizon, and a module-level ``finish`` function that turns the world
into the scenario's result object.  Because the world is one connected
object graph rooted in plain picklable state, ``SnapshotManager`` can
save it whole and restore it with identity sharing intact.

``run_world`` drives a world to its horizon.  With an active
:class:`SnapshotPolicy` it schedules the autosave as an ordinary sim
event (a named bound method — the schedule-site lint in
``tests/test_schedule_lint.py`` keeps the graph closure-free): the event
sets a flag and stops the loop; the driver then saves *outside*
``Simulator.run`` (counters synced, no reentrancy), reschedules the next
autosave **before** pickling so the restored world already carries it,
and re-enters the loop.  Interrupt-at-save plus restore therefore
replays exactly the post-snapshot suffix: traces and metrics are
byte-identical to an uninterrupted run with the same cadence.

Determinism note: every autosave consumes one event sequence number, so
runs *with* and *without* autosaves differ in op counters — but the
displacement is uniform, so relative event ordering, traces, metrics,
and results are unchanged.  Differential tests compare like with like
(same cadence on both arms); parallel workers may autosave while the
serial arm does not and still produce identical results.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Union

from ..errors import (
    ConfigurationError,
    SimulationError,
    SnapshotError,
    SnapshotHalt,
)
from ..sim.trace import TOPIC_SNAPSHOT_LIFECYCLE
from .manager import PathLike, SnapshotManager

_MANAGER = SnapshotManager()


class SnapshotPolicy:
    """When to autosave, where, and what drills/triage to apply.

    Parameters
    ----------
    every_ns:
        Autosave cadence in simulated time (``None`` disables autosave).
    out:
        Snapshot file path; required when ``every_ns`` is set.  Each
        autosave atomically replaces the previous one.
    restore:
        Path of a snapshot to resume from instead of building the world
        fresh (see :func:`acquire_world`).
    halt_after_saves:
        Kill drill: raise :class:`~repro.errors.SnapshotHalt` immediately
        after the Nth autosave of *this* world.  The save counter is part
        of the snapshot, so a restored world (counter already past N)
        runs to completion instead of re-tripping — crash exactly once.
    triage_dir:
        When set, watchdog trips and escaping
        :class:`~repro.errors.SimulationError` write a triage bundle
        (snapshot + flight dump + counter summary) into this directory.
    restore_fallback:
        Worker mode: if the restore source is corrupt/unreadable, build
        the world fresh from t=0 instead of failing.  The CLI keeps this
        off so a bad ``--restore`` argument fails loudly.
    """

    def __init__(self, *, every_ns: Optional[int] = None,
                 out: Optional[PathLike] = None,
                 restore: Optional[PathLike] = None,
                 halt_after_saves: Optional[int] = None,
                 triage_dir: Optional[PathLike] = None,
                 restore_fallback: bool = False) -> None:
        if every_ns is not None and every_ns <= 0:
            raise ConfigurationError(
                f"snapshot cadence must be positive, got {every_ns}")
        if every_ns is not None and out is None:
            raise ConfigurationError(
                "--snapshot-every needs --snapshot-out (nowhere to save)")
        if halt_after_saves is not None:
            if halt_after_saves <= 0:
                raise ConfigurationError(
                    f"kill drill count must be positive, "
                    f"got {halt_after_saves}")
            if every_ns is None:
                raise ConfigurationError(
                    "--snapshot-kill-after needs --snapshot-every "
                    "(the drill fires on an autosave)")
        self.every_ns = every_ns
        self.out = out
        self.restore = restore
        self.halt_after_saves = halt_after_saves
        self.triage_dir = triage_dir
        self.restore_fallback = restore_fallback

    @property
    def autosaves(self) -> bool:
        return self.every_ns is not None


class SimWorld:
    """One experiment's complete live state, as a single pickle root.

    Parameters
    ----------
    kind:
        Experiment family tag written into snapshot headers ("bulk",
        "fct", "incast", "static-sim", "chaos"); restores check it so a
        chaos snapshot cannot be resumed as an fct run.
    net:
        The built network (owns the simulator and trace bus).
    finish:
        Module-level function ``finish(world) -> result`` producing the
        scenario's result object; module-level so it pickles by
        reference.
    horizon_ns:
        Simulated time to run until.
    state:
        Scenario collectors keyed by name (meter, samplers, apps,
        controllers...).  Everything the finish function needs must live
        here — it is the part of the graph the snapshot preserves for it.
    watchdog:
        Optional armed :class:`~repro.faults.ScenarioWatchdog`; a trip
        ends the run (and writes a triage bundle when configured).
    drain_key / chunk_ns:
        Drain mode (fct-style runs): instead of one run to the horizon,
        run in ``chunk_ns`` slices while ``state[drain_key].outstanding``
        is non-zero, breaking early when the event heap empties.
    meta:
        JSON-safe annotations copied into snapshot headers.
    """

    def __init__(self, *, kind: str, net: Any,
                 finish: Callable[["SimWorld"], Any],
                 horizon_ns: int,
                 state: Optional[Dict[str, Any]] = None,
                 watchdog: Any = None,
                 drain_key: Optional[str] = None,
                 chunk_ns: Optional[int] = None,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        if drain_key is not None and chunk_ns is None:
            raise ConfigurationError("drain mode needs a chunk size")
        self.kind = kind
        self.net = net
        self.finish = finish
        self.horizon_ns = horizon_ns
        self.state: Dict[str, Any] = state if state is not None else {}
        self.watchdog = watchdog
        self.drain_key = drain_key
        self.chunk_ns = chunk_ns
        self.meta: Dict[str, Any] = dict(meta or {})
        #: Autosaves completed by this world — persisted inside the
        #: snapshot, which is what makes kill drills fire exactly once.
        self.saves = 0
        #: Autosave cadence, persisted so a restored world keeps
        #: rescheduling its autosave event at the original rhythm even
        #: when the restoring invocation sets no cadence of its own
        #: (each tick consumes one event sequence number, so dropping
        #: the rhythm would diverge from the uninterrupted run).
        self.every_ns: Optional[int] = None
        #: True iff this world came out of ``restore_world``.
        self.restored = False
        #: Path of the last triage bundle written for this world.
        self.last_triage: Optional[str] = None
        self._autosave_due = False
        self._autosave_event = None
        self._next_target: Optional[int] = None

    # -- autosave event --------------------------------------------------------

    def _on_autosave(self) -> None:
        """Sim-event callback: request a save and stop the loop.

        The pickle itself happens in ``run_world`` *between* ``run``
        calls — never from inside a callback, where the engine's
        deferred counters would be mid-flight.
        """
        self._autosave_due = True
        self.net.sim.stop()

    # -- graph walking ---------------------------------------------------------

    def iter_ports(self) -> Iterator[Any]:
        """Every egress port in the network (switches, then host NICs)."""
        for switch in self.net.switches.values():
            yield from switch.ports.values()
        for host in self.net.hosts.values():
            if host.nic is not None:
                yield host.nic

    def resync(self) -> None:
        """Rebuild derived state after a restore.

        DynaQ's incremental victim tracker is recomputed from the
        restored thresholds/satisfaction vectors, so the argmax structure
        provably matches the canonical state it mirrors.
        """
        for port in self.iter_ports():
            manager = getattr(port, "buffer_manager", None)
            sync = getattr(manager, "_sync_tracker", None)
            if callable(sync):
                sync()

    def close_recorders(self) -> None:
        """Close trace recorders riding inside a restored world.

        A fresh run's recorders are owned (and closed) by the CLI's
        telemetry session; a restored world brings its own, so whoever
        finishes the run flushes them here.
        """
        from ..telemetry.recorder import TraceRecorder

        seen = set()
        subscribers = getattr(self.net.trace, "_subscribers", {})
        for callbacks in list(subscribers.values()):
            for handler in list(callbacks):
                owner = getattr(handler, "__self__", None)
                if isinstance(owner, TraceRecorder) and id(owner) not in seen:
                    seen.add(id(owner))
                    owner.close()


# -- driver -------------------------------------------------------------------


def run_world(world: SimWorld,
              policy: Optional[SnapshotPolicy] = None) -> SimWorld:
    """Drive ``world`` to its horizon under ``policy``.

    With no policy (or an inert one) this is exactly the classic loop:
    one ``run(until=horizon)``, or chunked runs in drain mode.  With
    autosave enabled, the loop additionally services save requests
    between ``run`` calls; chunk boundaries are derived from the previous
    *target* (not the interrupted clock), so an autosave landing inside a
    chunk does not shift any later boundary.
    """
    sim = world.net.sim
    autosaving = policy is not None and policy.autosaves
    if autosaving:
        world.every_ns = policy.every_ns
        if world._autosave_event is None and not world._autosave_due:
            world._autosave_event = sim.schedule(policy.every_ns,
                                                 world._on_autosave)
    drain = world.drain_key is not None
    app = world.state[world.drain_key] if drain else None
    if drain and world._next_target is None:
        world._next_target = min(sim.now + world.chunk_ns, world.horizon_ns)
    try:
        while True:
            if drain:
                if not app.outstanding or sim.now >= world.horizon_ns:
                    break
                target = world._next_target
            else:
                target = world.horizon_ns
            sim.run(until=target)
            if world.watchdog is not None and world.watchdog.tripped:
                world.last_triage = _maybe_triage(world, policy,
                                                  "watchdog-trip")
                break
            if world._autosave_due:
                world._autosave_due = False
                # Next autosave goes into the heap *before* the save so
                # the restored world wakes up with it already pending.
                # The reschedule happens even when this invocation has
                # nowhere to save (restore without --snapshot-out):
                # each tick consumes one sequence number, keeping the
                # restored run in lockstep with the uninterrupted one.
                world._autosave_event = sim.schedule(world.every_ns,
                                                     world._on_autosave)
                if autosaving:
                    _autosave(world, policy)
                continue
            if sim._stopped:
                break  # scenario-level stop() from a callback
            if not drain:
                break  # reached the horizon
            if sim.peek_time() is None:
                break  # outstanding work but an empty heap: wedged
            world._next_target = min(target + world.chunk_ns,
                                     world.horizon_ns)
    except SnapshotHalt:
        raise
    except SimulationError:
        world.last_triage = _maybe_triage(world, policy, "simulation-error")
        raise
    capture = _active_diagnosis_capture()
    if capture is not None:
        capture.collect(world)
    return world


def _active_diagnosis_capture():
    """The session's diagnosis capture, if one is installed.

    Imported lazily so the snapshot driver stays importable without the
    diagnosis package in the graph (and costs one cached module lookup
    per finished world, never per event).
    """
    from ..diagnosis.capture import active_capture

    return active_capture()


def _publish_lifecycle(world: SimWorld, detail: str, path: PathLike) -> None:
    """Emit one ``snapshot.lifecycle`` event on the world's bus.

    Lazy ``emit``: with no subscriber the event costs a dict lookup.
    The default trace recorder deliberately does not subscribe to this
    topic (save paths differ between a reference run and a restored
    one), so recording lifecycle events is an explicit opt-in — see
    :data:`repro.sim.trace.TOPIC_SNAPSHOT_LIFECYCLE`.
    """
    trace = getattr(world.net, "trace", None)
    if trace is not None:
        trace.emit(TOPIC_SNAPSHOT_LIFECYCLE, lambda: dict(
            time=world.net.sim.now, detail=detail, path=str(path),
            saves=world.saves))


def _autosave(world: SimWorld, policy: SnapshotPolicy) -> None:
    """Save the world, then fire the kill drill if it is due."""
    world.saves += 1
    _MANAGER.save(world, policy.out, kind=world.kind,
                  sim_now=world.net.sim.now,
                  meta={**world.meta, "saves": world.saves})
    _publish_lifecycle(world, "save", policy.out)
    # Exact equality: the snapshot just written carries saves == N, so
    # after a restore the counter moves to N+1 and the drill never
    # re-fires — each drill crashes the run exactly once.
    if (policy.halt_after_saves is not None
            and world.saves == policy.halt_after_saves):
        raise SnapshotHalt(str(policy.out), world.saves)


def _maybe_triage(world: SimWorld, policy: Optional[SnapshotPolicy],
                  reason: str) -> Optional[str]:
    if policy is None or policy.triage_dir is None:
        return None
    from .triage import write_triage_bundle

    return str(write_triage_bundle(policy.triage_dir, world=world,
                                   reason=reason))


# -- restore ------------------------------------------------------------------


def restore_world(path: PathLike, *,
                  expect_kind: Optional[str] = None) -> SimWorld:
    """Load a :class:`SimWorld` snapshot and make it runnable again."""
    world, _header = _MANAGER.load(path, expect_kind=expect_kind)
    if not isinstance(world, SimWorld):
        raise SnapshotError(
            f"{path}: payload is {type(world).__name__}, not a SimWorld")
    world.restored = True
    sim = world.net.sim
    sim._running = False
    sim._stopped = False
    world.resync()
    # Subscribers that rode inside the pickle (an explicitly opted-in
    # recorder, a flight recorder) see the resume point on the bus.
    _publish_lifecycle(world, "restore", path)
    return world


def acquire_world(policy: Optional[SnapshotPolicy], kind: str,
                  build: Callable[[], SimWorld]) -> SimWorld:
    """Restore the world named by ``policy``, or build it fresh.

    The worker-injected policies set ``restore_fallback`` so a corrupt
    autosave degrades to a clean t=0 re-run; interactive ``--restore``
    keeps it strict.
    """
    if policy is not None and policy.restore is not None:
        try:
            return restore_world(policy.restore, expect_kind=kind)
        except SnapshotError:
            if not policy.restore_fallback:
                raise
    return build()
