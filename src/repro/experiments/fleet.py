"""Reusable crash-isolated worker fleet.

The worker lifecycle extracted from the sweep executor's one-shot pool
loop (:mod:`repro.experiments.parallel`) so a second consumer — the
long-lived ``repro serve`` daemon — can share it verbatim: single-job
processes, one pipe per worker, and a combined wait over pipes *and*
process sentinels so a large result being streamed and a silent worker
death both resolve without deadlock.

Every attempt is its own process, forked from a ``forkserver`` that has
already imported the package (``spawn`` where there is none): a fork,
not an interpreter boot plus ``import repro``, and still import-time
state.  The server starts once per process and outlives any fleet;
workers inherit *its* environment and stdio as of that start.

The fleet is deliberately policy-free.  It launches workers, observes
them (:class:`FleetEvent`), and kills them; retries, reseeding,
checkpointing, and migration belong to the caller (the sweep executor's
``_run_pool`` and the daemon's scheduler respectively).

Workers can optionally send *heartbeats*: with ``heartbeat_every_s``
set, every worker runs a tiny daemon thread that sends ``("hb", n)``
down its pipe on that cadence, and the parent-side
:attr:`WorkerHandle.last_seen` timestamp advances on every message.  A
supervisor that stops seeing heartbeats (process frozen, swapped out,
SIGSTOPped, or its pipe gone) can :meth:`WorkerFleet.evict` the worker
and migrate its job.  Heartbeats prove the *process* is alive, not that
the simulation inside is progressing — wall-clock progress budgets are
the :class:`~repro.faults.ScenarioWatchdog`'s job, and the daemon
additionally supports a per-job deadline.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from multiprocessing import connection, get_all_start_methods, get_context
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional

from ..errors import WORKER_DRILL_EXIT, SnapshotHalt
from ..sim.errors import SimulationError

#: Event kinds produced by :meth:`WorkerFleet.poll`.  ``ok`` / ``error``
#: / ``fatal`` mirror the worker's terminal message; ``died`` is a
#: worker that disappeared without one (payload: exit code); ``hb`` is
#: a heartbeat (payload: beat counter).  Terminal events remove the
#: handle from the fleet; heartbeats do not.
EVENT_OK = "ok"
EVENT_ERROR = "error"
EVENT_FATAL = "fatal"
EVENT_DIED = "died"
EVENT_HEARTBEAT = "hb"

#: Imported by the fork server before it forks a worker; ``repro.cli``
#: because workers of ``python -m repro`` re-run ``repro.__main__``.
PRELOAD = ("repro.experiments.parallel", "repro.cli")

#: Grace a worker that should be exiting gets before it is SIGKILLed.
REAP_GRACE_S = 1.0

_IMPORT_PID = os.getpid()
_server_lock = threading.Lock()


def preloaded() -> bool:
    """Whether this process was forked from one that had imported us:
    true only in a worker of a preloaded server (run it as a
    ``callable`` job to check a fleet), never under ``spawn``."""
    return os.getpid() != _IMPORT_PID


def worker_context():
    """The context workers start from; starts the fork server once.

    ``forkserver.main`` drops the ``sys_path`` it is handed and swallows
    a preload ``ImportError``, so the package's parent directory goes on
    the environment's ``PYTHONPATH`` while the server is spawned; else
    the preload silently does nothing (:func:`preloaded` tells).
    """
    if "forkserver" not in get_all_start_methods():
        return get_context("spawn")
    from multiprocessing import forkserver
    context = get_context("forkserver")
    root = str(Path(__file__).resolve().parents[2])
    with _server_lock:
        context.set_forkserver_preload(list(PRELOAD))
        before = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, (root, before)))
        try:
            forkserver.ensure_running()
        finally:
            if before is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = before
    return context


class FleetEvent(NamedTuple):
    """One observation about one worker, from :meth:`WorkerFleet.poll`."""

    handle: "WorkerHandle"
    kind: str
    payload: Any


class WorkerHandle:
    """Parent-side bookkeeping for one live worker process."""

    __slots__ = ("token", "job_kind", "process", "conn", "started_at",
                 "last_seen")

    def __init__(self, token: Any, job_kind: str, process: Any,
                 conn: Any, now: float) -> None:
        self.token = token          # opaque caller context (job identity)
        self.job_kind = job_kind
        self.process = process
        self.conn = conn
        self.started_at = now       # monotonic launch time
        self.last_seen = now        # monotonic time of the last message

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid


def _worker_main(conn, kind_name: str, params: Dict[str, Any],
                 snapshot_spec: Optional[Dict[str, Any]] = None,
                 heartbeat_every_s: Optional[float] = None) -> None:
    """Worker entry point: run one job, send one terminal message, exit.

    Imports from :mod:`repro.experiments.parallel` are deferred: the
    child resolves this function by name before the registry module is
    needed, and the late import keeps the two modules free of an import
    cycle in the parent.
    """
    from .parallel import JOB_KINDS, _snapshot_policy

    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    stop_beating = threading.Event()
    if heartbeat_every_s:
        def beat() -> None:
            count = 0
            while not stop_beating.wait(heartbeat_every_s):
                count += 1
                try:
                    send((EVENT_HEARTBEAT, count))
                except OSError:
                    return  # parent went away; nothing left to tell
        threading.Thread(target=beat, daemon=True).start()

    try:
        kind = JOB_KINDS[kind_name]
        if snapshot_spec:
            params = dict(params)
            params["snapshot"] = _snapshot_policy(
                snapshot_spec, snapshot_spec.get("restore", False))
        result = kind.run(**params)
        stop_beating.set()
        send((EVENT_OK, kind.encode(result)))
    except SnapshotHalt:
        # Kill drill: die like a crashed worker would, without a
        # message, so the parent exercises the real died-mid-sim path
        # (retry same seed, restore from the autosave just written).
        stop_beating.set()
        conn.close()
        os._exit(WORKER_DRILL_EXIT)
    except SimulationError as exc:
        stop_beating.set()
        send((EVENT_ERROR, str(exc) or type(exc).__name__))
    except BaseException as exc:
        # A non-simulation exception is a bug, not a flaky run: report
        # it as fatal (the parent re-raises or fails the job) and let
        # the traceback land on stderr for debugging.
        stop_beating.set()
        try:
            send((EVENT_FATAL, f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        raise
    finally:
        stop_beating.set()
        conn.close()


class WorkerFleet:
    """A set of live single-job worker processes.

    Thread-safety: the handle table is lock-protected so one thread may
    block in :meth:`poll` while another calls :meth:`launch` or
    :meth:`evict` (the daemon does exactly that); the sweep executor
    uses the fleet single-threaded and pays one uncontended lock.
    """

    def __init__(self, *,
                 heartbeat_every_s: Optional[float] = None) -> None:
        self._ctx = worker_context()
        self._lock = threading.Lock()
        self._running: Dict[Any, WorkerHandle] = {}  # conn -> handle
        self.heartbeat_every_s = heartbeat_every_s
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._running)

    def live(self) -> List[WorkerHandle]:
        """Snapshot of the currently running handles."""
        with self._lock:
            return list(self._running.values())

    # -- lifecycle ------------------------------------------------------------

    def launch(self, job_kind: str, params: Dict[str, Any],
               snapshot_spec: Optional[Dict[str, Any]] = None, *,
               token: Any = None) -> WorkerHandle:
        """Start one worker for one job attempt."""
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(send_conn, job_kind, params, snapshot_spec,
                  self.heartbeat_every_s),
            daemon=True)
        process.start()
        send_conn.close()  # keep only the child's write end open
        handle = WorkerHandle(token, job_kind, process, recv_conn,
                              time.monotonic())
        with self._lock:
            self._running[recv_conn] = handle
        return handle

    def poll(self, timeout: Optional[float] = None) -> List[FleetEvent]:
        """Wait up to ``timeout`` seconds and report what happened.

        Waits on every worker's pipe *and* process sentinel together.
        Heartbeat messages refresh :attr:`WorkerHandle.last_seen` and
        surface as ``hb`` events; a terminal message (``ok`` / ``error``
        / ``fatal``) or a silent death (``died``) reaps the worker and
        removes it from the fleet.  :meth:`wake` ends the wait early,
        with or without workers.
        """
        with self._lock:
            handles = list(self._running.values())
        events: List[FleetEvent] = []
        waitables = ([self._wake_recv]
                     + [handle.conn for handle in handles]
                     + [handle.process.sentinel for handle in handles])
        ready = set(connection.wait(waitables, timeout))
        if self._wake_recv in ready:
            try:
                self._wake_recv.recv(4096)
            except BlockingIOError:
                pass  # another poller drained it first
        now = time.monotonic()
        for handle in handles:
            if (handle.conn not in ready
                    and handle.process.sentinel not in ready):
                continue
            terminal = None
            try:
                while handle.conn.poll(0):
                    message = handle.conn.recv()
                    handle.last_seen = now
                    if message[0] == EVENT_HEARTBEAT:
                        events.append(FleetEvent(handle, EVENT_HEARTBEAT,
                                                 message[1]))
                    else:
                        terminal = message
                        break
            except (EOFError, OSError):
                terminal = None  # worker died mid-send
            if terminal is not None:
                self._reap(handle)
                events.append(FleetEvent(handle, terminal[0], terminal[1]))
            elif handle.process.sentinel in ready:
                self._reap(handle)
                events.append(FleetEvent(handle, EVENT_DIED,
                                         handle.process.exitcode))
        return events

    def wake(self) -> None:
        """Make the current (or next) :meth:`poll` return at once;
        safe from any thread."""
        try:
            self._wake_send.send(b"\0")
        except BlockingIOError:
            pass  # buffer full: a wake-up is already pending

    def evict(self, handle: WorkerHandle,
              sig: int = signal.SIGKILL) -> None:
        """Kill a worker (default SIGKILL).

        The handle stays in the fleet: the next :meth:`poll` observes
        the death through the sentinel and reports a ``died`` event, so
        eviction flows through the exact same migration path as a real
        crash.  Racing an exit is fine — a vanished pid is ignored.
        """
        pid = handle.process.pid
        if pid is None:
            return
        try:
            os.kill(pid, sig)
        except (ProcessLookupError, PermissionError):
            pass

    def terminate_all(self) -> None:
        """Reap the whole fleet (interrupt / drain-deadline path)."""
        handles = self.live()
        for handle in handles:
            handle.process.terminate()
        for handle in handles:
            self._reap(handle)

    def _reap(self, handle: WorkerHandle) -> None:
        # A worker that should be exiting but lingers (a job left a
        # non-daemon thread, SIGTERM ignored) is killed rather than hang
        # the poller; what it already delivered counts.
        handle.process.join(REAP_GRACE_S)
        if handle.process.exitcode is None:
            handle.process.kill()
            handle.process.join()
        handle.conn.close()
        with self._lock:
            self._running.pop(handle.conn, None)
