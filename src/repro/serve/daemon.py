"""The ``repro serve`` daemon: a crash-tolerant job-queue service.

One asyncio event loop runs two things: a unix-socket server answering
the :mod:`~repro.serve.protocol` ops, and a scheduler coroutine that
feeds accepted jobs to a :class:`~repro.experiments.fleet.WorkerFleet`
(the same crash-isolated process-per-attempt workers the sweep executor
uses, forked from a server started with the daemon).  The scheduler's
blocking fleet poll runs in a thread via ``run_in_executor`` and returns
on a worker message, a worker death, or a ``wake()`` from admission or
drain; every data structure is mutated only on the event loop, so there
is no locking beyond what the fleet does internally.

Robustness model, in one paragraph: admissions are written to the
write-ahead :class:`~repro.serve.wal.JobLog` *before* they are
acknowledged, so a SIGKILLed daemon re-queues exactly the jobs it owed
on restart (exactly-once by parameter digest); a worker that dies or
stops heartbeating is SIGKILLed and its job migrates to a fresh worker
by restoring the job's latest autosave mid-flight (corrupt or missing
autosaves degrade to a same-seed t=0 run, so results stay
byte-identical under any number of kills); retries
are budgeted with deterministic jittered exponential backoff; and when
the queue is full the LQD admission policy sheds from the client with
the longest backlog, telling the victim explicitly.  SIGTERM starts a
drain: no new admissions, running jobs finish (or are autosaved and cut
at the deadline), then a clean exit 0.  ``--drill`` kills a random live
worker on a cadence to prove all of this continuously.  See
``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import random
import re
import signal
import socket as socket_module
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Union

from ..errors import EXIT_OK, ServeError
from ..experiments.fleet import (
    EVENT_DIED,
    EVENT_ERROR,
    EVENT_FATAL,
    EVENT_OK,
    FleetEvent,
    WorkerFleet,
    WorkerHandle,
)
from ..experiments.parallel import (
    JOB_KINDS,
    JobSpec,
    _attempt_job,
    _spec_out,
    job_key,
)
from ..experiments.runner import retry_backoff
from ..sim.trace import TOPIC_SERVE_JOB, TraceBus
from .protocol import (
    MAX_FRAME_BYTES,
    OP_JOBS,
    OP_RESULT,
    OP_STATUS,
    OP_SUBMIT,
    STATUS_ACCEPTED,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_PENDING,
    STATUS_SHED,
    STATUS_UNKNOWN,
    decode_frame,
    encode_frame,
)
from .wal import JobLog

PathLike = Union[str, Path]

#: Longest one fleet poll blocks with nothing to report.  Submissions,
#: drains and worker events end it early; it only paces what nothing
#: announces: heartbeat and deadline eviction, backoff gates, drills.
POLL_S = 0.25

#: Job states.  ``queued``/``running`` are live; the rest are terminal
#: and mirror the WAL statuses.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
SHED = "shed"

_STATE_BY_STATUS = {STATUS_OK: DONE, STATUS_ERROR: FAILED,
                    STATUS_SHED: SHED}


class ServeConfig(NamedTuple):
    """Everything the daemon needs, in one picklable bundle."""

    socket_path: str
    wal: str
    jobs: int = 2                       # worker slots
    retries: int = 2                    # extra attempts per job
    max_queue: int = 64                 # queued (not running) jobs
    max_per_client: int = 16            # live jobs per client
    heartbeat_every_s: float = 0.5      # worker beat cadence
    heartbeat_timeout_s: float = 5.0    # silence before eviction (0 = off)
    job_deadline_s: float = 0.0         # wall-clock cap per attempt (0 = off)
    backoff_s: float = 0.25             # retry backoff base (0 = off)
    drain_timeout_s: float = 10.0       # grace after SIGTERM
    autosave_every_ns: Optional[int] = None  # mid-sim autosave cadence
    drill: bool = False                 # kill a random worker on a cadence
    drill_interval_s: float = 1.0
    drill_seed: int = 1


class ServeJob:
    """One submitted job, from admission to its terminal WAL entry."""

    __slots__ = ("key", "kind", "client", "spec", "state", "attempt",
                 "seed_attempt", "restore", "ready_at", "seed_used",
                 "entry", "waiters")

    def __init__(self, key: str, kind: str, client: str,
                 spec: Optional[JobSpec]) -> None:
        self.key = key
        self.kind = kind
        self.client = client
        self.spec = spec
        self.state = QUEUED
        self.attempt = 0           # attempts launched so far
        self.seed_attempt = 1      # reseed index (lags on restore retries)
        self.restore = False       # restore from autosave on next launch
        self.ready_at = 0.0        # monotonic backoff gate
        self.seed_used: Optional[int] = None
        self.entry: Optional[Dict[str, Any]] = None  # terminal WAL entry
        self.waiters: List[asyncio.Future] = []

    @property
    def live(self) -> bool:
        return self.state in (QUEUED, RUNNING)


class ServeDaemon:
    """See the module docstring; construct with a :class:`ServeConfig`."""

    def __init__(self, config: ServeConfig, *,
                 trace: Optional[TraceBus] = None) -> None:
        self.config = config
        self.trace = trace if trace is not None else TraceBus()
        self._started = time.monotonic()
        self._wal = JobLog(config.wal)
        self._jobs: Dict[str, ServeJob] = {}
        self._queue: List[str] = []
        self._fleet = WorkerFleet(
            heartbeat_every_s=(config.heartbeat_every_s
                               if config.heartbeat_timeout_s else None))
        self._draining = False
        self._drain_deadline = 0.0
        self._drill_rng = random.Random(config.drill_seed)
        self._next_drill: Optional[float] = None
        self._evicted: set = set()  # handle ids already SIGKILLed
        self._replay()

    # -- WAL replay: the daemon's memory across its own crashes ---------------

    def _replay(self) -> None:
        unfinished, terminal = self._wal.replay()
        for key, entry in terminal.items():
            job = ServeJob(key, str(entry.get("kind", "")),
                           str(entry.get("client", "")), None)
            job.state = _STATE_BY_STATUS[entry["status"]]
            job.entry = entry
            self._jobs[key] = job
        for key, entry in unfinished.items():
            kind = entry.get("kind")
            params = entry.get("params")
            if kind not in JOB_KINDS or not isinstance(params, dict):
                continue  # WAL written by a newer/older daemon; skip
            job = self._make_job(key, kind, params, entry.get("seed"),
                                 str(entry.get("client", "")))
            # An autosave left by the previous incarnation resumes the
            # job mid-flight with the seed it was produced under.
            job.restore = self._autosave_exists(job)
            self._jobs[key] = job
            self._queue.append(key)
            self._publish("recovered", key)

    def _make_job(self, key: str, kind: str, params: Dict[str, Any],
                  seed: Optional[int], client: str) -> ServeJob:
        spec = JobSpec(key, kind, params, seed=seed,
                       snapshot=self._autosave_spec(key, kind))
        return ServeJob(key, kind, client, spec)

    def _autosave_spec(self, key: str,
                       kind: str) -> Optional[Dict[str, Any]]:
        if not self.config.autosave_every_ns or not JOB_KINDS[kind].snapshot:
            return None
        directory = self._wal.path.with_name(self._wal.path.name
                                             + ".autosaves")
        directory.mkdir(parents=True, exist_ok=True)
        name = re.sub(r"[^\w.@=-]+", "_", key) + ".snap"
        return {"every_ns": self.config.autosave_every_ns,
                "out": str(directory / name)}

    def _autosave_exists(self, job: ServeJob) -> bool:
        out = _spec_out(job.spec) if job.spec else None
        return bool(out and Path(out).exists())

    # -- trace ----------------------------------------------------------------

    def _publish(self, detail: str, key: str = "") -> None:
        self.trace.publish(
            TOPIC_SERVE_JOB,
            time=int((time.monotonic() - self._started) * 1e9),
            detail=f"{detail} {key}".strip())

    # -- admission control ----------------------------------------------------

    def _admit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        kind = request.get("kind")
        if kind not in JOB_KINDS:
            return {"status": STATUS_ERROR,
                    "error": f"unknown job kind {kind!r}; "
                             f"known: {sorted(JOB_KINDS)}"}
        params = request.get("params")
        if not isinstance(params, dict):
            return {"status": STATUS_ERROR,
                    "error": "params must be a JSON object"}
        seed = request.get("seed")
        client = str(request.get("client") or "anon")
        try:
            key = job_key(kind, params)
        except Exception as exc:
            return {"status": STATUS_ERROR, "error": str(exc)}

        existing = self._jobs.get(key)
        if existing is not None:
            if existing.state in (DONE, FAILED):
                # Exactly-once: the digest matched finished work, so the
                # stored outcome is served instead of re-running.
                return {"status": STATUS_ACCEPTED, "key": key,
                        "cached": True}
            if existing.live:
                return {"status": STATUS_ACCEPTED, "key": key,
                        "cached": False, "dedup": True}
            # A shed job is terminal in the WAL but retriable by intent:
            # resubmission goes through admission again from scratch.
        if self._draining:
            return {"status": STATUS_DRAINING, "key": key}

        live = [job for job in self._jobs.values() if job.live]
        mine = sum(1 for job in live if job.client == client)
        if mine >= self.config.max_per_client:
            return {"status": STATUS_OVERLOADED, "key": key,
                    "reason": f"client {client!r} already has {mine} "
                              f"live jobs (limit {self.config.max_per_client})"}
        if len(self._queue) >= self.config.max_queue:
            victim = self._lqd_victim(client)
            if victim is None:
                return {"status": STATUS_OVERLOADED, "key": key,
                        "reason": f"queue full ({self.config.max_queue}) "
                                  f"and {client!r} has the longest backlog"}
            self._shed(victim)

        self._wal.accepted(key, kind=kind, params=params, seed=seed,
                           client=client)
        job = self._make_job(key, kind, params, seed, client)
        self._jobs[key] = job
        self._queue.append(key)
        self._fleet.wake()
        self._publish("accepted", key)
        return {"status": STATUS_ACCEPTED, "key": key, "cached": False}

    def _lqd_victim(self, submitter: str) -> Optional[str]:
        """Longest-queue-drop: the newest queued job of the most-backlogged
        client, or ``None`` when that client is the submitter (shedding
        your own oldest work to admit your newest helps nobody)."""
        backlog: Dict[str, List[str]] = {}
        for key in self._queue:
            backlog.setdefault(self._jobs[key].client, []).append(key)
        if not backlog:
            return None
        longest = max(backlog, key=lambda name: (len(backlog[name]), name))
        if longest == submitter:
            return None
        return backlog[longest][-1]

    def _shed(self, key: str) -> None:
        job = self._jobs[key]
        self._queue.remove(key)
        job.state = SHED
        job.entry = {"key": key, "status": STATUS_SHED,
                     "client": job.client,
                     "error": "shed by admission control"}
        self._wal.shed(key, client=job.client)
        self._publish("shed", key)
        self._resolve_waiters(job)

    # -- scheduler ------------------------------------------------------------

    async def _scheduler(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            now = time.monotonic()
            if self._draining:
                if not len(self._fleet):
                    break
                if now >= self._drain_deadline:
                    # Running jobs are cut; their autosaves and their
                    # ``accepted`` WAL entries survive for the restart.
                    self._publish("drain-timeout")
                    self._fleet.terminate_all()
                    break
            else:
                self._launch_ready(now)
            events = await loop.run_in_executor(None, self._fleet.poll,
                                                POLL_S)
            now = time.monotonic()
            for event in events:
                self._handle_event(event, now)
            self._evict_overdue(now)
            if self.config.drill and not self._draining:
                self._maybe_drill(now)

    def _launch_ready(self, now: float) -> None:
        while self._queue and len(self._fleet) < self.config.jobs:
            for index, key in enumerate(self._queue):
                if self._jobs[key].ready_at <= now:
                    del self._queue[index]
                    break
            else:
                return  # everything runnable is still backing off
            self._launch(self._jobs[key])

    def _launch(self, job: ServeJob) -> None:
        assert job.spec is not None
        restore = job.restore and self._autosave_exists(job)
        job.attempt += 1
        params, seed, snapshot_spec = _attempt_job(job.spec,
                                                   job.seed_attempt,
                                                   restore)
        job.seed_used = seed
        job.state = RUNNING
        self._fleet.launch(job.kind, params, snapshot_spec, token=job.key)
        if job.attempt == 1:
            label = "started"
        elif restore:
            # The job moved to a fresh worker and resumed mid-flight
            # from its autosave — same seed, no work lost.
            label = f"migrated[{job.attempt}]"
        else:
            label = f"retried[{job.attempt}]"
        self._publish(label, job.key)

    def _handle_event(self, event: FleetEvent, now: float) -> None:
        self._evicted.discard(id(event.handle))
        job = self._jobs.get(event.handle.token)
        if job is None or job.state != RUNNING:
            return  # heartbeat, or a worker outliving a shed/drained job
        if event.kind == EVENT_OK:
            job.state = DONE
            job.entry = {"key": job.key, "status": STATUS_OK,
                         "payload": event.payload,
                         "attempts": job.attempt, "seed": job.seed_used,
                         "client": job.client}
            self._wal.finished(job.key, payload=event.payload,
                               attempts=job.attempt, seed=job.seed_used,
                               client=job.client)
            self._publish(f"done[{job.attempt}]", job.key)
            self._gc_autosave(job)
            self._resolve_waiters(job)
            return
        if event.kind == EVENT_FATAL:
            # Unlike the sweep executor, a service must outlive worker
            # bugs: record the failure and keep serving.
            self._fail(job, f"worker raised: {event.payload}")
            return
        if event.kind not in (EVENT_ERROR, EVENT_DIED):
            return
        out = _spec_out(job.spec) if job.spec else None
        if event.kind == EVENT_DIED:
            error = f"worker died (exit code {event.payload})"
        else:
            error = str(event.payload)
        if job.attempt <= self.config.retries:
            if event.kind == EVENT_DIED:
                # A death (drill, eviction, OOM) says nothing about the
                # seed: retry the SAME seed, restored mid-flight when an
                # autosave exists, from t=0 otherwise.  Simulations are
                # deterministic per seed, so results under any number of
                # kills stay byte-identical to an unkilled run.
                job.restore = bool(out and Path(out).exists())
            else:
                # A SimulationError indicts the seed itself: reseed and
                # discard the autosave the failed seed wrote.
                if out:
                    Path(out).unlink(missing_ok=True)
                job.restore = False
                job.seed_attempt = job.attempt + 1
            job.state = QUEUED
            job.ready_at = now + retry_backoff(
                job.key, job.attempt + 1, base_s=self.config.backoff_s)
            self._queue.append(job.key)
        else:
            self._fail(job, error)

    def _fail(self, job: ServeJob, error: str) -> None:
        job.state = FAILED
        job.entry = {"key": job.key, "status": STATUS_ERROR,
                     "error": error, "attempts": job.attempt,
                     "seed": job.seed_used, "client": job.client}
        self._wal.failed(job.key, error=error, attempts=job.attempt,
                         seed=job.seed_used, client=job.client)
        self._publish(f"failed[{job.attempt}]", job.key)
        # The autosave stays on disk: it is the triage evidence and the
        # resume point if the job is ever resubmitted after a fix.
        self._resolve_waiters(job)

    def _gc_autosave(self, job: ServeJob) -> None:
        out = _spec_out(job.spec) if job.spec else None
        if not out:
            return
        Path(out).unlink(missing_ok=True)
        try:
            Path(out).parent.rmdir()
        except OSError:
            pass  # other jobs' autosaves still live there

    # -- health: heartbeats, deadlines, drills --------------------------------

    def _evict_overdue(self, now: float) -> None:
        config = self.config
        for handle in self._fleet.live():
            if id(handle) in self._evicted:
                continue
            hb_late = bool(config.heartbeat_timeout_s
                           and now - handle.last_seen
                           > config.heartbeat_timeout_s)
            too_long = bool(config.job_deadline_s
                            and now - handle.started_at
                            > config.job_deadline_s)
            if not (hb_late or too_long):
                continue
            self._publish("heartbeat-missed" if hb_late
                          else "deadline-exceeded", str(handle.token))
            self._evicted.add(id(handle))
            self._fleet.evict(handle)
            # The kill surfaces as a ``died`` event on the next poll and
            # the job migrates through the ordinary autosave path.

    def _maybe_drill(self, now: float) -> None:
        if self._next_drill is None:
            self._next_drill = now + self.config.drill_interval_s
        if now < self._next_drill:
            return
        self._next_drill = now + self.config.drill_interval_s
        victims = [handle for handle in self._fleet.live()
                   if id(handle) not in self._evicted]
        if not victims:
            return
        handle = self._drill_rng.choice(victims)
        self._publish("drill", str(handle.token))
        self._evicted.add(id(handle))
        self._fleet.evict(handle)

    # -- protocol server ------------------------------------------------------

    async def run(self) -> int:
        """Serve until a drain completes; returns the process exit code."""
        self._prepare_socket()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, self._begin_drain, signal.Signals(sig).name)
                installed.append(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or exotic platform: tests drive
                      # _begin_drain directly
        server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.config.socket_path),
            limit=MAX_FRAME_BYTES)
        self._publish("listening", str(self.config.socket_path))
        try:
            await self._scheduler()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            server.close()
            await server.wait_closed()
            self._finish_drain()
            self._wal.close()
            Path(self.config.socket_path).unlink(missing_ok=True)
        return EXIT_OK

    def _prepare_socket(self) -> None:
        path = Path(self.config.socket_path)
        if path.exists():
            probe = socket_module.socket(socket_module.AF_UNIX,
                                         socket_module.SOCK_STREAM)
            probe.settimeout(1.0)
            try:
                probe.connect(str(path))
            except ConnectionRefusedError:
                path.unlink()  # stale socket of a dead daemon
            except OSError as exc:
                raise ServeError(
                    f"socket path {path} exists and is not a stale "
                    f"socket: {exc}") from exc
            else:
                raise ServeError(
                    f"another daemon is already serving on {path}")
            finally:
                probe.close()
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)

    def _begin_drain(self, reason: str) -> None:
        if self._draining:
            return
        self._draining = True
        self._drain_deadline = (time.monotonic()
                                + self.config.drain_timeout_s)
        self._fleet.wake()
        self._publish(f"drain ({reason})")

    def _finish_drain(self) -> None:
        # Jobs still live stay ``accepted`` in the WAL — the restart
        # re-queues them — but their waiters must not hang.
        for job in self._jobs.values():
            if job.live:
                for future in job.waiters:
                    if not future.done():
                        future.set_result({"status": STATUS_DRAINING,
                                           "key": job.key})
                job.waiters.clear()
        self._publish("drain-complete")

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = await self._dispatch(decode_frame(line))
                except ServeError as exc:
                    response = {"status": STATUS_ERROR, "error": str(exc)}
                writer.write(encode_frame(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, ValueError):
            pass  # client went away mid-request, or overlong frame
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == OP_SUBMIT:
            return await self._op_submit(request)
        if op == OP_RESULT:
            return await self._op_result(request)
        if op == OP_JOBS:
            return self._op_jobs()
        if op == OP_STATUS:
            return self._op_status()
        return {"status": STATUS_ERROR, "error": f"unknown op {op!r}"}

    async def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        response = self._admit(request)
        if response["status"] != STATUS_ACCEPTED or not request.get("wait"):
            return response
        return await self._wait_terminal(self._jobs[response["key"]])

    async def _op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        key = str(request.get("key", ""))
        job = self._jobs.get(key)
        if job is None:
            return {"status": STATUS_UNKNOWN, "key": key}
        if job.live:
            if request.get("wait"):
                return await self._wait_terminal(job)
            return {"status": STATUS_PENDING, "key": key,
                    "state": job.state, "attempts": job.attempt}
        return self._job_result(job)

    def _op_jobs(self) -> Dict[str, Any]:
        return {"status": STATUS_OK,
                "jobs": [{"key": job.key, "state": job.state,
                          "client": job.client, "kind": job.kind,
                          "attempts": job.attempt}
                         for job in self._jobs.values()]}

    def _op_status(self) -> Dict[str, Any]:
        return {"status": STATUS_OK,
                "accepting": not self._draining,
                "draining": self._draining,
                "queued": len(self._queue),
                "running": len(self._fleet),
                "jobs": len(self._jobs),
                "drill": self.config.drill}

    async def _wait_terminal(self, job: ServeJob) -> Dict[str, Any]:
        if not job.live:
            return self._job_result(job)
        future = asyncio.get_running_loop().create_future()
        job.waiters.append(future)
        return await future

    def _job_result(self, job: ServeJob) -> Dict[str, Any]:
        entry = job.entry or {}
        response: Dict[str, Any] = {"status": entry.get("status",
                                                        STATUS_ERROR),
                                    "key": job.key,
                                    "attempts": entry.get("attempts"),
                                    "seed": entry.get("seed")}
        if "payload" in entry:
            response["payload"] = entry["payload"]
        if "error" in entry:
            response["error"] = entry["error"]
        return response

    def _resolve_waiters(self, job: ServeJob) -> None:
        for future in job.waiters:
            if not future.done():
                future.set_result(self._job_result(job))
        job.waiters.clear()
