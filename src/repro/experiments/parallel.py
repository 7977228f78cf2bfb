"""Parallel experiment execution: crash-isolated worker processes.

Every evaluation figure runs a grid of independent simulations
(scheme x load x seed).  This module fans those grid points out to
worker processes while keeping three guarantees the serial runners
already give:

**Determinism.**  Results are reassembled in grid/seed submission order,
never completion order, and workers marshal results through the same
JSON-shaped encoding the checkpoint file uses, so sweep records, summary
tables, and CSV exports are byte-identical to a serial run with the same
seeds (see ``tests/test_parallel.py`` for the differential tests).

**Crash isolation.**  A job that dies with a
:class:`~repro.sim.errors.SimulationError` — watchdog trips included —
or whose worker process disappears entirely is retried with the
deterministic :func:`~repro.experiments.runner.reseed` sequence, and a
job that exhausts its retries records a per-point failure instead of
killing the sweep.

**Resumability.**  Completed points are appended to a JSONL checkpoint
file as they finish; a sweep restarted with ``resume=True`` replays the
finished points from the file and only runs what is missing.

Every attempt is a fresh process forked from a server that has already
imported this module (:mod:`repro.experiments.fleet`; no state inherited
from the launcher, safe under any host application), so job parameters
must be picklable and JSON-serialisable; jobs name their work through
the :data:`JOB_KINDS` registry rather than by pickling callables.  See
``docs/parallel.md``.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from collections import deque
from importlib import import_module
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..metrics.fct import FCTCollector, FlowRecord
from ..metrics.throughput import ThroughputSample
from ..sim.errors import ConfigurationError, SimulationError
from ..sim.trace import TOPIC_PARALLEL_JOB, TraceBus
from .fleet import (
    EVENT_DIED,
    EVENT_ERROR,
    EVENT_FATAL,
    EVENT_OK,
    WorkerFleet,
)
from .runner import reseed, scheme

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Job specs and outcomes
# ---------------------------------------------------------------------------

class JobSpec(NamedTuple):
    """One unit of work: a registry kind plus JSON-able parameters.

    ``seed`` is the job's *base* seed; on retry attempt ``k`` the
    executor rewrites the parameter at ``seed_path`` (a key path into
    ``params``) to :func:`~repro.experiments.runner.reseed`\\ ``(seed, k)``
    so two operators replaying a failing sweep land on the same
    replacement seeds.  Jobs without randomness use ``seed=None``.

    ``snapshot`` is an optional autosave spec (keys ``every_ns``,
    ``out``, and optionally ``halt_after_saves`` / ``triage_dir``).  It
    is *not* part of :func:`job_key` — autosaving is an executor
    concern, so toggling it never invalidates a checkpoint — and the
    executor turns it into a mid-sim resume: a worker that dies with an
    autosave on disk is retried with the *same* seed and restored from
    the autosave instead of starting over at t=0.
    """

    key: str
    kind: str
    params: Dict[str, Any]
    seed: Optional[int] = None
    seed_path: Tuple[str, ...] = ("seed",)
    snapshot: Optional[Dict[str, Any]] = None


class JobOutcome(NamedTuple):
    """The terminal state of one job after all attempts."""

    key: str
    value: Any                  # decoded result, None when the job failed
    error: Optional[str]        # last error when every attempt failed
    attempts: int               # 1 = first try succeeded
    seed: Optional[int]         # seed of the last attempt
    cached: bool = False        # replayed from the checkpoint file

    @property
    def ok(self) -> bool:
        return self.error is None


def job_key(kind: str, params: Dict[str, Any], label: str = "") -> str:
    """Stable checkpoint identity for a job: kind + parameter digest.

    Two sweeps asking for the same work produce the same key, so a
    resumed sweep recognises its finished points; any parameter change
    produces a fresh key and the point re-runs.
    """
    try:
        canonical = json.dumps({"kind": kind, "params": params},
                               sort_keys=True)
    except TypeError as exc:
        raise ConfigurationError(
            f"job parameters must be JSON-serialisable for "
            f"checkpointing: {exc}") from exc
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    prefix = f"{label}:" if label else ""
    return f"{prefix}{kind}:{digest}"


def _with_seed(params: Dict[str, Any], path: Tuple[str, ...],
               seed: int) -> Dict[str, Any]:
    """Copy ``params`` with the value at ``path`` replaced by ``seed``."""
    out = dict(params)
    node = out
    for name in path[:-1]:
        node[name] = dict(node[name])
        node = node[name]
    node[path[-1]] = seed
    return out


def _attempt_params(spec: JobSpec,
                    attempt: int) -> Tuple[Dict[str, Any], Optional[int]]:
    if spec.seed is None:
        return spec.params, None
    seed = reseed(spec.seed, attempt)
    return _with_seed(spec.params, spec.seed_path, seed), seed


# ---------------------------------------------------------------------------
# Job-kind registry: how a worker runs a job and marshals its result
# ---------------------------------------------------------------------------

class JobKind(NamedTuple):
    """Run one job and translate its result to/from JSON-able data.

    ``encode`` runs in the worker, ``decode`` in the parent; both the
    live result path and the checkpoint-replay path decode the same
    encoded form, which is what makes resumed output identical to
    uninterrupted output.

    ``snapshot`` marks kinds whose ``run`` accepts a
    :class:`~repro.snapshot.SnapshotPolicy` keyword; only those jobs
    get executor-driven autosave/restore ("callable" jobs name
    arbitrary functions, which may not take the keyword).
    """

    run: Callable[..., Any]
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    snapshot: bool = True


def resolve_target(text: str) -> Callable[..., Any]:
    """Import ``"module:qualname"`` back into the callable it names."""
    module_name, sep, qualname = text.partition(":")
    if not sep or not module_name or not qualname:
        raise ConfigurationError(
            f"job target must look like 'module:qualname', got {text!r}")
    obj: Any = import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def callable_target(fn: Callable[..., Any]) -> str:
    """The ``"module:qualname"`` a worker process can re-import.

    Lambdas, closures, and ``__main__`` functions cannot be named across
    a process boundary; they fail here, at submission time, with a clear
    message instead of a pickle error inside a worker.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    target = f"{module}:{qualname}"
    if (not module or module == "__main__" or not qualname
            or "<" in qualname):
        raise ConfigurationError(
            f"experiment {fn!r} is not importable as {target!r}; "
            "parallel sweeps need a module-level function "
            "(lambdas/closures only work with jobs=1)")
    try:
        resolved = resolve_target(target)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(
            f"experiment {fn!r} is not importable as {target!r}: "
            f"{exc}") from exc
    if resolved is not fn:
        raise ConfigurationError(
            f"experiment {fn!r} does not round-trip through {target!r}; "
            "parallel sweeps need a module-level function")
    return target


def _jsonable(value: Any) -> Any:
    """Normalise a result through JSON so live == checkpointed output."""
    return json.loads(json.dumps(value))


def _run_callable_job(*, target: str, kwargs: Dict[str, Any]) -> Any:
    return resolve_target(target)(**kwargs)


# -- fct ----------------------------------------------------------------------

def _run_fct_job(*, scheme: str, load: float, num_flows: int,
                 workload: str, truncate_mb: float, seed: int,
                 **kwargs: Any):
    from ..workloads.datasets import workload as load_workload
    from .testbed import run_fct_experiment
    distribution = load_workload(workload)
    if truncate_mb:
        distribution = distribution.truncated(int(truncate_mb * 1_000_000))
    return run_fct_experiment(scheme, load=load, num_flows=num_flows,
                              distribution=distribution, seed=seed,
                              **kwargs)


def _encode_fct(result) -> Dict[str, Any]:
    return {
        "scheme": result.scheme,
        "load": result.load,
        "completed": result.completed,
        "outstanding": result.outstanding,
        "records": [list(record) for record in result.collector.records],
    }


def _decode_fct(payload):
    from .testbed import FCTResult
    collector = FCTCollector()
    for flow_id, size_bytes, fct_ns, service_class in payload["records"]:
        collector.records.append(
            FlowRecord(int(flow_id), int(size_bytes), int(fct_ns),
                       int(service_class)))
    return FCTResult(payload["scheme"], payload["load"],
                     collector.summary(), payload["completed"],
                     payload["outstanding"], collector)


# -- incast -------------------------------------------------------------------

def _run_incast_job(*, scheme: str, **kwargs: Any):
    from .incast import run_incast
    return run_incast(scheme, **kwargs)


def _encode_incast(result) -> List[Any]:
    return list(result)


def _decode_incast(payload):
    from .incast import IncastResult
    return IncastResult(*payload)


# -- static-sim ---------------------------------------------------------------

def _encode_samples(samples: Sequence[ThroughputSample]) -> List[List[Any]]:
    return [[sample.time_ns, list(sample.per_queue_bps),
             sample.aggregate_bps] for sample in samples]


def _decode_samples(payload) -> List[ThroughputSample]:
    return [ThroughputSample(int(time_ns), tuple(per_queue), aggregate)
            for time_ns, per_queue, aggregate in payload]


def _run_static_job(*, scheme: str, rate: str, **kwargs: Any):
    from .simulation import SIM_100G, SIM_10G, run_static_sim
    config = SIM_100G if rate == "100g" else SIM_10G
    return run_static_sim(scheme, config=config, **kwargs)


def _encode_static(result) -> Dict[str, Any]:
    return {
        "scheme": result.scheme,
        "samples": _encode_samples(result.samples),
        "stop_times_ns": list(result.stop_times_ns),
        "config": list(result.config),
        "num_queues": result.num_queues,
    }


def _decode_static(payload):
    from .simulation import SimConfig, StaticSimResult
    return StaticSimResult(
        payload["scheme"], _decode_samples(payload["samples"]),
        list(payload["stop_times_ns"]), SimConfig(*payload["config"]),
        payload["num_queues"])


# -- competitive --------------------------------------------------------------

def _run_competitive_job(*, policy: str, adversary: str,
                         buffer_cells: int, **kwargs: Any):
    from .competitive import run_cell
    return run_cell(policy, adversary, buffer_cells, **kwargs)


# -- soak ---------------------------------------------------------------------

def _run_soak_job(*, scenario: Dict[str, Any], **kwargs: Any):
    from ..soak.runner import run_case
    from ..soak.scenario import SoakScenario
    return run_case(SoakScenario.from_dict(scenario), **kwargs)


# -- chaos --------------------------------------------------------------------

def _run_chaos_job(*, scheme: str, schedule: Dict[str, Any],
                   **kwargs: Any):
    from ..faults import FaultSchedule
    from .chaos import run_chaos
    return run_chaos(scheme, FaultSchedule.from_dict(schedule), **kwargs)


def _encode_chaos(result) -> Dict[str, Any]:
    inner = result.result
    return {
        "scheme": result.scheme,
        "schedule": result.schedule,
        "result": None if inner is None else {
            "scheme": inner.scheme,
            "samples": _encode_samples(inner.samples),
            "config": list(inner.config),
            "num_queues": inner.num_queues,
        },
        "aborted": result.aborted,
        "injected": result.injected,
        "recovered": result.recovered,
        "checks": result.checks,
        "violations": result.violations,
        "jain_before": result.jain_before,
        "jain_during": result.jain_during,
        "jain_after": result.jain_after,
        "triage_bundle": result.triage_bundle,
    }


def _decode_chaos(payload):
    from .chaos import ChaosResult
    from .testbed import TestbedConfig, ThroughputResult
    inner = payload["result"]
    result = None
    if inner is not None:
        result = ThroughputResult(
            inner["scheme"], _decode_samples(inner["samples"]), None,
            TestbedConfig(*inner["config"]), inner["num_queues"])
    return ChaosResult(
        scheme=payload["scheme"], schedule=payload["schedule"],
        result=result, aborted=payload["aborted"],
        injected=payload["injected"], recovered=payload["recovered"],
        checks=payload["checks"], violations=payload["violations"],
        jain_before=payload["jain_before"],
        jain_during=payload["jain_during"],
        jain_after=payload["jain_after"],
        triage_bundle=payload.get("triage_bundle"))


#: Work a worker process knows how to run, by name.  Only the *name*
#: crosses the process boundary; the worker looks the kind up again in
#: its own copy of this module, so entries need not be picklable.
JOB_KINDS: Dict[str, JobKind] = {
    "callable": JobKind(_run_callable_job, _jsonable, lambda p: p,
                        snapshot=False),
    "fct": JobKind(_run_fct_job, _encode_fct, _decode_fct),
    "incast": JobKind(_run_incast_job, _encode_incast, _decode_incast),
    "static-sim": JobKind(_run_static_job, _encode_static, _decode_static),
    "chaos": JobKind(_run_chaos_job, _encode_chaos, _decode_chaos),
    # run_cell already returns a plain JSON dict, so encode just
    # normalises it (live == checkpointed) and decode is the identity.
    "competitive": JobKind(_run_competitive_job, _jsonable, lambda p: p,
                           snapshot=False),
    # run_case returns a plain JSON verdict and manages its own
    # snapshot torture internally, so executor autosave stays off.
    "soak": JobKind(_run_soak_job, _jsonable, lambda p: p,
                    snapshot=False),
}


# ---------------------------------------------------------------------------
# Mid-sim resume: autosave specs and per-attempt snapshot policies
# ---------------------------------------------------------------------------

def _autosave_dir(checkpoint: Any,
                  autosave_dir: Optional[PathLike]) -> Path:
    if autosave_dir is not None:
        return Path(autosave_dir)
    base = (checkpoint.path if isinstance(checkpoint, SweepCheckpoint)
            else Path(checkpoint))
    return base.with_name(base.name + ".autosaves")


def _with_autosave_specs(specs: List[JobSpec], every_ns: int,
                         directory: Path) -> List[JobSpec]:
    """Attach a per-job autosave spec (filename derived from the key)."""
    directory.mkdir(parents=True, exist_ok=True)
    out: List[JobSpec] = []
    for spec in specs:
        if spec.snapshot is not None or not JOB_KINDS[spec.kind].snapshot:
            out.append(spec)
            continue
        name = re.sub(r"[^\w.@=-]+", "_", spec.key) + ".snap"
        out.append(spec._replace(snapshot={"every_ns": every_ns,
                                           "out": str(directory / name)}))
    return out


def _spec_out(spec: JobSpec) -> Optional[str]:
    return (spec.snapshot or {}).get("out")


def _snapshot_policy(spec_dict: Dict[str, Any], restore: bool):
    """The worker-side policy for one attempt.

    ``restore_fallback`` is always on here: a corrupt or torn autosave
    degrades to a clean t=0 run instead of failing the job (the CLI's
    ``--restore`` path stays strict).
    """
    from ..snapshot import SnapshotPolicy
    out = spec_dict.get("out")
    restore_path = (out if restore and out and Path(out).exists()
                    else None)
    return SnapshotPolicy(
        every_ns=spec_dict.get("every_ns"), out=out,
        restore=restore_path,
        halt_after_saves=spec_dict.get("halt_after_saves"),
        triage_dir=spec_dict.get("triage_dir"),
        restore_fallback=True)


def _attempt_job(spec: JobSpec, seed_attempt: int,
                 restore: bool) -> Tuple[Dict[str, Any], Optional[int],
                                         Optional[Dict[str, Any]]]:
    """(params, seed, snapshot-spec) for one attempt of one job."""
    params, seed = _attempt_params(spec, seed_attempt)
    snapshot_spec = None
    if spec.snapshot and JOB_KINDS[spec.kind].snapshot:
        snapshot_spec = dict(spec.snapshot)
        snapshot_spec["restore"] = restore
    return params, seed, snapshot_spec


# ---------------------------------------------------------------------------
# Checkpoint file: append-only JSONL of finished points
# ---------------------------------------------------------------------------

class SweepCheckpoint:
    """Append-only JSONL record of finished sweep points.

    One line per terminal job state.  With ``resume=True`` an existing
    file is loaded and successful entries are replayed (failed entries
    re-run); otherwise the file starts fresh.  A torn final line — the
    signature of a killed process — is ignored on load.
    """

    def __init__(self, path: PathLike, *, resume: bool = False) -> None:
        self.path = Path(path)
        self.resume = resume
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._handle = None
        if resume and self.path.exists():
            for line in self.path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(entry, dict) and "key" in entry:
                    self._entries[entry["key"]] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def completed(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``key`` if it finished successfully."""
        entry = self._entries.get(key)
        if entry is not None and entry.get("status") == "ok":
            return entry
        return None

    def entries(self) -> Dict[str, Dict[str, Any]]:
        """Latest entry per key, whatever its status.

        The serving tier's write-ahead job log reuses this file format
        and needs to see non-terminal (``accepted``) entries too;
        :meth:`completed` keeps its strict successful-only contract for
        sweep resume.
        """
        return dict(self._entries)

    def record(self, key: str, *, status: str, payload: Any = None,
               error: Optional[str] = None, attempts: int = 1,
               seed: Optional[int] = None, **extra: Any) -> None:
        entry: Dict[str, Any] = {"key": key, "status": status,
                                 "attempts": attempts, "seed": seed}
        if payload is not None:
            entry["payload"] = payload
        if error is not None:
            entry["error"] = error
        if extra:
            entry.update(extra)
        self._entries[key] = entry
        if self._handle is None:
            mode = "a" if self.resume else "w"
            self._handle = self.path.open(mode)
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    """Per-attempt context the executor rides on a fleet handle."""

    spec: JobSpec
    attempt: int
    seed_attempt: int
    seed: Optional[int]


def parallel_map(specs: Sequence[JobSpec], *, jobs: int = 1,
                 retries: int = 0,
                 checkpoint: Optional[PathLike] = None,
                 resume: bool = False,
                 trace: Optional[TraceBus] = None,
                 on_result: Optional[Callable[[JobOutcome], None]] = None,
                 autosave_every_ns: Optional[int] = None,
                 autosave_dir: Optional[PathLike] = None
                 ) -> List[JobOutcome]:
    """Run every job and return one outcome per spec, in spec order.

    ``jobs`` worker processes run concurrently (``jobs=1`` executes
    in-process through the identical retry/marshal/checkpoint path, so
    serial and parallel runs produce the same bytes).  ``retries``
    extra attempts with :func:`~repro.experiments.runner.reseed`-derived
    seeds follow a :class:`SimulationError` or a worker death; a job
    that exhausts them yields a failed outcome instead of raising.

    ``checkpoint`` names a JSONL file that receives every terminal job
    state as it happens; with ``resume=True`` previously successful
    entries are replayed instead of re-run.  ``trace`` receives
    ``parallel.job`` lifecycle events (start/retry/done/failed/cached).
    ``on_result`` is called with each outcome as it becomes final, in
    completion order — if it raises, in-flight workers are terminated
    and the checkpoint keeps what already finished.

    ``autosave_every_ns`` turns on mid-sim resume: snapshot-capable
    jobs autosave every so many *simulated* nanoseconds into
    ``autosave_dir`` (default: ``<checkpoint>.autosaves/`` next to the
    checkpoint file), and an attempt whose worker dies restarts from
    the job's last autosave — same seed, mid-flight — instead of t=0.
    A :class:`SimulationError` retry still reseeds from scratch and
    discards the stale autosave (it belongs to the failed seed).
    Autosaves only shift internal event sequence numbers, never event
    ordering, so resumed results remain byte-identical to serial runs.
    """
    specs = list(specs)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        raise ConfigurationError("duplicate job keys in one sweep")
    for spec in specs:
        if spec.kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {spec.kind!r}; "
                f"known: {sorted(JOB_KINDS)}")
    gc_keys: set = set()
    if autosave_every_ns is not None:
        if checkpoint is None and autosave_dir is None:
            raise ConfigurationError(
                "autosave needs a checkpoint file (or an explicit "
                "autosave_dir) to derive snapshot paths")
        explicit = {spec.key for spec in specs
                    if spec.snapshot is not None}
        specs = _with_autosave_specs(
            specs, autosave_every_ns,
            _autosave_dir(checkpoint, autosave_dir))
        # Executor-attached autosaves are an implementation detail of
        # mid-sim resume; once their job has finished successfully they
        # are garbage (and a later --resume against the finished
        # checkpoint must not pick them up).  Caller-provided snapshot
        # specs are the caller's files and stay.
        gc_keys = {spec.key for spec in specs
                   if spec.snapshot is not None
                   and spec.key not in explicit}

    own_store = not isinstance(checkpoint, SweepCheckpoint)
    store: Optional[SweepCheckpoint]
    if checkpoint is None:
        store = None
    elif own_store:
        store = SweepCheckpoint(checkpoint, resume=resume)
    else:
        store = checkpoint

    started = time.monotonic()

    def publish(detail: str, key: str) -> None:
        if trace is not None:
            trace.publish(
                TOPIC_PARALLEL_JOB,
                time=int((time.monotonic() - started) * 1e9),
                detail=f"{detail} {key}")

    outcomes: Dict[str, JobOutcome] = {}

    def finish(outcome: JobOutcome) -> None:
        outcomes[outcome.key] = outcome
        # Terminal events surface the attempt count: "done[1]" is a
        # first-try success, "failed[3]" exhausted two retries.
        verdict = "done" if outcome.ok else "failed"
        publish(f"{verdict}[{outcome.attempts}]", outcome.key)
        if on_result is not None:
            on_result(outcome)

    todo: List[JobSpec] = []
    for spec in specs:
        entry = store.completed(spec.key) if store is not None else None
        if entry is not None:
            outcome = JobOutcome(
                spec.key, JOB_KINDS[spec.kind].decode(entry["payload"]),
                None, entry.get("attempts", 1),
                entry.get("seed", spec.seed), True)
            outcomes[spec.key] = outcome
            publish("cached", spec.key)
            if on_result is not None:
                on_result(outcome)
        else:
            todo.append(spec)

    # A fresh sweep must not inherit autosaves from a previous one;
    # only resume=True may restore a job mid-flight on its first try.
    if not resume:
        for spec in todo:
            out = _spec_out(spec)
            if out:
                Path(out).unlink(missing_ok=True)

    try:
        if jobs == 1:
            _run_serial(todo, retries, store, finish, publish, resume)
        elif todo:
            _run_pool(todo, jobs, retries, store, finish, publish,
                      resume)
    finally:
        if store is not None and own_store:
            store.close()
    _gc_autosaves(specs, outcomes, gc_keys)
    return [outcomes[key] for key in keys]


def _gc_autosaves(specs: Sequence[JobSpec],
                  outcomes: Dict[str, JobOutcome],
                  gc_keys: set) -> None:
    """Drop executor-attached autosaves of successfully finished jobs.

    Runs after the sweep: every ok (or cached) job's ``.snap`` is
    unlinked and the ``<checkpoint>.autosaves/`` directory is removed
    once empty.  Failed jobs keep their autosave — it is the resume
    point for the next ``--resume`` and the evidence for triage.
    """
    directories = set()
    for spec in specs:
        if spec.key not in gc_keys:
            continue
        out = _spec_out(spec)
        outcome = outcomes.get(spec.key)
        if out and outcome is not None and outcome.ok:
            Path(out).unlink(missing_ok=True)
            directories.add(Path(out).parent)
    for directory in directories:
        try:
            directory.rmdir()
        except OSError:
            pass  # non-empty (failed jobs) or already gone


def _record_success(store: Optional[SweepCheckpoint], spec: JobSpec,
                    payload: Any, attempt: int,
                    seed: Optional[int]) -> JobOutcome:
    if store is not None:
        store.record(spec.key, status="ok", payload=payload,
                     attempts=attempt, seed=seed)
    return JobOutcome(spec.key, JOB_KINDS[spec.kind].decode(payload),
                      None, attempt, seed)


def _record_failure(store: Optional[SweepCheckpoint], spec: JobSpec,
                    error: str, attempt: int,
                    seed: Optional[int]) -> JobOutcome:
    if store is not None:
        store.record(spec.key, status="error", error=error,
                     attempts=attempt, seed=seed)
    return JobOutcome(spec.key, None, error, attempt, seed)


def _run_serial(todo: Sequence[JobSpec], retries: int,
                store: Optional[SweepCheckpoint],
                finish: Callable[[JobOutcome], None],
                publish: Callable[[str, str], None],
                resume: bool = False) -> None:
    """In-process execution with the same retry/marshal semantics."""
    for spec in todo:
        kind = JOB_KINDS[spec.kind]
        out = _spec_out(spec)
        attempt = 0
        restore = bool(resume and out and Path(out).exists())
        last_error = ""
        while attempt <= retries:
            attempt += 1
            params, seed, snapshot_spec = _attempt_job(spec, attempt,
                                                       restore)
            if snapshot_spec:
                params = dict(params)
                params["snapshot"] = _snapshot_policy(snapshot_spec,
                                                      restore)
            publish("start" if attempt == 1 else f"retry[{attempt}]",
                    spec.key)
            try:
                result = kind.run(**params)
            except SimulationError as exc:
                last_error = str(exc) or type(exc).__name__
                # The next attempt reseeds, so the autosave written by
                # this one describes a run that no longer exists.
                if out:
                    Path(out).unlink(missing_ok=True)
                restore = False
                continue
            finish(_record_success(store, spec, kind.encode(result),
                                   attempt, seed))
            break
        else:
            _, seed = _attempt_params(spec, attempt)
            finish(_record_failure(store, spec, last_error, attempt, seed))


def _run_pool(todo: Sequence[JobSpec], jobs: int, retries: int,
              store: Optional[SweepCheckpoint],
              finish: Callable[[JobOutcome], None],
              publish: Callable[[str, str], None],
              resume: bool = False) -> None:
    """Fan jobs out to a :class:`~repro.experiments.fleet.WorkerFleet`.

    One process per job attempt: a worker that segfaults, is OOM-killed,
    or calls ``os._exit`` takes down nothing but its own job, which is
    retried or recorded as failed.  A dead worker that left an autosave
    behind is retried with the *same* seed and restored mid-flight; any
    other retry reseeds from scratch.  The fleet waits on pipes *and*
    process sentinels together so a large result being streamed and a
    silent death are both handled without deadlock.
    """
    fleet = WorkerFleet()
    # Queue entries: (spec, attempt #, seed attempt #, restore?).  The
    # seed attempt lags the attempt counter on restore retries so the
    # resumed run keeps the seed its autosave was produced under.
    pending = deque()
    for spec in todo:
        out = _spec_out(spec)
        restore = bool(resume and out and Path(out).exists())
        pending.append((spec, 1, 1, restore))

    def launch(spec: JobSpec, attempt: int, seed_attempt: int,
               restore: bool) -> None:
        params, seed, snapshot_spec = _attempt_job(spec, seed_attempt,
                                                   restore)
        fleet.launch(spec.kind, params, snapshot_spec,
                     token=_Token(spec, attempt, seed_attempt, seed))
        label = ("start" if attempt == 1
                 else f"retry[{attempt}]" + ("+restore" if restore
                                             else ""))
        publish(label, spec.key)

    try:
        while pending or len(fleet):
            while pending and len(fleet) < jobs:
                spec, attempt, seed_attempt, restore = pending.popleft()
                launch(spec, attempt, seed_attempt, restore)
            for event in fleet.poll():
                token: _Token = event.handle.token
                spec, attempt = token.spec, token.attempt
                if event.kind == EVENT_OK:
                    finish(_record_success(store, spec, event.payload,
                                           attempt, token.seed))
                    continue
                if event.kind == EVENT_FATAL:
                    raise RuntimeError(
                        f"worker for job {spec.key!r} raised: "
                        f"{event.payload}")
                if event.kind not in (EVENT_ERROR, EVENT_DIED):
                    continue  # heartbeats are a daemon concern
                out = _spec_out(spec)
                if event.kind == EVENT_DIED:
                    error = f"worker died (exit code {event.payload})"
                    resumable = bool(out and Path(out).exists())
                else:
                    error = event.payload
                    resumable = False
                if attempt <= retries:
                    if resumable:
                        # Mid-sim resume: same seed, restore from the
                        # job's last autosave instead of t=0.
                        pending.append((spec, attempt + 1,
                                        token.seed_attempt, True))
                    else:
                        if out:  # stale autosave from the failed seed
                            Path(out).unlink(missing_ok=True)
                        pending.append((spec, attempt + 1, attempt + 1,
                                        False))
                else:
                    finish(_record_failure(store, spec, error, attempt,
                                           token.seed))
    except BaseException:
        # Interrupt / fatal error: reap the fleet; the checkpoint keeps
        # everything that already finished, so the sweep can resume.
        fleet.terminate_all()
        raise


# ---------------------------------------------------------------------------
# Sweep front-ends used by the CLI (and handy for library callers)
# ---------------------------------------------------------------------------

def parallel_fct_sweep(scheme_names: Sequence[str],
                       loads: Sequence[float], *,
                       num_flows: int, workload: str,
                       truncate_mb: float = 0.0, seed: int = 1,
                       jobs: int = 1, retries: int = 0,
                       checkpoint: Optional[PathLike] = None,
                       resume: bool = False,
                       trace: Optional[TraceBus] = None,
                       on_result: Optional[Callable[[JobOutcome], None]]
                       = None,
                       autosave_every_ns: Optional[int] = None,
                       autosave_dir: Optional[PathLike] = None,
                       **kwargs: Any):
    """Figs. 8-9 load sweep across worker processes.

    Returns ``(results, failures)`` where ``results`` has the exact
    shape of :func:`~repro.experiments.testbed.fct_load_sweep` —
    ``{scheme: [FCTResult per load]}`` in declaration order — and
    ``failures`` lists the outcomes of points that exhausted their
    retries (their result slot holds an empty placeholder, so the
    report tables render ``-`` cells instead of crashing).
    """
    specs = []
    for name in scheme_names:
        scheme(name)  # fail fast on unknown schemes, like the serial path
        for load in loads:
            params = {"scheme": name, "load": load, "num_flows": num_flows,
                      "workload": workload, "truncate_mb": truncate_mb,
                      "seed": seed, **kwargs}
            specs.append(JobSpec(
                job_key("fct", params, label=f"{name}@{load:g}"),
                "fct", params, seed=seed))
    outcomes = parallel_map(specs, jobs=jobs, retries=retries,
                            checkpoint=checkpoint, resume=resume,
                            trace=trace, on_result=on_result,
                            autosave_every_ns=autosave_every_ns,
                            autosave_dir=autosave_dir)
    results: Dict[str, List[Any]] = {}
    failures: List[JobOutcome] = []
    cursor = iter(outcomes)
    for name in scheme_names:
        row = []
        for load in loads:
            outcome = next(cursor)
            if outcome.ok:
                row.append(outcome.value)
            else:
                failures.append(outcome)
                row.append(_failed_fct_placeholder(name, load))
        results[name] = row
    return results, failures


def _failed_fct_placeholder(name: str, load: float):
    from .testbed import FCTResult
    collector = FCTCollector()
    return FCTResult(scheme(name).name, load, collector.summary(), 0, 0,
                     collector)


def parallel_incast_runs(scheme_names: Sequence[str], *, jobs: int = 1,
                         retries: int = 0,
                         checkpoint: Optional[PathLike] = None,
                         resume: bool = False,
                         trace: Optional[TraceBus] = None,
                         autosave_every_ns: Optional[int] = None,
                         autosave_dir: Optional[PathLike] = None,
                         **kwargs: Any) -> List[JobOutcome]:
    """One incast run per scheme, fanned across workers (spec order)."""
    specs = []
    for name in scheme_names:
        scheme(name)
        params = {"scheme": name, **kwargs}
        specs.append(JobSpec(job_key("incast", params, label=name),
                             "incast", params))
    return parallel_map(specs, jobs=jobs, retries=retries,
                        checkpoint=checkpoint, resume=resume, trace=trace,
                        autosave_every_ns=autosave_every_ns,
                        autosave_dir=autosave_dir)


def parallel_static_runs(scheme_names: Sequence[str], *, rate: str,
                         jobs: int = 1, retries: int = 0,
                         checkpoint: Optional[PathLike] = None,
                         resume: bool = False,
                         trace: Optional[TraceBus] = None,
                         autosave_every_ns: Optional[int] = None,
                         autosave_dir: Optional[PathLike] = None,
                         **kwargs: Any) -> List[JobOutcome]:
    """One static-sim run per scheme, fanned across workers (spec order)."""
    specs = []
    for name in scheme_names:
        scheme(name)
        params = {"scheme": name, "rate": rate, **kwargs}
        specs.append(JobSpec(job_key("static-sim", params, label=name),
                             "static-sim", params))
    return parallel_map(specs, jobs=jobs, retries=retries,
                        checkpoint=checkpoint, resume=resume, trace=trace,
                        autosave_every_ns=autosave_every_ns,
                        autosave_dir=autosave_dir)
