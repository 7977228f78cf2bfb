"""Parallel sweep executor: determinism, crash isolation, resume.

The experiments at module scope exist so worker processes can
re-import them by ``"test_parallel:<name>"`` — the executor rejects
lambdas and closures for exactly that reason.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import fleet as fleet_module
from repro.experiments.fleet import EVENT_DIED, EVENT_OK, WorkerFleet
from repro.experiments.parallel import (
    JOB_KINDS,
    JobSpec,
    SweepCheckpoint,
    callable_target,
    job_key,
    parallel_map,
    parallel_fct_sweep,
    resolve_target,
)
from repro.experiments.runner import reseed
from repro.experiments.sweeps import run_sweep, sweep_table
from repro.metrics.export import write_sweep_csv
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.trace import TOPIC_PARALLEL_JOB, TraceBus

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


# -- worker-importable experiments --------------------------------------------

def quadratic(*, x, seed):
    return {"m": float(x * x + seed), "sparse": None}


def flaky_below_reseed(*, x, seed):
    # Fails on any first-attempt seed (< 7919), passes once reseeded.
    if seed < 7919:
        raise SimulationError(f"flaky at seed {seed}")
    return {"m": float(x + seed)}


def always_fails(*, x, seed):
    raise SimulationError("broken point")


def fails_on_even_seed(*, x, seed):
    if seed % 2 == 0:
        raise SimulationError("even seed")
    return {"m": float(x + seed)}


def hard_crash(*, x, seed):
    os._exit(3)


def lingers(*, x, seed):
    # Returns, but leaves a non-daemon thread that keeps the process up.
    threading.Thread(target=time.sleep, args=(3600,)).start()
    return {"m": float(x)}


def mutate_state(*, x, seed):
    from repro.perf.config import REFERENCE, set_config
    set_config(REFERENCE)
    fleet_module.REAP_GRACE_S = 99.0
    os.environ["REPRO_TEST_LEAK"] = "1"
    return observe_state(x=x, seed=seed)


def observe_state(*, x, seed):
    from repro.perf.config import FAST, active_config
    return {"fast": active_config() is FAST,
            "grace": fleet_module.REAP_GRACE_S,
            "env": os.environ.get("REPRO_TEST_LEAK")}


def crash_43(*, x, seed):
    os._exit(43)


def sleeps(*, x, seed):
    time.sleep(x)


def scaled(*, x, w, seed):
    return {"m": float(x * w + seed), "sparse": None}


def logging_square(*, x, seed, log):
    # Appends one line per execution so tests can count real runs
    # across process boundaries.
    with open(log, "a") as handle:
        handle.write(f"{x}-{seed}\n")
    return {"m": float(x * x)}


def _log_lines(path):
    return open(path).read().splitlines() if os.path.exists(path) else []


def _spec(fn, *, label, x, seed=1, **extra):
    kwargs = {"x": x, "seed": seed, **extra}
    params = {"target": callable_target(fn), "kwargs": kwargs}
    return JobSpec(job_key("callable", params, label=label), "callable",
                   params, seed=seed, seed_path=("kwargs", "seed"))


# -- job identity --------------------------------------------------------------

def test_job_key_stable_and_param_sensitive():
    key = job_key("fct", {"scheme": "dynaq", "load": 0.3})
    assert key == job_key("fct", {"load": 0.3, "scheme": "dynaq"})
    assert key != job_key("fct", {"scheme": "dynaq", "load": 0.5})
    assert job_key("fct", {}, label="a").startswith("a:fct:")


def test_job_key_rejects_unjsonable_params():
    with pytest.raises(ConfigurationError):
        job_key("callable", {"fn": object()})


def test_callable_target_roundtrip():
    target = callable_target(quadratic)
    assert target == "test_parallel:quadratic"
    assert resolve_target(target) is quadratic


def test_callable_target_rejects_lambdas_and_closures():
    with pytest.raises(ConfigurationError):
        callable_target(lambda *, x, seed: {})

    def local(*, x, seed):
        return {}

    with pytest.raises(ConfigurationError):
        callable_target(local)


# -- executor semantics ---------------------------------------------------------

def test_outcomes_come_back_in_spec_order():
    specs = [_spec(quadratic, label=f"p{x}", x=x) for x in (5, 2, 9)]
    outcomes = parallel_map(specs, jobs=2)
    assert [o.key for o in outcomes] == [s.key for s in specs]
    assert [o.value["m"] for o in outcomes] == [26.0, 5.0, 82.0]
    assert all(o.ok and o.attempts == 1 and not o.cached
               for o in outcomes)


def test_serial_and_parallel_outcomes_are_identical():
    specs = [_spec(quadratic, label=f"p{x}", x=x) for x in (1, 2, 3)]
    serial = parallel_map(specs, jobs=1)
    fanned = parallel_map(specs, jobs=2)
    assert serial == fanned


def test_retry_uses_the_deterministic_reseed_sequence():
    specs = [_spec(flaky_below_reseed, label="f", x=3)]
    (outcome,) = parallel_map(specs, jobs=1, retries=1)
    assert outcome.ok
    assert outcome.attempts == 2
    assert outcome.seed == reseed(1, 2)
    assert outcome.value["m"] == float(3 + reseed(1, 2))


def test_exhausted_retries_record_a_failure_instead_of_raising():
    specs = [_spec(always_fails, label="bad", x=1),
             _spec(quadratic, label="good", x=4)]
    bad, good = parallel_map(specs, jobs=2, retries=1)
    assert not bad.ok
    assert bad.error == "broken point"
    assert bad.attempts == 2
    assert bad.value is None
    assert good.ok and good.value["m"] == 17.0


def test_worker_death_is_isolated_and_reported():
    specs = [_spec(hard_crash, label="crash", x=1),
             _spec(quadratic, label="ok", x=6)]
    crashed, survived = parallel_map(specs, jobs=2)
    assert not crashed.ok
    assert "worker died" in crashed.error
    assert "3" in crashed.error
    assert survived.ok and survived.value["m"] == 37.0


def _terminal(fleet, deadline_s=30.0):
    """The fleet's next terminal event."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        for event in fleet.poll(0.25):
            if event.kind != "hb":
                return event
    raise AssertionError(f"no terminal event within {deadline_s}s")


def _launch(fleet, fn, x=1):
    return fleet.launch("callable", _spec(fn, label="t", x=x).params)


def test_lingering_worker_is_reaped_and_its_result_counts(monkeypatch):
    # A worker that delivered its result but never exits used to hang
    # poll() in an unbounded join; run the sweep on a thread so the
    # regression is a failure, not a stuck suite.
    monkeypatch.setattr(fleet_module, "REAP_GRACE_S", 0.2)
    box = {}
    specs = [_spec(lingers, label="linger", x=3),
             _spec(quadratic, label="ok", x=2)]
    sweep = threading.Thread(
        target=lambda: box.update(out=parallel_map(specs, jobs=2)),
        daemon=True)
    sweep.start()
    sweep.join(30.0)
    assert not sweep.is_alive(), "parallel_map hung on a lingering worker"
    assert [outcome.value for outcome in box["out"]] == [
        {"m": 3.0}, {"m": 5.0, "sparse": None}]

    fleet = WorkerFleet()
    handle = _launch(fleet, lingers)
    event = _terminal(fleet)
    assert (event.kind, event.payload) == (EVENT_OK, {"m": 1.0})
    assert len(fleet) == 0
    assert handle.process.exitcode == -signal.SIGKILL  # gone, by force


def test_attempts_share_no_state_and_deaths_keep_their_exit_codes():
    # Every attempt is forked from the server's import-time state, so
    # what one job does to a module global, the active PerfConfig or
    # the environment is invisible to the next job on the same fleet.
    fleet = WorkerFleet()
    _launch(fleet, mutate_state)
    mutated = _terminal(fleet).payload
    assert mutated == {"fast": False, "grace": 99.0, "env": "1"}
    _launch(fleet, observe_state)
    assert _terminal(fleet).payload == {
        "fast": True, "grace": fleet_module.REAP_GRACE_S, "env": None}
    # ...and is still a process of its own: a crash and an eviction
    # surface as ``died`` with the exit code the kernel reported.
    _launch(fleet, crash_43)
    crashed = _terminal(fleet)
    assert (crashed.kind, crashed.payload) == (EVENT_DIED, 43)
    handle = _launch(fleet, sleeps, x=60)
    fleet.evict(handle)
    killed = _terminal(fleet)
    assert (killed.kind, killed.payload) == (EVENT_DIED, -signal.SIGKILL)
    assert len(fleet) == 0


PRELOAD_PROBE = {"target": "repro.experiments.fleet:preloaded",
                 "kwargs": {}}

_PROBE_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments.parallel import JobSpec, parallel_map
probe = {probe!r}
outcomes = parallel_map([JobSpec(name, "callable", probe)
                         for name in "ab"], jobs=2)
print([outcome.value for outcome in outcomes])
"""


@pytest.mark.skipif("forkserver" not in fleet_module.get_all_start_methods(),
                    reason="platform has no forkserver")
@pytest.mark.parametrize("pythonpath", [None, REPO_SRC])
def test_workers_are_forked_from_a_preloaded_server(tmp_path, pythonpath):
    # By a count, not a clock: a worker forked from a server that had
    # already imported the package did not import it itself.  The
    # server gets neither a cwd nor (first case) a PYTHONPATH that
    # leads to the package; 3.11's forkserver ignores sys_path.
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    if pythonpath:
        env["PYTHONPATH"] = pythonpath
    script = _PROBE_SCRIPT.format(src=REPO_SRC, probe=PRELOAD_PROBE)
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[True, True]"


def test_jobs_still_run_where_there_is_no_forkserver(monkeypatch):
    monkeypatch.setattr(fleet_module, "get_all_start_methods",
                        lambda: ["spawn"])
    outcomes = parallel_map([JobSpec("probe", "callable", PRELOAD_PROBE),
                             _spec(quadratic, label="ok", x=2)], jobs=2)
    assert [outcome.value for outcome in outcomes] == [
        False, {"m": 5.0, "sparse": None}]


def test_bad_arguments_rejected():
    with pytest.raises(ConfigurationError):
        parallel_map([], jobs=0)
    with pytest.raises(ConfigurationError):
        parallel_map([], retries=-1)
    spec = _spec(quadratic, label="p", x=1)
    with pytest.raises(ConfigurationError):
        parallel_map([spec, spec], jobs=1)
    with pytest.raises(ConfigurationError):
        parallel_map([spec._replace(kind="nope")], jobs=1)


# -- checkpoint / resume --------------------------------------------------------

def test_resume_replays_completed_points(tmp_path):
    log = tmp_path / "runs.log"
    path = tmp_path / "sweep.jsonl"
    specs = [_spec(logging_square, label=f"p{x}", x=x, log=str(log))
             for x in (2, 3)]

    first = parallel_map(specs, jobs=1, checkpoint=path)
    assert len(_log_lines(log)) == 2

    second = parallel_map(specs, jobs=1, checkpoint=path, resume=True)
    assert len(_log_lines(log)) == 2  # nothing re-ran
    assert all(o.cached for o in second)
    assert [o.value for o in second] == [o.value for o in first]


def test_interrupted_sweep_resumes_to_identical_outcomes(tmp_path):
    def specs_logging_to(log):
        return [_spec(logging_square, label=f"p{x}", x=x, log=str(log))
                for x in (1, 2, 3, 4)]

    reference = parallel_map(specs_logging_to(tmp_path / "ref.log"),
                             jobs=1)

    log = tmp_path / "runs.log"
    path = tmp_path / "sweep.jsonl"
    specs = specs_logging_to(log)
    seen = []

    def interrupt_after_two(outcome):
        seen.append(outcome)
        if len(seen) == 2:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        parallel_map(specs, jobs=1, checkpoint=path,
                     on_result=interrupt_after_two)
    assert len(_log_lines(log)) == 2

    resumed = parallel_map(specs, jobs=1, checkpoint=path, resume=True)
    lines = _log_lines(log)
    assert len(lines) == len(specs)        # every job ran exactly once
    assert len(set(lines)) == len(specs)   # ... and no job ran twice
    assert [o.cached for o in resumed] == [True, True, False, False]
    assert ([(o.value, o.error, o.attempts) for o in resumed]
            == [(o.value, o.error, o.attempts) for o in reference])


def test_failed_entries_rerun_on_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    spec = _spec(always_fails, label="bad", x=1)
    (first,) = parallel_map([spec], jobs=1, checkpoint=path)
    assert not first.ok

    good = _spec(quadratic, label="bad", x=1)._replace(key=spec.key)
    (second,) = parallel_map([good], jobs=1, checkpoint=path,
                             resume=True)
    assert second.ok and not second.cached  # failure was not replayed


def test_torn_checkpoint_tail_is_ignored(tmp_path):
    path = tmp_path / "sweep.jsonl"
    entry = {"key": "k1", "status": "ok", "attempts": 1, "seed": 1,
             "payload": {"m": 1.0}}
    path.write_text(json.dumps(entry) + "\n" + '{"key": "k2", "sta')
    store = SweepCheckpoint(path, resume=True)
    assert len(store) == 1
    assert store.completed("k1")["payload"] == {"m": 1.0}
    assert store.completed("k2") is None


def test_trace_reports_job_lifecycle(tmp_path):
    path = tmp_path / "sweep.jsonl"
    trace = TraceBus()
    events = []
    trace.subscribe(TOPIC_PARALLEL_JOB,
                    lambda **payload: events.append(payload))
    specs = [_spec(quadratic, label="p1", x=1)]
    parallel_map(specs, jobs=1, checkpoint=path, trace=trace)
    # Terminal events carry the attempt count ("done[1]" = first try).
    assert [e["detail"].split()[0] for e in events] == ["start", "done[1]"]
    assert all(isinstance(e["time"], int) for e in events)

    events.clear()
    parallel_map(specs, jobs=1, checkpoint=path, resume=True,
                 trace=trace)
    assert [e["detail"].split()[0] for e in events] == ["cached"]


# -- run_sweep integration ------------------------------------------------------

def test_run_sweep_parallel_matches_serial_bytes(tmp_path):
    grid = {"x": [1, 2], "w": [10]}
    serial = run_sweep(scaled, grid, seeds=[1, 2])
    fanned = run_sweep(scaled, grid, seeds=[1, 2], jobs=2,
                       checkpoint=tmp_path / "ck.jsonl")
    assert serial == fanned
    assert (sweep_table(serial, metric="m", title="T")
            == sweep_table(fanned, metric="m", title="T"))
    write_sweep_csv(tmp_path / "serial.csv", serial)
    write_sweep_csv(tmp_path / "fanned.csv", fanned)
    assert ((tmp_path / "serial.csv").read_bytes()
            == (tmp_path / "fanned.csv").read_bytes())


def test_run_sweep_tolerates_failing_seeds():
    records = run_sweep(fails_on_even_seed, {"x": [1]}, seeds=[1, 2, 3])
    (record,) = records
    assert record["failures"] == 1
    assert record["metrics"]["m"].count == 2


def test_run_sweep_rejects_lambda_when_parallel():
    with pytest.raises(ConfigurationError):
        run_sweep(lambda *, x, seed: {"m": x}, {"x": [1]}, jobs=2)


# -- fct front-end (one real simulation pair) -----------------------------------

def test_parallel_fct_sweep_matches_serial(tmp_path):
    from repro.experiments.testbed import fct_load_sweep
    from repro.workloads.datasets import workload

    distribution = workload("web_search").truncated(12_000_000)
    serial = fct_load_sweep(["dynaq"], [0.3], num_flows=30,
                            distribution=distribution, seed=1)
    fanned, failures = parallel_fct_sweep(
        ["dynaq"], [0.3], num_flows=30, workload="web_search",
        truncate_mb=12.0, seed=1, jobs=2,
        checkpoint=tmp_path / "fct.jsonl")
    assert failures == []
    a, b = serial["dynaq"][0], fanned["dynaq"][0]
    assert a.summary == b.summary
    assert a.collector.records == b.collector.records
    assert (a.scheme, a.load, a.completed, a.outstanding) \
        == (b.scheme, b.load, b.completed, b.outstanding)
