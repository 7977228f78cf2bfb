"""The ``repro serve`` daemon: protocol, admission, WAL replay, soak.

Three layers, cheapest first: pure-function tests (protocol frames,
backoff), in-process daemon tests (admission control and WAL replay
drive :class:`ServeDaemon` methods directly; request/response tests run
the daemon's event loop on a background thread), and subprocess drills
(SIGTERM through the CLI, and the exactly-once soak: ``--drill`` worker
kills plus a SIGKILL of the daemon itself mid-run, restart, and every
job must finish exactly once with payloads byte-identical to a serial
``parallel_map`` of the same specs).
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.errors import ServeError, SimulationError
from repro.experiments.fleet import (
    EVENT_DIED,
    EVENT_HEARTBEAT,
    EVENT_OK,
    WorkerFleet,
)
from repro.experiments.parallel import (
    JobSpec,
    job_key,
    parallel_map,
)
from repro.experiments.runner import retry_backoff
from repro.serve import JobLog, ServeClient, ServeConfig, ServeDaemon
from repro.serve import daemon as daemon_module
from repro.serve.protocol import decode_frame, encode_frame

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


# -- worker-importable jobs ----------------------------------------------------

def slow_job(*, duration, seed):
    time.sleep(duration)
    return {"m": float(seed)}


def sick_job(*, seed):
    raise SimulationError("sick on every seed")


# -- protocol ------------------------------------------------------------------

def test_frame_roundtrip():
    message = {"op": "submit", "kind": "fct", "params": {"load": 0.3}}
    assert decode_frame(encode_frame(message)) == message


def test_garbage_frames_raise_serve_error():
    with pytest.raises(ServeError):
        decode_frame(b"not json\n")
    with pytest.raises(ServeError):
        decode_frame(b"[1, 2, 3]\n")  # an object is required


# -- retry backoff (satellite: deterministic jitter) ---------------------------

def test_retry_backoff_is_deterministic_and_jittered():
    first = retry_backoff("job-a", 3, base_s=0.1)
    assert first == retry_backoff("job-a", 3, base_s=0.1)
    assert first != retry_backoff("job-b", 3, base_s=0.1)  # jitter by key
    assert retry_backoff("job-a", 1, base_s=0.1) == 0.0  # first try free
    assert retry_backoff("job-a", 2, base_s=0.0) == 0.0  # disabled
    # Exponential envelope with jitter in [0.5, 1.5) of the nominal step.
    assert 0.05 <= retry_backoff("job-a", 2, base_s=0.1) < 0.15
    assert 0.1 <= retry_backoff("job-a", 3, base_s=0.1) < 0.3
    assert retry_backoff("job-a", 50, base_s=0.1) <= 30.0  # capped


# -- admission control (direct, no event loop) ---------------------------------

def _daemon(tmp_path, **overrides):
    defaults = dict(socket_path=str(tmp_path / "serve.sock"),
                    wal=str(tmp_path / "serve.wal.jsonl"))
    defaults.update(overrides)
    return ServeDaemon(ServeConfig(**defaults))


def _submit_request(label, client="anon"):
    return {"op": "submit", "kind": "callable",
            "params": {"target": "json:dumps",
                       "kwargs": {"obj": label}},
            "client": client}


def test_admission_rejects_unknown_kind_and_bad_params(tmp_path):
    daemon = _daemon(tmp_path)
    assert daemon._admit({"kind": "nope", "params": {}})["status"] == "error"
    assert daemon._admit({"kind": "fct", "params": 3})["status"] == "error"
    daemon._wal.close()


def test_admission_dedups_by_parameter_digest(tmp_path):
    daemon = _daemon(tmp_path)
    first = daemon._admit(_submit_request("x", client="alice"))
    again = daemon._admit(_submit_request("x", client="bob"))
    assert first["status"] == again["status"] == "accepted"
    assert first["key"] == again["key"]
    assert again.get("dedup") is True
    assert len(daemon._queue) == 1  # one job, not two
    daemon._wal.close()


def test_per_client_fair_share_limit(tmp_path):
    daemon = _daemon(tmp_path, max_per_client=2)
    assert daemon._admit(_submit_request("a", "carol"))["status"] == "accepted"
    assert daemon._admit(_submit_request("b", "carol"))["status"] == "accepted"
    refused = daemon._admit(_submit_request("c", "carol"))
    assert refused["status"] == "overloaded"
    assert "carol" in refused["reason"]
    # Another client is unaffected: the limit is per client, not global.
    assert daemon._admit(_submit_request("c", "dave"))["status"] == "accepted"
    daemon._wal.close()


def test_lqd_sheds_the_longest_backlog_not_the_submitter(tmp_path):
    daemon = _daemon(tmp_path, max_queue=3)
    for label in ("a1", "a2", "a3"):
        assert (daemon._admit(_submit_request(label, "alice"))["status"]
                == "accepted")
    # Queue full; bob's submit sheds alice's *newest* queued job.
    victim_key = daemon._queue[-1]
    response = daemon._admit(_submit_request("b1", "bob"))
    assert response["status"] == "accepted"
    assert daemon._jobs[victim_key].state == "shed"
    assert victim_key not in daemon._queue
    assert len(daemon._queue) == 3
    # Queue full again and alice *is* the longest backlog: shedding her
    # own oldest work to admit her newest helps nobody -> overloaded.
    refused = daemon._admit(_submit_request("a4", "alice"))
    assert refused["status"] == "overloaded"
    assert "longest backlog" in refused["reason"]
    # A shed job is retriable: resubmitting it goes through admission
    # again instead of replaying the shed verdict.
    daemon._queue.pop()  # make room
    readmit = daemon._admit(_submit_request("a3", "alice"))
    assert readmit["status"] == "accepted" and not readmit["cached"]
    daemon._wal.close()


# -- WAL replay ----------------------------------------------------------------

def test_wal_replay_requeues_unfinished_and_caches_terminal(tmp_path):
    done_params = {"target": "json:dumps", "kwargs": {"obj": "done"}}
    done_key = job_key("callable", done_params)
    pending_params = {"target": "json:dumps", "kwargs": {"obj": 1}}
    pending_key = job_key("callable", pending_params)
    log = JobLog(tmp_path / "serve.wal.jsonl")
    log.accepted(done_key, kind="callable", params=done_params,
                 seed=None, client="a")
    log.finished(done_key, payload='"done"', attempts=1, seed=None,
                 client="a")
    log.accepted(pending_key, kind="callable", params=pending_params,
                 seed=None, client="b")
    log.close()

    daemon = _daemon(tmp_path)
    done = daemon._jobs[done_key]
    assert done.state == "done"
    assert done.entry["payload"] == '"done"'
    pending = daemon._jobs[pending_key]
    assert pending.state == "queued"
    assert daemon._queue == [pending_key]
    # Exactly-once across restarts: resubmitting the finished job's
    # parameters hits the replayed cache instead of re-running.
    response = daemon._admit({"kind": "callable", "params": done_params})
    assert response == {"status": "accepted", "key": done_key,
                        "cached": True}
    daemon._wal.close()


def test_wal_survives_torn_tail(tmp_path):
    wal_path = tmp_path / "serve.wal.jsonl"
    log = JobLog(wal_path)
    log.accepted("k1", kind="callable", params={}, seed=None, client="a")
    log.close()
    with wal_path.open("a") as handle:
        handle.write('{"key": "k2", "status": "acce')  # SIGKILL mid-write
    reopened = JobLog(wal_path)
    unfinished, terminal = reopened.replay()
    reopened.close()
    assert set(unfinished) == {"k1"} and terminal == {}


# -- fleet heartbeats and eviction ---------------------------------------------

def _drain_fleet(fleet, *, until, deadline_s=30.0):
    events = []
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        events.extend(fleet.poll(0.25))
        if any(event.kind == until for event in events):
            return events
    raise AssertionError(f"no {until!r} event within {deadline_s}s: "
                         f"{[e.kind for e in events]}")


def test_workers_heartbeat_while_running():
    fleet = WorkerFleet(heartbeat_every_s=0.05)
    handle = fleet.launch("callable",
                          {"target": "test_serve:slow_job",
                           "kwargs": {"duration": 0.5, "seed": 1}})
    events = _drain_fleet(fleet, until=EVENT_OK)
    beats = [event for event in events
             if event.kind == EVENT_HEARTBEAT]
    assert len(beats) >= 2
    assert all(event.handle is handle for event in events)
    assert len(fleet) == 0  # the terminal event reaped the worker


def test_evicted_worker_surfaces_as_died():
    fleet = WorkerFleet()
    handle = fleet.launch("callable",
                          {"target": "test_serve:slow_job",
                           "kwargs": {"duration": 60.0, "seed": 1}})
    fleet.evict(handle)
    events = _drain_fleet(fleet, until=EVENT_DIED)
    (died,) = [event for event in events if event.kind == EVENT_DIED]
    assert died.handle is handle
    assert died.payload == -signal.SIGKILL
    assert len(fleet) == 0


def test_wake_ends_a_poll_of_an_empty_fleet():
    fleet = WorkerFleet()
    box = {}
    poller = threading.Thread(
        target=lambda: box.update(events=fleet.poll(30.0)), daemon=True)
    poller.start()
    time.sleep(0.1)
    assert poller.is_alive()  # nothing to report: still waiting
    fleet.wake()
    poller.join(10.0)
    assert not poller.is_alive() and box["events"] == []


# -- live daemon on a background thread ----------------------------------------

@contextmanager
def running_daemon(tmp_path, **overrides):
    daemon = _daemon(tmp_path, **overrides)
    box = {}

    def run():
        loop = asyncio.new_event_loop()
        box["loop"] = loop
        try:
            box["code"] = loop.run_until_complete(daemon.run())
        finally:
            loop.close()

    thread = threading.Thread(target=run)
    thread.start()
    sock = Path(daemon.config.socket_path)
    deadline = time.monotonic() + 15.0
    while not sock.exists():
        assert thread.is_alive() and time.monotonic() < deadline, \
            "daemon never opened its socket"
        time.sleep(0.02)
    try:
        yield daemon, box
    finally:
        if thread.is_alive():
            try:
                box["loop"].call_soon_threadsafe(daemon._begin_drain,
                                                 "TEST")
            except RuntimeError:
                pass  # loop already shut down between the checks
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def test_submit_wait_runs_job_and_serves_cached_result(tmp_path):
    with running_daemon(tmp_path) as (daemon, box):
        client = ServeClient(daemon.config.socket_path)
        params = {"target": "json:dumps", "kwargs": {"obj": [1, 2]}}
        response = client.submit("callable", params, client="alice",
                                 wait=True)
        assert response["status"] == "ok"
        assert response["payload"] == "[1, 2]"
        assert response["attempts"] == 1
        # Resubmission never re-runs: the digest hits the cache.
        again = client.submit("callable", params, client="bob")
        assert again == {"status": "accepted", "key": response["key"],
                         "cached": True}
        assert client.result(response["key"])["payload"] == "[1, 2]"
        listed = client.jobs()["jobs"]
        assert [job["state"] for job in listed] == ["done"]
    assert box["code"] == 0


def test_idle_daemon_launches_and_drains_without_a_tick(tmp_path,
                                                       monkeypatch):
    # With the tick stretched past every deadline below, only the wake
    # channel can start the job and end the idle daemon.
    monkeypatch.setattr(daemon_module, "POLL_S", 120.0)
    with running_daemon(tmp_path) as (daemon, box):
        time.sleep(0.3)  # the scheduler is parked in its first poll
        client = ServeClient(daemon.config.socket_path)
        key = client.submit("callable", {"target": "json:dumps",
                                         "kwargs": {"obj": 7}})["key"]
        deadline = time.monotonic() + 20.0
        while client.result(key)["status"] != "ok":
            assert time.monotonic() < deadline, "submit waited for a tick"
            time.sleep(0.02)
        began = time.monotonic()
    assert box["code"] == 0
    assert time.monotonic() - began < 20.0, "drain waited for a tick"


def test_simulation_errors_reseed_then_fail_with_budget(tmp_path):
    with running_daemon(tmp_path, retries=2, backoff_s=0.01) as (daemon, _):
        client = ServeClient(daemon.config.socket_path)
        response = client.submit(
            "callable",
            {"target": "test_serve:sick_job", "kwargs": {"seed": 1}},
            wait=True)
        assert response["status"] == "error"
        assert response["attempts"] == 3  # 1 try + 2 reseeded retries
        assert "sick" in response["error"]


def test_draining_daemon_refuses_new_work(tmp_path):
    # An idle draining daemon exits within one poll tick, so park a slow
    # job in the fleet to hold the socket open while we probe admission.
    with running_daemon(tmp_path, drain_timeout_s=30.0) as (daemon, box):
        client = ServeClient(daemon.config.socket_path)
        accepted = client.submit(
            "callable", {"target": "test_serve:slow_job",
                         "kwargs": {"duration": 4.0, "seed": 1}})
        assert accepted["status"] == "accepted"
        deadline = time.monotonic() + 15.0
        while client.status()["running"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        box["loop"].call_soon_threadsafe(daemon._begin_drain, "TEST")
        while not daemon._draining:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        response = client.submit("callable",
                                 {"target": "json:dumps",
                                  "kwargs": {"obj": 1}})
        assert response["status"] == "draining"
    # The drain let the in-flight job finish, then exited cleanly.
    assert box["code"] == 0
    assert not Path(daemon.config.socket_path).exists()
    assert daemon._jobs[accepted["key"]].state == "done"


# -- CLI: SIGTERM takes the clean interrupt path (satellite) -------------------

def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def test_sigterm_interrupts_cli_like_ctrl_c(tmp_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "fct", "--schemes", "dynaq",
         "--loads", "0.3", "--flows", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=tmp_path, env=_cli_env())
    time.sleep(1.5)  # let it get into the simulation
    process.send_signal(signal.SIGTERM)
    output, _ = process.communicate(timeout=60)
    assert process.returncode == 2, output
    assert "interrupted" in output


# -- the soak: drill kills + daemon SIGKILL, exactly once, identical bytes -----

SOAK_GRID = [{"scheme": scheme, "load": 0.3, "num_flows": 25,
              "workload": "web_search", "truncate_mb": 1.0, "seed": 1}
             for scheme in ("dynaq", "besteffort", "pql")] + \
            [{"scheme": scheme, "load": 0.5, "num_flows": 25,
              "workload": "web_search", "truncate_mb": 1.0, "seed": 1}
             for scheme in ("dynaq", "besteffort", "pql")]


def _start_soak_daemon(sock, wal, cwd):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
         "--wal", str(wal), "--jobs", "2", "--retries", "8",
         "--snapshot-every", "0.01", "--backoff", "0.02",
         "--drill", "--drill-interval", "0.3", "--drill-seed", "5",
         "--quiet"],
        cwd=cwd, env=_cli_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def test_soak_exactly_once_and_byte_identical_to_serial(tmp_path):
    sock = tmp_path / "serve.sock"
    wal = tmp_path / "serve.wal.jsonl"
    daemon = _start_soak_daemon(sock, wal, tmp_path)
    second = None
    try:
        deadline = time.monotonic() + 15.0
        while not sock.exists():
            assert daemon.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        client = ServeClient(str(sock))
        keys = []
        for params in SOAK_GRID:
            response = client.submit("fct", params, seed=1, client="soak")
            assert response["status"] == "accepted", response
            keys.append(response["key"])

        # Mid-run, while drill kills are already flying, SIGKILL the
        # daemon itself: no drain, no goodbye, exactly what the WAL is
        # for.
        time.sleep(1.0)
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=10)

        second = _start_soak_daemon(sock, wal, tmp_path)
        outcomes = {}
        deadline = time.monotonic() + 300.0
        while len(outcomes) < len(keys):
            assert second.poll() is None, "restarted daemon died"
            assert time.monotonic() < deadline, \
                f"jobs unfinished: {len(outcomes)}/{len(keys)}"
            for key in keys:
                if key in outcomes:
                    continue
                try:
                    response = client.result(key)
                except ServeError:
                    break  # restart still booting; the file is stale
                if response["status"] in ("ok", "error", "shed"):
                    outcomes[key] = response
            time.sleep(0.25)
        assert all(outcome["status"] == "ok"
                   for outcome in outcomes.values()), outcomes

        # Exactly once: across both incarnations the WAL holds exactly
        # one terminal entry per job, every one of them successful.
        terminal = {}
        for line in wal.read_text().splitlines():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from the SIGKILL
            if entry.get("status") in ("ok", "error", "shed"):
                terminal.setdefault(entry["key"], []).append(
                    entry["status"])
        assert {key: statuses for key, statuses in terminal.items()} \
            == {key: ["ok"] for key in keys}

        # Byte identity: the payloads the daemon computed under drill
        # kills, migration, and its own SIGKILL+restart equal a serial
        # parallel_map of the same specs.  Both sides store the encoded
        # job payload (WAL here, checkpoint there), so compare those in
        # canonical JSON.
        specs = [JobSpec(job_key("fct", params), "fct", params, seed=1)
                 for params in SOAK_GRID]
        ckpt = tmp_path / "serial.ckpt.jsonl"
        serial = parallel_map(specs, jobs=1, checkpoint=ckpt)
        assert all(outcome.ok for outcome in serial)
        reference = {}
        for line in ckpt.read_text().splitlines():
            entry = json.loads(line)
            if entry.get("status") == "ok":
                reference[entry["key"]] = entry["payload"]
        for spec in specs:
            served = outcomes[spec.key]["payload"]
            assert (json.dumps(served, sort_keys=True)
                    == json.dumps(reference[spec.key], sort_keys=True)), \
                spec.key
    finally:
        for process in (daemon, second):
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()
