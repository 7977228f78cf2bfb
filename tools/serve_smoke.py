#!/usr/bin/env python
"""Smoke-test the ``repro serve`` daemon end to end.

Drives the real CLI as subprocesses, the way an operator would:

1. start a daemon with ``--drill`` (a random live worker is SIGKILLed
   on a cadence) and mid-sim autosaves on;
2. submit one no-op probe job that answers whether its worker was
   forked from a preloaded server (required wherever the platform has
   ``forkserver``) and report its turnaround (informational);
3. submit a small fct grid through the unix socket;
4. wait for every job to finish despite the drill kills;
5. SIGTERM the daemon and require a clean drain: exit code 0 within
   the deadline, socket removed, trace file schema-valid.

Artifacts (daemon log, WAL, trace) are written to ``--workdir`` and
kept on failure so CI can upload them as a triage bundle.  Exit code:
0 pass, 1 fail.  Used by ``make serve-smoke`` and the ``serve-smoke``
CI job; the heavier exactly-once/byte-identity drills live in
``tests/test_serve.py``.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from multiprocessing import get_all_start_methods
from pathlib import Path

from repro.serve import STATUS_OK, ServeClient, TERMINAL_STATUSES
from repro.telemetry import validate_trace_file

GRID = [{"scheme": scheme, "load": load, "num_flows": 30,
         "workload": "web_search", "truncate_mb": 1.0, "seed": 1}
        for scheme in ("dynaq", "besteffort") for load in (0.3, 0.5)]

PROBE = {"target": "repro.experiments.fleet:preloaded", "kwargs": {}}


def fail(message, log_path=None):
    print(f"serve-smoke: FAIL: {message}")
    if log_path and Path(log_path).exists():
        print(f"--- daemon log ({log_path}) ---")
        sys.stdout.write(Path(log_path).read_text())
    return 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", default="serve-smoke-artifacts",
                        help="artifact directory (kept on failure)")
    parser.add_argument("--timeout", type=float, default=240.0,
                        help="overall deadline for the job grid")
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    sock = work / "serve.sock"
    wal = work / "serve.wal.jsonl"
    trace = work / "serve.trace.jsonl"
    log = work / "daemon.log"
    for path in (sock, wal, trace, log):
        path.unlink(missing_ok=True)
    for stale in (work / (wal.name + ".autosaves")).glob("*.snap"):
        stale.unlink()

    daemon_cmd = [
        sys.executable, "-m", "repro", "serve",
        "--socket", str(sock), "--wal", str(wal),
        "--jobs", "2", "--retries", "8",
        "--snapshot-every", "0.01",
        "--drill", "--drill-interval", "0.4", "--drill-seed", "7",
        "--heartbeat", "0.2", "--heartbeat-timeout", "10",
        "--backoff", "0.05", "--drain-timeout", "20",
        "--trace-out", str(trace),
    ]
    print("serve-smoke: starting daemon:", " ".join(daemon_cmd))
    with log.open("w") as log_handle:
        daemon = subprocess.Popen(daemon_cmd, stdout=log_handle,
                                  stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + 15.0
        while not sock.exists():
            if daemon.poll() is not None or time.monotonic() > deadline:
                return fail("daemon never opened its socket", log)
            time.sleep(0.1)

        client = ServeClient(str(sock))
        began = time.monotonic()
        probe = client.submit("callable", PROBE, client="smoke", wait=True)
        turnaround_ms = (time.monotonic() - began) * 1e3
        if probe.get("status") != STATUS_OK:
            return fail(f"probe job did not succeed: {probe}", log)
        print(f"serve-smoke: no-op turnaround {turnaround_ms:.0f} ms "
              f"(attempts={probe.get('attempts')}, "
              f"preloaded={probe['payload']})")
        if ("forkserver" in get_all_start_methods()
                and probe["payload"] is not True):
            return fail("the worker was not forked from a preloaded "
                        "server: every job pays an import", log)

        keys = []
        for params in GRID:
            response = client.submit("fct", params, seed=1,
                                     client="smoke")
            if response.get("status") != "accepted":
                return fail(f"submit refused: {response}", log)
            keys.append(response["key"])
        print(f"serve-smoke: submitted {len(keys)} fct jobs")

        outcomes = {}
        deadline = time.monotonic() + args.timeout
        while len(outcomes) < len(keys):
            if daemon.poll() is not None:
                return fail("daemon died mid-run", log)
            if time.monotonic() > deadline:
                return fail(f"jobs not finished after {args.timeout}s "
                            f"({len(outcomes)}/{len(keys)})", log)
            for key in keys:
                if key in outcomes:
                    continue
                response = client.result(key)
                if response.get("status") in TERMINAL_STATUSES:
                    outcomes[key] = response
                    print(f"serve-smoke: {key} -> "
                          f"{response['status']}"
                          f"[{response.get('attempts')}]")
            time.sleep(0.5)

        bad = [key for key, response in outcomes.items()
               if response.get("status") != STATUS_OK]
        if bad:
            return fail(f"jobs did not succeed: {bad}", log)

        log_text = log.read_text()
        if "drill" not in log_text:
            return fail("the drill never killed a worker; the smoke "
                        "proved nothing", log)
        migrations = log_text.count("migrated[") + log_text.count(
            "retried[")
        print(f"serve-smoke: drill kills survived, "
              f"{migrations} relaunch(es)")

        print("serve-smoke: SIGTERM, expecting a clean drain")
        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            return fail("daemon did not drain within 30s", log)
        if code != 0:
            return fail(f"drain exited {code}, want 0", log)
        if sock.exists():
            return fail("socket not removed after drain", log)

        count, errors = validate_trace_file(trace)
        if errors:
            return fail(f"trace schema errors: {errors[:3]}", log)
        print(f"serve-smoke: trace valid ({count} records)")
        print("serve-smoke: PASS")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    sys.exit(main())
