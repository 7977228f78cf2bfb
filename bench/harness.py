"""The parent side of ``once``: spawn repetitions, reduce them to metrics.

This module never imports ``repro``: the parent stays small (its RSS
must not leak into a child's high-water mark through ``vfork``) and all
simulation happens in fresh children, each leading its own session so
that a timeout kills the child and everything it spawned.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from .estimate import quartiles, quietest

ROOT = Path(__file__).resolve().parent.parent
#: Scratch directory, relative to ROOT (every child runs with cwd=ROOT).
OUT = Path("bench") / "out"

WORKLOADS = ("fct_star", "port_replay", "fct_observed", "sweep_grid")

MIN_REPS = 8
#: Set-up is sampled by every measured child; a workload whose
#: repetitions are long and few gets the rest from children that stop
#: once they are set up.
MIN_SETUPS = 24
CHILD_TIMEOUT_S = 120.0

#: End-to-end metrics: name -> (unit, better, statistic over the
#: repetitions of one run, regression bound as a share of the base).
END_TO_END = {
    "pkts_per_s": ("1/s", "higher",
                   "packets / sum of per-segment minima", 0.10),
    "setup_s": ("s", "lower", "sum of per-stage minima", 0.25),
    "peak_rss_mb": ("MB", "lower", "median", 0.10),
}
SETUP_STAGES = ("boot_s", "import_s", "build_s")
STAGES = SETUP_STAGES + ("simulate_s", "finish_s", "verify_s")


class ChildError(RuntimeError):
    """A child crashed, timed out or wrote no result."""


def child_env() -> Dict[str, str]:
    """The default configuration: no REPRO_* overrides, fixed hashing."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = "src"
    return env


class Fleet:
    """The children of one invocation; kills whatever is left on exit."""

    def __init__(self) -> None:
        self._live: Dict[int, subprocess.Popen] = {}
        self._lock = threading.Lock()

    def spawn(self, workload: str, seed: int, scale: float, mode: str,
              tag: str, cpu: int = -1,
              perf_off: Optional[str] = None) -> "Child":
        return Child(self, workload, seed, scale, mode, tag, cpu, perf_off)

    def add(self, process: subprocess.Popen) -> None:
        with self._lock:
            self._live[process.pid] = process

    def discard(self, process: subprocess.Popen) -> None:
        with self._lock:
            self._live.pop(process.pid, None)

    def kill_all(self) -> None:
        with self._lock:
            live = list(self._live.values())
            self._live.clear()
        for process in live:
            kill_group(process)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill_all()


def kill_group(process: subprocess.Popen) -> None:
    """SIGKILL the child's whole session (daemon and workers included)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


class Child:
    """One ``bench.child`` process."""

    def __init__(self, fleet: Fleet, workload: str, seed: int,
                 scale: float, mode: str, tag: str, cpu: int,
                 perf_off: Optional[str] = None) -> None:
        self.fleet = fleet
        self.name = f"{workload}.{tag}"
        self.result_path = ROOT / OUT / f"{self.name}.result.json"
        self.log_path = ROOT / OUT / f"{self.name}.log"
        self.result_path.parent.mkdir(parents=True, exist_ok=True)
        self.result_path.unlink(missing_ok=True)
        self.started = perf_counter()
        with self.log_path.open("wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "bench.child",
                 "--workload", workload, "--seed", str(seed),
                 "--scale", repr(scale), "--mode", mode,
                 "--out", str(OUT / self.name),
                 "--result", str(OUT / f"{self.name}.result.json"),
                 "--cpu", str(cpu),
                 "--spawned-at", repr(self.started)]
                + (["--perf-off", perf_off] if perf_off else []),
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        fleet.add(self.process)

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
        try:
            code = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill_group(self.process)
            raise ChildError(f"{self.name}: killed after {timeout:.0f}s")
        finally:
            self.fleet.discard(self.process)
        self.wall_s = perf_counter() - self.started
        # Whatever the child left running in its session dies with it.
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if code != 0 or not self.result_path.exists():
            tail = self.log_path.read_text(errors="replace")[-800:]
            raise ChildError(f"{self.name}: exit code {code}\n{tail}")
        return json.loads(self.result_path.read_text())


class Schedule:
    """Decides, across lanes, whether one more child may start."""

    def __init__(self, deadline: float, expected_s: float) -> None:
        self.deadline = deadline
        self.expected_s = expected_s
        self.started = 0
        self.setups = 0
        self._lock = threading.Lock()

    def claim(self) -> Optional[int]:
        """The next repetition's number, or ``None`` when time is up."""
        with self._lock:
            if (self.started >= MIN_REPS
                    and perf_counter() + self.expected_s > self.deadline):
                return None
            self.started += 1
            return self.started

    def claim_setup(self) -> Optional[int]:
        """The next set-up-only child's number, or ``None`` when the
        repetitions and these make ``MIN_SETUPS`` samples."""
        with self._lock:
            if self.started + self.setups >= MIN_SETUPS:
                return None
            self.setups += 1
            return self.setups

    def observe(self, wall_s: float) -> None:
        with self._lock:
            self.expected_s = max(self.expected_s, wall_s)


def lane_cpus() -> List[int]:
    """CPU per lane: up to two lanes, each confined to one core.

    A child pins itself and everything it spawns inherits the mask, so
    one lane's speed depends on one core's state only.  For sweep_grid
    this means a pool's two workers time-share the lane's core: its
    number is the CPU cost of the job path, not a parallel speed-up.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:2] if len(cpus) >= 2 else [-1]


def run_lanes(fleet: Fleet, workload: str, seed: int, scale: float,
              schedule: Schedule, reps: List[Dict[str, Any]],
              setups: List[Dict[str, Any]], errors: List[str],
              perf_off: Optional[str] = None) -> None:
    def lane(cpu: int) -> None:
        try:
            while True:
                number = schedule.claim()
                if number is None:
                    break
                child = fleet.spawn(workload, seed, scale, "measure",
                                    f"rep{number}", cpu, perf_off)
                reps.append(child.wait())
                schedule.observe(child.wall_s)
            while True:
                number = schedule.claim_setup()
                if number is None:
                    break
                child = fleet.spawn(workload, seed, scale, "setup",
                                    f"setup{number}", cpu, perf_off)
                setups.append(child.wait())
        except ChildError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=lane, args=(cpu,))
               for cpu in lane_cpus()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_once(workload: str, seed: int, seconds: float,
             scale: float = 1.0,
             perf_off: Optional[str] = None) -> Dict[str, Any]:
    """Warm-up child, then measured children until ``seconds`` are up.

    ``perf_off`` names one PerfConfig switch the children turn off
    (``ablate`` only); the default configuration is ``None``.
    """
    began = perf_counter()
    reps: List[Dict[str, Any]] = []
    setups: List[Dict[str, Any]] = []
    errors: List[str] = []
    warmup = None
    with Fleet() as fleet:
        child = fleet.spawn(workload, seed, scale, "warmup", "warmup",
                            lane_cpus()[0], perf_off)
        try:
            warmup = child.wait()
        except ChildError as exc:
            errors.append(str(exc))
        else:
            # A repetition is the warm-up without its once-per-seed
            # checks.
            schedule = Schedule(
                began + seconds,
                child.wall_s - warmup["stages"]["verify_s"])
            run_lanes(fleet, workload, seed, scale, schedule, reps, setups,
                      errors, perf_off)
    return summarise(workload, seed, scale, seconds, warmup, reps, setups,
                     errors, perf_counter() - began)


def summarise(workload: str, seed: int, scale: float, seconds: float,
              warmup: Optional[Dict[str, Any]],
              reps: List[Dict[str, Any]], setups: List[Dict[str, Any]],
              errors: List[str], wall_s: float) -> Dict[str, Any]:
    """Reduce the repetitions of one seed to the result document."""
    attempted = len(errors) + 1
    failures = list(errors)
    if len(reps) < MIN_REPS:
        failures.append(f"only {len(reps)} of {MIN_REPS} repetitions")
    for doc in filter(None, [warmup] + reps):
        attempted += doc["attempted"]
        failures += [f"{doc['mode']}: {text}" for text in doc["failures"]]
    document: Dict[str, Any] = {
        "schema": "bench.once/1", "workload": workload, "seed": seed,
        "scale": scale, "seconds": seconds, "wall_s": wall_s,
        "repetitions": len(reps), "metrics": {}, "stages": {},
    }
    if warmup is not None and reps:
        # Repetitions of one seed are one deterministic computation:
        # one digest, one packet count, one trace file, one chain of
        # segments.
        for doc in reps:
            attempted += 1
            if doc["digest"] != warmup["digest"]:
                failures.append("sim_digest differs between repetitions")
            same = (doc["extras"].get("trace_sha256")
                    == warmup["extras"].get("trace_sha256")
                    and doc["pkts"] in (None, warmup["pkts"])
                    and len(doc["segments"]) == len(warmup["segments"]))
            attempted += 1
            if not same:
                failures.append("artifacts differ between repetitions")
        document["sim_digest"] = warmup["digest"]
        document["counts"] = warmup["counts"]
        document["extras"] = warmup["extras"]
        alike = [doc for doc in reps
                 if len(doc["segments"]) == len(warmup["segments"])]
        if alike:
            document["metrics"] = metrics_of(warmup["pkts"], alike, setups)
        document["stages"] = {
            stage: min(doc["stages"][stage] for doc in reps)
            for stage in STAGES}
        document["cpus"] = sorted({doc["cpu"] for doc in reps})
    document.update(attempted=attempted, failed=len(failures),
                    failed_pct=100.0 * len(failures) / attempted,
                    failures=failures[:20], correct=not failures)
    return document


def estimate(pkts: int, reps: List[Dict[str, Any]],
             setups: List[Dict[str, Any]]) -> Dict[str, float]:
    """The three end-to-end values from a group of repetitions and the
    set-up-only children that go with them (stages up to ``import_s``)."""
    quiet = quietest([[seconds for _name, seconds in doc["segments"]]
                      for doc in reps])
    return {
        "pkts_per_s": pkts / sum(quiet),
        "setup_s": sum(min(doc["stages"][stage] for doc in reps + setups
                           if stage in doc["stages"])
                       for stage in SETUP_STAGES),
        "peak_rss_mb": statistics.median(doc["peak_rss_mb"]
                                         for doc in reps),
    }


def metrics_of(pkts: int, reps: List[Dict[str, Any]],
               setups: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The end-to-end metrics with the statistics beside them.

    ``low``/``high`` span the estimate and the same estimate from the
    odd and the even repetitions alone: how far half-length runs land
    from the full one is the uncertainty ``compare`` weighs a difference
    against.  The quartiles are those of the single repetitions, noisy
    states included.
    """
    values = estimate(pkts, reps, setups)
    halves = [values]
    if len(reps) >= 4:
        halves += [estimate(pkts, reps[0::2], setups[0::2]),
                   estimate(pkts, reps[1::2], setups[1::2])]
    samples = {
        "pkts_per_s": [pkts / doc["steady_s"] for doc in reps],
        "setup_s": [sum(doc["stages"][stage] for stage in SETUP_STAGES)
                    for doc in reps],
        "peak_rss_mb": [doc["peak_rss_mb"] for doc in reps],
    }
    return {
        name: {"value": values[name], "unit": unit, "stat": stat,
               "low": min(half[name] for half in halves),
               "high": max(half[name] for half in halves),
               **quartiles(samples[name])}
        for name, (unit, _better, stat, _bound) in END_TO_END.items()}


def result_line(document: Dict[str, Any],
                metrics: Dict[str, Dict[str, Any]]) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    })
