#!/usr/bin/env python
"""Trace-identity gate for the engine-level perf switch.

Runs the fig. 5 fair-sharing workload with a full JSONL trace under both
link-advance modes — per-packet and batched — and requires one sha256
across the pair; see docs/performance.md.

Exit code: 0 when both hashes match, 1 on divergence.  Used by the
``trace-matrix`` CI job.
"""

import argparse
import hashlib
import sys
from pathlib import Path

from repro.experiments.testbed import run_fair_sharing
from repro.perf.config import PerfConfig, use_config
from repro.sim.trace import TraceBus
from repro.telemetry import JsonlSink, TraceRecorder


def traced_run(out: Path, *, batched: bool, time_unit_s: float) -> str:
    with use_config(PerfConfig(batched_link_advance=batched)):
        trace = TraceBus()
        with TraceRecorder(trace, JsonlSink(out)):
            run_fair_sharing("dynaq", time_unit_s=time_unit_s,
                             sample_interval_s=0.01, trace=trace)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="trace-matrix",
                        help="directory for the trace files")
    parser.add_argument("--time-unit", type=float, default=0.05,
                        help="fig. 5 time unit in seconds")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    digests = set()
    for batched in (False, True):
        label = "batched" if batched else "perpacket"
        digest = traced_run(workdir / f"fig05-{label}.jsonl",
                            batched=batched, time_unit_s=args.time_unit)
        digests.add(digest)
        print(f"{label:24s} {digest}")
    if len(digests) != 1:
        print("FAIL: trace hash divergence across link-advance modes")
        return 1
    print("both link-advance modes sha256-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
