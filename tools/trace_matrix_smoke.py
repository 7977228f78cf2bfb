#!/usr/bin/env python
"""Trace-identity gate for the datapath perf switches.

Two pairs, each of which must share one sha256 across its full JSONL
traces under the FAST and REFERENCE configurations (see
docs/performance.md):

* the fig. 5 fair-sharing workload (plain DRR + DynaQ, whose FAST port
  runs the inlined DRR select);
* a small Fig. 8 FCT cell (SPQ/DRR switch ports behind PIAS, FIFO +
  BestEffort NICs).

Exit code: 0 when both pairs match, 1 on any divergence.  Used by the
``trace-matrix`` CI job.
"""

import argparse
import hashlib
import sys
from pathlib import Path

from repro.experiments.testbed import run_fair_sharing, run_fct_experiment
from repro.perf.config import FAST, REFERENCE, PerfConfig, use_config
from repro.sim.trace import TraceBus
from repro.telemetry import JsonlSink, TraceRecorder
from repro.workloads.datasets import WEB_SEARCH


def traced_run(out: Path, config: PerfConfig, run) -> str:
    with use_config(config):
        trace = TraceBus()
        with TraceRecorder(trace, JsonlSink(out)):
            run(trace)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def check_pair(workdir: Path, name: str, run) -> bool:
    digests = set()
    for label, config in (("reference", REFERENCE), ("fast", FAST)):
        digest = traced_run(workdir / f"{name}-{label}.jsonl", config, run)
        digests.add(digest)
        print(f"{name + ' ' + label:24s} {digest}")
    if len(digests) != 1:
        print(f"FAIL: {name} trace hash divergence between FAST and "
              "REFERENCE")
    return len(digests) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="trace-matrix",
                        help="directory for the trace files")
    parser.add_argument("--time-unit", type=float, default=0.05,
                        help="fig. 5 time unit in seconds")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    fig05_same = check_pair(
        workdir, "fig05",
        lambda trace: run_fair_sharing(
            "dynaq", time_unit_s=args.time_unit, sample_interval_s=0.01,
            trace=trace))
    fig08_same = check_pair(
        workdir, "fig08",
        lambda trace: run_fct_experiment(
            "dynaq", load=0.6, num_flows=40, seed=1,
            distribution=WEB_SEARCH.truncated(1_000_000), trace=trace))
    if not (fig05_same and fig08_same):
        return 1
    print("both pairs sha256-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
