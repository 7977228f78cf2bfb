"""One repetition in a fresh process: ``python3 -m bench.child ...``.

The parent passes the monotonic time at which it spawned this process;
``perf_counter`` reads the same system-wide clock on Linux, so spawn ->
first ``run()`` entry is measured across the process boundary.  The
result goes to ``--result`` as one JSON document.
"""

from time import perf_counter

_BOOTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MODES = ("measure", "warmup", "traced", "profile", "setup")


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own_kb = 0
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
                break
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + children_kb) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=MODES, default="measure")
    parser.add_argument("--out", required=True,
                        help="scratch directory, relative to the cwd")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--cpu", type=int, default=-1)
    parser.add_argument("--perf-off", default=None,
                        help="one PerfConfig switch to turn off (ablate)")
    args = parser.parse_args(argv)
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    from . import workloads
    import_end = perf_counter()
    result = Path(args.result)
    result.parent.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        # A set-up sample and nothing else: what every child does before
        # its workload builds anything.
        result.write_text(json.dumps({"mode": "setup", "stages": {
            "boot_s": _BOOTED - args.spawned_at,
            "import_s": import_end - _BOOTED}}))
        return 0

    run = workloads.WORKLOADS[args.workload]
    switched = contextlib.nullcontext()
    if args.perf_off:
        from repro.perf.config import FAST, use_config
        switched = use_config(FAST.clone(**{args.perf_off: False}))
    ledger = None
    with switched:
        if args.mode == "traced":
            from . import trace
            rep, ledger = trace.run_traced(run, args.seed, args.scale, out)
        elif args.mode == "profile":
            from . import trace
            rep, ledger = trace.run_profiled(run, args.seed, args.scale,
                                             out)
        else:
            rep = run(args.seed, args.scale, out, args.mode)
    done = perf_counter()

    document = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "mode": args.mode,
        "cpu": args.cpu,
        "stages": {
            "boot_s": _BOOTED - args.spawned_at,
            "import_s": import_end - _BOOTED,
            "build_s": rep.steady_start - import_end,
            "simulate_s": rep.simulate_end - rep.steady_start,
            "finish_s": rep.steady_end - rep.simulate_end,
            "verify_s": done - rep.steady_end,
        },
        "steady_s": rep.steady_end - rep.steady_start,
        "segments": rep.segments,
        "pkts": rep.pkts,
        "digest": rep.digest,
        "attempted": rep.attempted,
        "failures": rep.failures,
        "counts": rep.counts,
        "extras": rep.extras,
        "ledger": ledger,
        "peak_rss_mb": peak_rss_mb(),
    }
    result.write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
