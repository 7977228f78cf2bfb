"""``python3 -m bench [once] --workload W --seed N --seconds S --trace 0|1``.

Other subcommands: ``set`` (all workloads into one file), ``compare``,
``aa``, ``drives``, ``ablate``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import harness

DEFAULT_SECONDS = 33


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (tests only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    once = commands.add_parser("once", help="one workload, one result line")
    once.add_argument("--workload", required=True,
                      choices=harness.WORKLOADS)
    once.add_argument("--trace", type=int, choices=(0, 1), default=0)
    once.add_argument("--out", help="also write the full document here")
    _add_run_arguments(once)

    whole = commands.add_parser("set", help="every workload, one file")
    whole.add_argument("--out", required=True)
    _add_run_arguments(whole)

    compare = commands.add_parser("compare", help="BASE.json vs NEW.json")
    compare.add_argument("base")
    compare.add_argument("new")

    aa = commands.add_parser("aa", help="N sets of the same tree, pairwise")
    aa.add_argument("--sets", type=int, default=5)
    _add_run_arguments(aa)

    drives = commands.add_parser("drives", help="time each layer alone")
    drives.add_argument("--json", action="store_true")

    ablate = commands.add_parser("ablate",
                                 help="leave-one-out over PerfConfig")
    _add_run_arguments(ablate)
    return parser


def require_program() -> None:
    """Refuse to run where the program under test is absent."""
    if not (harness.ROOT / "src" / "repro" / "__init__.py").exists():
        sys.exit("bench: src/repro is missing; run from a checkout")


def print_document(document) -> None:
    print(f"# {document['workload']} seed={document['seed']} "
          f"repetitions={document['repetitions']} "
          f"wall={document['wall_s']:.1f}s "
          f"sim_digest={document.get('sim_digest', '-')[:16]}")
    for name, entry in document["metrics"].items():
        print(f"{name:<14}{entry['value']:>14.4f} {entry['unit']:<4} "
              f"[{entry['stat']}; n={entry['n']} "
              f"q1={entry['q1']:.4f} median={entry['median']:.4f} "
              f"q3={entry['q3']:.4f}]")
    print(f"{'failed_pct':<14}{document['failed_pct']:>14.4f} %    "
          f"[{document['failed']} of {document['attempted']} checks]")
    for text in document["failures"]:
        print(f"FAILED: {text}")


def cmd_once(args) -> int:
    if args.trace:
        from . import ledger
        document = ledger.run_trace(args.workload, args.seed, args.seconds,
                                    args.scale)
        metrics = document["per_layer"]
        ledger.print_ledger(document)
    else:
        document = harness.run_once(args.workload, args.seed, args.seconds,
                                    args.scale)
        metrics = document["metrics"]
        print_document(document)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    if not metrics:
        return 1
    print(harness.result_line(document, metrics))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("--"):
        argv.insert(0, "once")
    args = build_parser().parse_args(argv)
    if args.command != "compare":
        require_program()
    if args.command == "once":
        return cmd_once(args)
    if args.command in ("set", "compare", "aa"):
        from . import compare
        return getattr(compare, f"cmd_{args.command}")(args)
    if args.command == "drives":
        # The one subcommand that calls into repro from this process.
        sys.path.insert(0, str(harness.ROOT / "src"))
        from . import drives
        return drives.main(args)
    from . import ablate
    return ablate.main(args)


if __name__ == "__main__":
    sys.exit(main())
