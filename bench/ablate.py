"""``ablate``: leave-one-out over the PerfConfig switches (opt-in).

Enumerates whatever boolean ``PerfConfig`` fields are on by default when
it runs, turns each off alone -- the child wraps the workload in the
public ``use_config(FAST.clone(name=False))`` -- and tables the marginal
``pkts_per_s`` on ``port_replay`` and ``fct_star`` against the all-on
run, with each side's half-sample range and whether the operation digest
stayed the same.  Gates nothing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import List

from . import harness

#: No hosts and a whole world: where a datapath switch shows at full
#: size and where it is diluted.  sweep_grid is left out on purpose: the
#: switch is set in the child only and its workers would not see it.
WORKLOADS = ("port_replay", "fct_star")


def default_on_switches() -> List[str]:
    """Names of the switches ``FAST`` has on, asked of a child process."""
    output = subprocess.run(
        [sys.executable, "-c",
         "import json; from repro.perf.config import FAST; "
         "print(json.dumps([name for name, on in FAST.as_dict().items() "
         "if on is True]))"],
        cwd=harness.ROOT, env=harness.child_env(), check=True,
        capture_output=True, text=True).stdout
    return json.loads(output)


def main(args) -> int:
    switches = default_on_switches()
    print(f"{'workload':<13}{'switch off':<22}{'pkts_per_s':>12}"
          f"{'vs all on':>10}  {'range':<24}digest")
    for workload in WORKLOADS:
        base = harness.run_once(workload, args.seed, args.seconds,
                                args.scale)
        if "pkts_per_s" not in base["metrics"]:
            print(f"{workload:<13}all-on run failed: "
                  f"{base['failures'][:1]}")
            continue
        rows = [("-", base)]
        rows += [(name, harness.run_once(workload, args.seed, args.seconds,
                                         args.scale, perf_off=name))
                 for name in switches]
        reference = base["metrics"]["pkts_per_s"]["value"]
        for name, document in rows:
            entry = document["metrics"].get("pkts_per_s")
            if entry is None:
                print(f"{workload:<13}{name:<22}{'failed':>12}  "
                      f"{document['failures'][:1]}")
                continue
            same = document.get("sim_digest") == base.get("sim_digest")
            print(f"{workload:<13}{name:<22}{entry['value']:>12.0f}"
                  f"{entry['value'] / reference:>10.3f}  "
                  f"[{entry['low']:.0f}, {entry['high']:.0f}]".ljust(83)
                  + ("same" if same else "changed"))
    return 0
