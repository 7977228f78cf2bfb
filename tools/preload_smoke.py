#!/usr/bin/env python
"""Fail when sweep workers are not forked from a preloaded server.

Runs a few ``repro.experiments.fleet:preloaded`` probe jobs through the
sweep executor, ``--jobs 2`` style.  Each answers whether its process
was forked from a server that had already imported the package; a
``False`` means the preload silently failed and every job is paying an
interpreter boot plus ``import repro`` (~150 ms) instead of a fork.
Where the platform has no ``forkserver`` the fleet falls back to
``spawn`` and the probe only has to succeed.

Exit code: 0 pass, 1 fail.  Used by ``make sweep-smoke`` and the
``parallel-smoke`` CI job; ``tools/serve_smoke.py`` asks a live daemon
the same question.
"""

import sys
from multiprocessing import get_all_start_methods

from repro.experiments.parallel import JobSpec, parallel_map

PROBE = {"target": "repro.experiments.fleet:preloaded", "kwargs": {}}


def main():
    outcomes = parallel_map(
        [JobSpec(f"probe{index}", "callable", PROBE) for index in range(4)],
        jobs=2)
    answers = [outcome.value if outcome.ok else outcome.error
               for outcome in outcomes]
    # Without forkserver the fleet falls back to spawn: never preloaded.
    want = "forkserver" in get_all_start_methods()
    if answers != [want] * len(answers):
        print(f"preload-smoke: FAIL: workers reported {answers}, "
              f"want {want} from each")
        return 1
    print(f"preload-smoke: PASS ({len(answers)} workers, preloaded={want})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
