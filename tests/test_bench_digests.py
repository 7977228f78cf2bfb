"""The four benchmark workloads still compute what they computed.

``tests/data/bench_digests.json`` pins the ``sim_digest`` of one
``python -m bench.child --mode warmup`` run per workload (seed 1,
scale 1): a refactor of the datapath may change how fast the benchmark
runs, never what it simulates.  Only the digest is asserted.  The
warm-up run's own checks are left to the benchmark, since some of them
(the ``port_replay`` feeder-share guard) read host timings.

Each child takes 2-5 s; the four run one after another.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "bench_digests.json").read_text())


@pytest.mark.parametrize("workload", sorted(GOLDEN["digests"]))
def test_bench_workload_digest(workload, tmp_path):
    result = tmp_path / "result.json"
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run(
        [sys.executable, "-m", "bench.child", "--workload", workload,
         "--seed", str(GOLDEN["seed"]), "--scale", str(GOLDEN["scale"]),
         "--mode", "warmup", "--out", str(tmp_path / "out"),
         "--result", str(result), "--spawned-at", "0"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, check=True,
        timeout=300)
    assert (json.loads(result.read_text())["digest"]
            == GOLDEN["digests"][workload])
