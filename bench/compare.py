"""``set``, ``compare`` and ``aa``: whole sets of runs and their verdicts.

A set file holds one ``once`` document per workload.  ``compare`` puts
two sets side by side, one row per workload x end-to-end metric; ``aa``
runs several sets of the same tree and compares every pair, which is
the repeatability gate a change to the benchmark has to pass.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Dict, List

from . import harness
from .harness import END_TO_END

REGRESSED, UNRESOLVED, OK = "regressed", "unresolved", "ok"


def run_set(seed: int, seconds: float, scale: float) -> Dict[str, Any]:
    workloads = {workload: harness.run_once(workload, seed, seconds, scale)
                 for workload in harness.WORKLOADS}
    return {"schema": "bench.set/1", "seed": seed, "seconds": seconds,
            "scale": scale, "workloads": workloads}


def load_set(path: str) -> Dict[str, Any]:
    """A set file, or a single ``once --out`` document as a set of one."""
    document = json.loads(Path(path).read_text())
    if document.get("schema") == "bench.set/1":
        return document["workloads"]
    return {document["workload"]: document}


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return -change if better == "higher" else change


def verdict(base: Dict[str, Any], new: Dict[str, Any], better: str,
            bound: float) -> str:
    """``regressed`` past the bound; ``unresolved`` when either side's
    own uncertainty (the gap between its two half-sample estimates) is
    wider than the bound and the two intervals overlap; else ``ok``."""
    if worse_by(base["value"], new["value"], better) > bound:
        return REGRESSED
    wide = any((side["high"] - side["low"]) > bound * side["value"]
               for side in (base, new))
    overlap = base["low"] <= new["high"] and new["low"] <= base["high"]
    return UNRESOLVED if wide and overlap else OK


def compare_sets(base: Dict[str, Any],
                 new: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x metric, a failed-checks row and a digest
    row per workload."""
    rows: List[Dict[str, Any]] = []
    for workload in base:
        if workload not in new:
            continue
        old_doc, new_doc = base[workload], new[workload]
        for name, (unit, better, _stat, bound) in END_TO_END.items():
            old = old_doc["metrics"].get(name)
            cur = new_doc["metrics"].get(name)
            if old is None or cur is None:
                rows.append({"workload": workload, "metric": name,
                             "verdict": REGRESSED, "note": "not measured"})
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "base": old["value"], "new": cur["value"],
                "base_range": [old["low"], old["high"]],
                "new_range": [cur["low"], cur["high"]],
                "ratio": cur["value"] / old["value"], "bound": bound,
                "verdict": verdict(old, cur, better, bound)})
        rose = new_doc["failed_pct"] > old_doc["failed_pct"]
        rows.append({"workload": workload, "metric": "failed_pct",
                     "unit": "%", "base": old_doc["failed_pct"],
                     "new": new_doc["failed_pct"], "bound": 0.0,
                     "verdict": REGRESSED if rose else OK})
        same = old_doc.get("sim_digest") == new_doc.get("sim_digest")
        rows.append({"workload": workload, "metric": "sim_digest",
                     "verdict": "same" if same else "changed"})
    return rows


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':<13}{'metric':<13}{'base':>13}{'new':>13}"
          f"{'new/base':>10}{'bound':>7}  verdict")
    for row in rows:
        if "base" not in row:
            print(f"{row['workload']:<13}{row['metric']:<13}"
                  f"{'':>43}  {row['verdict']} {row.get('note', '')}")
            continue
        ratio = (f"{row['ratio']:.4f}" if "ratio" in row else "")
        line = (f"{row['workload']:<13}{row['metric']:<13}"
                f"{row['base']:>13.4f}{row['new']:>13.4f}{ratio:>10}"
                f"{100 * row['bound']:>6.0f}%  {row['verdict']}")
        if "base_range" in row:
            line += (f"  base [{row['base_range'][0]:.4f}, "
                     f"{row['base_range'][1]:.4f}] new "
                     f"[{row['new_range'][0]:.4f}, "
                     f"{row['new_range'][1]:.4f}]")
        print(line)


def cmd_set(args) -> int:
    document = run_set(args.seed, args.seconds, args.scale)
    Path(args.out).write_text(json.dumps(document, indent=1))
    failed = sum(doc["failed"] for doc in document["workloads"].values())
    print(f"wrote {args.out} ({failed} failed checks)")
    return 1 if failed else 0


def cmd_compare(args) -> int:
    rows = compare_sets(load_set(args.base), load_set(args.new))
    print_rows(rows)
    return 1 if any(row["verdict"] == REGRESSED for row in rows) else 0


def cmd_aa(args) -> int:
    """N sets of the current tree; every pair compared both ways."""
    out_dir = harness.ROOT / harness.OUT / "aa"
    out_dir.mkdir(parents=True, exist_ok=True)
    sets = []
    for index in range(args.sets):
        document = run_set(args.seed, args.seconds, args.scale)
        path = out_dir / f"set{index}.json"
        path.write_text(json.dumps(document, indent=1))
        print(f"wrote {path}")
        sets.append(document["workloads"])
    worst: Dict[Any, float] = {}
    regressed = False
    for base, new in itertools.permutations(sets, 2):
        for row in compare_sets(base, new):
            regressed |= row["verdict"] == REGRESSED
            if "ratio" in row:
                key = (row["workload"], row["metric"])
                worst[key] = max(worst.get(key, 0.0),
                                 abs(row["ratio"] - 1.0))
    print(f"{'workload':<13}{'metric':<13}{'largest pairwise gap':>22}"
          f"{'bound':>8}")
    for (workload, metric), gap in worst.items():
        print(f"{workload:<13}{metric:<13}{100 * gap:>21.2f}%"
              f"{100 * END_TO_END[metric][3]:>7.0f}%")
    return 1 if regressed else 0
