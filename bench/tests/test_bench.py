"""Tests of the benchmark itself (not tier-1).

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the
repository root; everything runs at a small ``--scale``.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import (  # noqa: E402
    compare, estimate, harness, ledger, probe, trace)

SCALE = 0.03


def run_child(workload: str, mode: str, tag: str, scale: float = SCALE):
    with harness.Fleet() as fleet:
        return fleet.spawn(workload, 1, scale, mode, f"test-{tag}").wait()


# -- digest ---------------------------------------------------------------

def test_digest_is_stable_across_children_and_sees_a_counter_change():
    first = run_child("port_replay", "measure", "a")
    second = run_child("port_replay", "measure", "b")
    assert first["digest"] == second["digest"]
    assert first["failures"] == second["failures"] == []
    counters = [["p", 10, 2, 10, 3]]
    base = probe.sim_digest(counters, 100, [(1, 5000)])
    assert base == probe.sim_digest(counters, 100, [(1, 5000)])
    assert base != probe.sim_digest([["p", 10, 3, 10, 3]], 100, [(1, 5000)])
    assert base != probe.sim_digest(counters, 101, [(1, 5000)])
    assert base != probe.sim_digest(counters, 100, [(1, 5001)])


def _rep(digest: str = "d", steady: float = 1.0) -> dict:
    return {"mode": "measure", "cpu": 0, "digest": digest, "pkts": 1000,
            "attempted": 3, "failures": [], "extras": {}, "counts": {},
            "segments": [["slice0", steady]], "steady_s": steady,
            "peak_rss_mb": 30.0,
            "stages": {name: 0.1 for name in harness.STAGES}}


def _summary(reps, setups=()):
    return harness.summarise("fct_star", 1, 1.0, 1.0, _rep(), reps,
                             list(setups), [], 1.0)


def test_differing_digests_between_repetitions_count_as_failed():
    reps = [_rep() for _ in range(harness.MIN_REPS)]
    clean = _summary(reps)
    assert clean["correct"] and clean["failed"] == 0
    reps[3] = _rep(digest="other")
    dirty = _summary(reps)
    assert not dirty["correct"] and dirty["failed"] == 1
    assert "sim_digest" in dirty["failures"][0]
    few = _summary(reps[:2])
    assert any("repetitions" in text for text in few["failures"])
    reps[3] = _rep()
    reps[3]["segments"] = [["slice0", 0.5], ["slice1", 0.5]]
    odd = _summary(reps)
    assert odd["failures"] == ["artifacts differ between repetitions"]
    assert odd["metrics"]["pkts_per_s"]["n"] == harness.MIN_REPS - 1


def test_setup_only_children_add_samples_of_the_stages_they_ran():
    reps = [_rep() for _ in range(harness.MIN_REPS)]
    assert _summary(reps)["metrics"]["setup_s"]["value"] == pytest.approx(
        0.3)
    quick = {"mode": "setup", "stages": {"boot_s": 0.05, "import_s": 0.08}}
    assert _summary(reps, [quick])["metrics"]["setup_s"][
        "value"] == pytest.approx(0.05 + 0.08 + 0.1)


# -- the declared metrics are the measured ones ---------------------------

def test_benchmark_json_declares_exactly_what_is_measured():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["bench"]
    assert [w["name"] for w in declared["workloads"]] == list(
        harness.WORKLOADS)
    end_to_end = {entry["name"]: entry for entry in declared["end_to_end"]}
    assert set(end_to_end) == set(harness.END_TO_END)
    for name, (unit, better, stat, bound) in harness.END_TO_END.items():
        entry = end_to_end[name]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            unit, better, bound)
        assert stat
    assert [(e["name"], e["unit"], e["better"])
            for e in declared["per_layer"]] == ledger.catalogue()

    document = harness.run_once("port_replay", 1, seconds=1.0, scale=SCALE)
    assert document["correct"], document["failures"]
    assert set(document["metrics"]) == set(harness.END_TO_END)
    line = json.loads(harness.result_line(document, document["metrics"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for name, entry in line["metrics"].items():
        assert entry["unit"] == harness.END_TO_END[name][0]
        assert entry["value"] > 0


# -- compare --------------------------------------------------------------

def _once(value: float, low=None, high=None, failed_pct: float = 0.0):
    def metric(v, lo, hi):
        return {"value": v, "low": lo if lo else v * 0.995,
                "high": hi if hi else v * 1.005}
    return {"fct_star": {
        "metrics": {"pkts_per_s": metric(value, low, high),
                    "setup_s": metric(0.2, None, None),
                    "peak_rss_mb": metric(30.0, None, None)},
        "failed_pct": failed_pct, "sim_digest": "d"}}


def _verdict(rows, metric):
    return next(row["verdict"] for row in rows if row["metric"] == metric)


def test_compare_flags_12_percent_and_passes_3_percent():
    bound = harness.END_TO_END["pkts_per_s"][3]
    assert 0.03 < bound < 0.12
    base = _once(100_000.0)
    assert _verdict(compare.compare_sets(base, _once(88_000.0)),
                    "pkts_per_s") == compare.REGRESSED
    assert _verdict(compare.compare_sets(base, _once(97_000.0)),
                    "pkts_per_s") == compare.OK
    assert _verdict(compare.compare_sets(base, _once(112_000.0)),
                    "pkts_per_s") == compare.OK


def test_compare_reports_wide_overlapping_runs_as_unresolved():
    base = _once(100_000.0, low=90_000.0, high=104_000.0)
    new = _once(96_000.0, low=93_000.0, high=99_000.0)
    assert _verdict(compare.compare_sets(base, new),
                    "pkts_per_s") == compare.UNRESOLVED


def test_compare_fails_on_a_failed_pct_rise(tmp_path, capsys):
    rows = compare.compare_sets(_once(100_000.0),
                                _once(100_000.0, failed_pct=1.0))
    assert _verdict(rows, "failed_pct") == compare.REGRESSED
    assert _verdict(rows, "sim_digest") == "same"
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    for path, sets in ((base, _once(100_000.0)),
                       (new, _once(100_000.0, failed_pct=1.0))):
        path.write_text(json.dumps(
            {"schema": "bench.set/1", "workloads": sets}))
    from bench.__main__ import main
    assert main(["compare", str(base), str(new)]) == 1
    assert main(["compare", str(base), str(base)]) == 0
    assert "regressed" in capsys.readouterr().out


# -- estimators -----------------------------------------------------------

def test_segment_minima_recover_the_quiet_value_where_the_median_fails():
    rng = random.Random(0)
    quiet = [rng.uniform(0.02, 0.05) for _ in range(40)]
    repetitions = []
    for _ in range(12):
        # The host flips between a quiet and a 1.28x slower state in
        # stretches of a few segments; 40 % of the time it is slow.
        slow, rep = False, []
        for index, seconds in enumerate(quiet):
            if index % 4 == 0:
                slow = rng.random() < 0.4
            rep.append(seconds * (1.28 if slow else 1.0)
                       * rng.uniform(1.0, 1.01))
        repetitions.append(rep)
    truth = sum(quiet)
    stitched = sum(estimate.quietest(repetitions))
    median = statistics.median(sum(rep) for rep in repetitions)
    assert abs(stitched - truth) / truth < 0.02
    assert abs(median - truth) / truth > 0.05
    with pytest.raises(ValueError):
        estimate.quietest([repetitions[0], repetitions[1][:-1]])


def test_span_self_time_arithmetic():
    #  span 0: [0, 10]  children 1 and 3;  span 1: [1, 4] child 2;
    #  span 2: [2, 3];  span 3: [5, 9];  span 4: [11, 12] top level.
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    own = trace.self_times(starts, ends, parents)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(own) == pytest.approx(11.0)  # the two top-level durations


# -- tracing --------------------------------------------------------------

def test_class_level_wrappers_are_gone_after_the_traced_run():
    sites = trace.boundary_sites()
    before = [vars(owner)[attribute] for owner, attribute, _ in sites]
    log = trace.SpanLog()
    with trace.Wrappers(log):
        during = [vars(owner)[attribute] for owner, attribute, _ in sites]
        assert all(now is not was for now, was in zip(during, before))
    after = [vars(owner)[attribute] for owner, attribute, _ in sites]
    assert all(now is was for now, was in zip(after, before))


def test_stopwatch_and_slice_clock_leave_the_horizon_and_batching_alone():
    from repro.sim.engine import Simulator

    from bench import replay
    plan = replay.build_plan(1, scale=0.03)

    def run(sim):
        free = replay.free_lists()
        port = replay.make_port(sim, None)
        port.connect(replay.Sink(free))
        replay.Feeder(sim, port, plan, free).start()
        sim.run(until=plan.horizon_ns)
        return probe.port_counters([port])

    plain = Simulator()
    watched = probe.StopwatchSimulator()
    clock = probe.SliceClock(watched, 2_000_000)
    assert run(watched) == run(plain)
    marks = len(clock.marks)
    assert marks > 10
    # The marks are all the watched run adds.  Batched link advance
    # schedules fewer events than it executes; a batch cut short (by a
    # nearer run() horizon, say) would show as more events scheduled.
    assert watched.events_executed == plain.events_executed + marks
    assert watched.events_scheduled == plain.events_scheduled + marks + 1
    window = watched.last_exit - watched.first_entry
    assert 0 < watched.inside_s <= window
    parts = probe.slices(watched.first_entry, clock.marks,
                         watched.last_exit)
    assert len(parts) == marks + 1 and min(parts) > 0
    assert sum(parts) == pytest.approx(window)


def test_traced_spans_nest_and_cover_the_simulate_stage():
    traced = run_child("fct_star", "traced", "traced", scale=0.1)
    plain = run_child("fct_star", "measure", "plain", scale=0.1)
    assert traced["digest"] == plain["digest"]
    assert [name for name, _ in traced["segments"]] == [
        name for name, _ in plain["segments"]]
    ledger_doc = traced["ledger"]
    inside = ledger_doc["simulate"]
    assert inside["seconds"] == pytest.approx(
        traced["stages"]["simulate_s"], rel=1e-6)
    # Self times are durations minus children: over spans that nest
    # properly they add up to the top-level durations, the engine's own
    # loop included, and those leave little of the stage uncovered.
    covered = inside["seconds"] - inside["unattributed_s"]
    assert sum(inside["self_s"].values()) == pytest.approx(covered,
                                                           rel=0.02)
    assert (-0.01 * inside["seconds"] <= inside["unattributed_s"]
            <= 0.15 * inside["seconds"])
    spans = ledger_doc["spans"]
    assert spans["snapshot"] == spans["diagnosis"] == 0
    assert spans["net"] > 0 and spans["transport"] > 0
    assert spans["workloads"] == 1
    assert (ROOT / harness.OUT / "fct_star.test-traced.spans.json").exists()


def test_port_replay_records_no_transport_or_workload_spans():
    traced = run_child("port_replay", "traced", "replay-traced")
    spans = traced["ledger"]["spans"]
    assert spans["transport"] == spans["workloads"] == 0
    assert spans["net"] > 0 and spans["core"] > 0


# -- the command line -----------------------------------------------------

def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for source in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text("{}")
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "fct_star", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
