"""Chaos-soak harness tests: grammar, invariants, tortures, shrinker.

Layers:

1. scenario grammar — generation is a pure function of (seed, index),
   every generated scenario validates, JSON roundtrips exactly;
2. invariant engine — clean runs stay clean, real state tampering and
   the drill both trip, non-raising mode records instead;
3. run_case — every torture mode completes with a plain-JSON verdict;
4. orchestration — serial and ``--jobs 2`` produce identical verdict
   lists, ``soak.case`` events use sequence-number time;
5. shrinker — a drill failure minimizes to a scenario that still fails
   the same way, and the written bundle's replay line reproduces it
   through the real CLI.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.sim.trace import TOPIC_SOAK_CASE, TraceBus
from repro.soak import (
    DRILL_PROBLEM,
    InvariantEngine,
    InvariantViolation,
    ScenarioGenerator,
    SoakScenario,
    run_case,
    run_soak,
    shrink,
    write_soak_bundle,
)
from repro.soak.runner import _build_world
from repro.soak.scenario import SCHEMES, TORTURE_MODES


def tiny(**overrides):
    """A fast-running scenario for unit tests."""
    spec = dict(seed=1, scheme="dynaq", num_queues=2, flows_per_queue=1,
                duration_ms=8.0, sample_interval_ms=2.0,
                check_every_ms=2.0)
    spec.update(overrides)
    return SoakScenario(**spec)


# -- 1. scenario grammar ------------------------------------------------------

def test_generator_is_deterministic_and_bounded():
    first = ScenarioGenerator(42).generate(12)
    second = ScenarioGenerator(42).generate(12)
    assert [s.to_dict() for s in first] == [s.to_dict() for s in second]
    for scenario in first:
        assert scenario.scheme in SCHEMES
        assert 1 <= scenario.num_queues <= 8
        assert 1 <= scenario.flows_per_queue <= 8
        assert scenario.torture in TORTURE_MODES
        if scenario.torture != "none":
            assert scenario.snapshot_every_ms is not None


def test_generator_differs_across_seeds_and_indices():
    a = ScenarioGenerator(1).generate(6)
    b = ScenarioGenerator(2).generate(6)
    assert [s.digest for s in a] != [s.digest for s in b]
    assert len({s.digest for s in a}) > 1


def test_generated_fault_schedules_fit_the_horizon():
    """Non-overlapping and within-horizon by construction: loading one
    exercises FaultSchedule's own validators."""
    for scenario in ScenarioGenerator(7).generate(20):
        if scenario.faults is not None:
            schedule = scenario.fault_schedule()
            schedule.validate_horizon(scenario.duration_ns,
                                      context="soak scenario")


def test_scenario_json_roundtrip(tmp_path):
    scenario = ScenarioGenerator(3).scenario(0)
    path = scenario.write(tmp_path / "s.json")
    loaded = SoakScenario.from_file(path)
    assert loaded.to_dict() == scenario.to_dict()
    assert loaded.digest == scenario.digest


@pytest.mark.parametrize("overrides", [
    {"scheme": "meteor"},
    {"num_queues": 0},
    {"num_queues": 99},
    {"flows_per_queue": 0},
    {"duration_ms": 0},
    {"perf_base": "warp"},
    {"perf": {"flux_capacitor": True}},
    {"perf": {"heap_scan_inflight": "yes"}},
    {"torture": "rack"},
    {"torture": "kill-restore"},            # needs snapshot_every_ms
    {"snapshot_every_ms": 99.0},            # past the horizon
    {"check_every_ms": 0},
    {"faults": {"events": [                 # injects past the horizon
        {"time_ms": 99.0, "kind": "stall", "target": "s0->h0",
         "duration_ms": 1.0}]}},
])
def test_scenario_validation_rejects(overrides):
    with pytest.raises((ConfigurationError, ValueError)):
        tiny(**overrides)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown"):
        SoakScenario.from_dict({"scheme": "dynaq", "warp_speed": 9})


def test_retired_perf_switch_is_refused_by_name():
    """A triage bundle written before the calendar queue, the packet
    pool or batched link advance was deleted fails loudly at load, not
    by silently running another config."""
    for switch in ("calendar_queue", "packet_pooling",
                   "batched_link_advance"):
        with pytest.raises(ConfigurationError,
                           match=f"unknown perf switch '{switch}'"):
            tiny(perf={switch: True})


def test_replace_revalidates():
    scenario = tiny()
    with pytest.raises((ConfigurationError, ValueError)):
        scenario.replace(num_queues=0)
    assert scenario.replace(num_queues=1).num_queues == 1


def test_catalog_scenarios_are_valid():
    from pathlib import Path

    catalog = sorted(
        (Path(__file__).resolve().parent.parent / "scenarios")
        .glob("*.json"))
    assert catalog, "scenarios/ catalog is empty"
    for path in catalog:
        SoakScenario.from_file(path)  # validation happens on load


# -- 2. invariant engine ------------------------------------------------------

def test_engine_rejects_bad_cadence():
    with pytest.raises(ValueError):
        InvariantEngine(object(), check_every_ns=0)


def test_engine_clean_world_has_no_problems():
    world, engine = _build_world(tiny(), None)
    world.net.sim.run(until=world.horizon_ns // 2)
    assert engine.run_checks() == []
    assert engine.checks > 1  # cadence sweeps ran inside the sim too
    engine.close()


def test_engine_catches_tampered_occupancy():
    """Corrupting a port's byte ledger trips packet conservation."""
    world, engine = _build_world(tiny(), None)
    sim = world.net.sim
    sim.run(until=world.horizon_ns // 4)
    port = world.net.switch("s0").ports["s0->h0"]
    port._total_bytes += 1500  # phantom packet
    with pytest.raises(InvariantViolation) as excinfo:
        engine.run_checks()
    assert excinfo.value.problems
    assert engine.violations and engine.violations[0]["boundary"] == "manual"
    engine.close()


def test_engine_records_without_raising_when_asked():
    world, _ = _build_world(tiny(), None)
    engine = InvariantEngine(world, check_every_ns=1000, drill=True,
                             raise_on_violation=False)
    assert engine.run_checks() == [DRILL_PROBLEM]
    assert engine.violation_count == 1


# -- 3. run_case across torture modes -----------------------------------------

def test_run_case_plain_is_clean():
    verdict = run_case(tiny())
    assert verdict["status"] == "ok", verdict["detail"]
    assert verdict["checks"] > 0
    assert verdict["violations"] == []
    assert verdict["digest"] == tiny().digest


def test_run_case_kill_restore_is_clean():
    verdict = run_case(tiny(torture="kill-restore", snapshot_every_ms=3.0,
                            duration_ms=10.0))
    assert verdict["status"] == "ok", verdict["detail"]


def test_run_case_corrupt_snapshot_detects_all_corruptions():
    verdict = run_case(tiny(torture="corrupt-snapshot",
                            snapshot_every_ms=3.0, duration_ms=10.0))
    assert verdict["status"] == "ok", verdict["detail"]


def test_run_case_drill_reports_violation():
    verdict = run_case(tiny(drill=True))
    assert verdict["status"] == "violation"
    assert DRILL_PROBLEM in verdict["detail"]
    assert verdict["violations"][0]["problems"] == [DRILL_PROBLEM]


def test_run_case_faulted_checks_at_boundaries():
    verdict = run_case(tiny(
        duration_ms=12.0,
        faults={"events": [
            {"time_ms": 4.0, "kind": "link_flap", "target": "s0->h0",
             "duration_ms": 1.0}]}))
    assert verdict["status"] == "ok", verdict["detail"]
    # cadence sweeps plus one per fault boundary (inject + recover)
    assert verdict["checks"] >= 12_000 // 2_000 + 2


# -- 4. orchestration ---------------------------------------------------------

def test_run_soak_serial_equals_parallel(tmp_path):
    serial = run_soak(seed=11, iterations=3, jobs=1,
                      shrink_failures=False)
    parallel = run_soak(seed=11, iterations=3, jobs=2,
                        checkpoint=tmp_path / "ck.jsonl",
                        shrink_failures=False)
    assert serial.verdicts == parallel.verdicts
    assert serial.ok and parallel.ok


def test_run_soak_publishes_sequence_timed_case_events():
    trace = TraceBus()
    seen = []

    def on_case(**payload):
        seen.append(payload)

    trace.subscribe(TOPIC_SOAK_CASE, on_case)
    run_soak(seed=5, iterations=2, shrink_failures=False, trace=trace)
    assert [event["time"] for event in seen] == [1, 2]
    assert all("status=ok" in event["detail"] for event in seen)


def test_run_soak_rejects_bad_iterations():
    with pytest.raises(ConfigurationError):
        run_soak(seed=1, iterations=0)


# -- 5. shrinker --------------------------------------------------------------

def test_shrink_refuses_a_passing_scenario():
    with pytest.raises(ConfigurationError, match="does not fail"):
        shrink(tiny())


def test_shrink_drill_to_minimal_and_replay_reproduces(tmp_path):
    """The full failure pipeline: a faulted, tortured drill scenario
    shrinks to a minimal one that still fails the same way, and the
    bundle's one-command replay line reproduces it via the real CLI."""
    from repro.cli import main

    scenario = tiny(
        seed=9, num_queues=4, flows_per_queue=2, duration_ms=16.0,
        torture="kill-restore", snapshot_every_ms=5.0, drill=True,
        faults={"events": [
            {"time_ms": 6.0, "kind": "stall", "target": "s0->h0",
             "duration_ms": 1.0}]})
    result = shrink(scenario)
    assert result.verdict["status"] == "violation"
    minimal = result.minimal
    # The shrinker stripped everything the failure does not need.
    assert minimal.faults is None
    assert minimal.torture == "none"
    assert minimal.num_queues == 1
    assert minimal.flows_per_queue == 1
    assert minimal.duration_ms < scenario.duration_ms
    assert minimal.drill  # ...but kept the actual cause
    assert result.removed

    bundle = write_soak_bundle(tmp_path, scenario=scenario, result=result)
    replay = (bundle / "REPLAY.txt").read_text()
    assert "soak --replay" in replay
    assert json.loads((bundle / "verdict.json").read_text())["shrink_log"]
    code = main(["soak", "--replay", str(bundle / "minimal.json")])
    assert code == 1  # the minimal scenario still fails


# -- CLI ----------------------------------------------------------------------

def test_cli_clean_soak_exits_zero(capsys, tmp_path):
    from repro.cli import main

    out = tmp_path / "verdicts.jsonl"
    code = main(["soak", "--seed", "5", "--iterations", "2",
                 "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "soak clean" in printed
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["status"] == "ok" for line in lines)


def test_cli_drill_exits_one_with_bundle(capsys, tmp_path):
    from repro.cli import main

    triage = tmp_path / "triage"
    code = main(["soak", "--seed", "5", "--iterations", "1", "--drill",
                 "--triage-dir", str(triage)])
    printed = capsys.readouterr().out
    assert code == 1
    assert "SOAK FAILURES" in printed
    bundles = list(triage.glob("bundle-*"))
    assert len(bundles) == 1
    for name in ("scenario.json", "minimal.json", "verdict.json",
                 "REPLAY.txt"):
        assert (bundles[0] / name).exists()
