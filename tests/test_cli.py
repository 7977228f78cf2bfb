"""Tests for the command-line interface (fast subcommands + plumbing)."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list_schemes(capsys):
    code, out = run_cli(capsys, "list-schemes")
    assert code == 0
    assert "dynaq" in out
    assert "besteffort" in out
    assert "pmsb" in out


def test_workloads(capsys):
    code, out = run_cli(capsys, "workloads")
    assert code == 0
    assert "web_search" in out
    assert "data_mining" in out


def test_hw_cost(capsys):
    code, out = run_cli(capsys, "hw-cost")
    assert code == 0
    assert "7 cycles" in out
    assert "0.88%" in out


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_scheme_reports_valid_policies(capsys):
    # A typo'd scheme name is a usage error (exit 2) carrying the list
    # of valid policies, not a bare KeyError traceback.
    code = main(["convergence", "--schemes", "bogus",
                 "--duration", "0.01"])
    captured = capsys.readouterr()
    assert code == 2
    assert "ConfigurationError" in captured.out
    assert "unknown scheme 'bogus'" in captured.out
    assert "'dynaq'" in captured.out and "'lqd'" in captured.out


def test_unknown_adversary_fails_before_telemetry(capsys, tmp_path):
    # Same contract for `repro competitive`: a typo'd adversary is a
    # usage error carrying the sorted valid-adversary list, raised
    # before the telemetry session opens (no trace file left behind)
    # and before any worker fan-out.
    trace = tmp_path / "never.jsonl"
    code = main(["competitive", "--adversaries", "bogus-flood",
                 "--rounds", "1", "--trace-out", str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert "ConfigurationError" in captured.out
    assert "unknown adversary 'bogus-flood'" in captured.out
    assert "'burst-flood'" in captured.out and "'random'" in captured.out
    assert not trace.exists()


def test_convergence_runs_tiny(capsys):
    code, out = run_cli(capsys, "convergence", "--schemes", "dynaq",
                        "--duration", "0.05")
    assert code == 0
    assert "DynaQ" in out
    assert "q1(Gbps)" in out


def test_weighted_runs_tiny(capsys):
    code, out = run_cli(capsys, "weighted", "--schemes", "dynaq",
                        "--weights", "2,1", "--duration", "0.05")
    assert code == 0
    assert "ideal" in out


def test_fct_runs_tiny(capsys, tmp_path):
    prefix = str(tmp_path / "fct")
    code, out = run_cli(capsys, "fct", "--schemes", "dynaq",
                        "--loads", "0.3", "--flows", "20",
                        "--truncate-mb", "0.5", "--csv", prefix)
    assert code == 0
    assert "absolute FCTs" in out
    assert "wrote" in out
    assert (tmp_path / "fct.dynaq.0.30.csv").exists()


def test_convergence_csv_export(capsys, tmp_path):
    prefix = str(tmp_path / "conv")
    code, out = run_cli(capsys, "convergence", "--schemes", "dynaq",
                        "--duration", "0.05", "--csv", prefix)
    assert code == 0
    assert (tmp_path / "conv.dynaq.csv").exists()


def test_fct_parallel_output_is_byte_identical(capsys, tmp_path):
    sweep = ["fct", "--schemes", "dynaq,pql", "--loads", "0.3",
             "--flows", "20", "--truncate-mb", "0.5"]
    code, serial_out = run_cli(capsys, *sweep,
                               "--csv", str(tmp_path / "s"))
    assert code == 0
    code, parallel_out = run_cli(
        capsys, *sweep, "--csv", str(tmp_path / "p"), "--jobs", "2",
        "--checkpoint", str(tmp_path / "ck.jsonl"))
    assert code == 0
    norm = str(tmp_path) + "/"
    assert (serial_out.replace(norm + "s.", "X.")
            == parallel_out.replace(norm + "p.", "X."))
    for name in ("dynaq", "pql"):
        assert ((tmp_path / f"s.{name}.0.30.csv").read_bytes()
                == (tmp_path / f"p.{name}.0.30.csv").read_bytes())
    # And a resumed run replays the checkpoint to the same bytes.
    code, resumed_out = run_cli(
        capsys, *sweep, "--csv", str(tmp_path / "r"), "--jobs", "2",
        "--checkpoint", str(tmp_path / "ck.jsonl"), "--resume")
    assert code == 0
    assert (resumed_out.replace(norm + "r.", "X.")
            == parallel_out.replace(norm + "p.", "X."))


def test_parser_structure():
    parser = build_parser()
    # All documented subcommands exist.
    subparsers = parser._subparsers._group_actions[0].choices
    for command in ("list-schemes", "workloads", "hw-cost", "convergence",
                    "motivation", "fair-sharing", "weighted",
                    "protocol-mix", "fct", "static-sim", "incast",
                    "profile", "trace-validate"):
        assert command in subparsers


def test_convergence_trace_out_end_to_end(capsys, tmp_path):
    """Acceptance: --trace-out emits a schema-valid JSONL trace with
    dynaq.threshold and dynaq.steal events."""
    import json

    from repro.telemetry import validate_trace_file

    path = tmp_path / "trace.jsonl"
    code, out = run_cli(capsys, "convergence", "--schemes", "dynaq",
                        "--duration", "0.05", "--trace-out", str(path))
    assert code == 0
    assert f"wrote {path}" in out
    count, errors = validate_trace_file(path)
    assert errors == []
    assert count > 0
    topics = {json.loads(line)["topic"] for line in path.open()}
    assert "dynaq.threshold" in topics
    assert "dynaq.steal" in topics
    # And the CLI validator agrees.
    code, out = run_cli(capsys, "trace-validate", str(path))
    assert code == 0
    assert "OK" in out


def test_trace_out_topic_filter(capsys, tmp_path):
    import json

    path = tmp_path / "drops.jsonl"
    code, _ = run_cli(capsys, "convergence", "--schemes", "dynaq",
                      "--duration", "0.05", "--trace-out", str(path),
                      "--trace-topics", "packet.drop")
    assert code == 0
    topics = {json.loads(line)["topic"] for line in path.open()}
    assert topics <= {"packet.drop"}


def test_timeline_csv_flag(capsys, tmp_path):
    prefix = str(tmp_path / "tl")
    code, out = run_cli(capsys, "convergence", "--schemes", "dynaq",
                        "--duration", "0.05", "--timeline-csv", prefix)
    assert code == 0
    assert ".thresholds.csv" in out
    written = list(tmp_path.glob("tl.*.thresholds.csv"))
    assert written
    header = written[0].read_text().splitlines()[0]
    assert header.startswith("time_s,T1_bytes")


def test_profile_subcommand(capsys):
    """Acceptance: `repro profile convergence` prints events/sec and a
    per-callback time table."""
    code, out = run_cli(capsys, "profile", "convergence",
                        "--scheme", "dynaq", "--duration", "0.05")
    assert code == 0
    assert "events/sec" in out
    assert "callback" in out
    assert "EgressPort" in out  # at least one real callback row


def test_trace_validate_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"topic": "nope"}\n')
    code, out = run_cli(capsys, "trace-validate", str(path))
    assert code == 1
    assert "error:" in out


def test_trace_window_parsing():
    parser = build_parser()
    args = parser.parse_args(["convergence", "--trace-window", "100:200"])
    assert args.trace_window == (100, 200)
    args = parser.parse_args(["convergence", "--trace-window", ":500"])
    assert args.trace_window == (None, 500)
    with pytest.raises(SystemExit):
        parser.parse_args(["convergence", "--trace-window", "42"])


def test_incast_runs_tiny(capsys):
    code, out = run_cli(capsys, "incast", "--schemes", "dynaq",
                        "--workers", "4", "--horizon", "1.0")
    assert code == 0
    assert "QCT" in out


def test_trace_topics_opt_in_captures_snapshot_lifecycle(capsys, tmp_path):
    trace = tmp_path / "lifecycle.jsonl"
    code, _ = run_cli(capsys, "fair-sharing", "--schemes", "dynaq",
                      "--time-unit", "0.02",
                      "--snapshot-every", "0.03",
                      "--snapshot-out", str(tmp_path / "x.snap"),
                      "--trace-out", str(trace),
                      "--trace-topics", "snapshot.lifecycle")
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records
    assert all(r["topic"] == "snapshot.lifecycle" for r in records)
    assert [r["saves"] for r in records] == list(range(1, len(records) + 1))
    assert all(r["detail"] == "save" for r in records)
    from repro.telemetry import validate_trace_file
    count, errors = validate_trace_file(trace)
    assert count == len(records)
    assert errors == []

    # Without the explicit opt-in the default recorder drops the topic.
    quiet = tmp_path / "default.jsonl"
    code, _ = run_cli(capsys, "fair-sharing", "--schemes", "dynaq",
                      "--time-unit", "0.02",
                      "--snapshot-every", "0.03",
                      "--snapshot-out", str(tmp_path / "y.snap"),
                      "--trace-out", str(quiet))
    assert code == 0
    topics = {json.loads(line)["topic"]
              for line in quiet.read_text().splitlines()}
    assert "snapshot.lifecycle" not in topics
