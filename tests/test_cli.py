"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import io
import shutil

import pytest

from repro.cli import build_parser, main

SMALL = [
    "--leaves", "8",
    "--spines", "4",
    "--collective-gib", "1",
]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_detect_fault_exits_zero(capsys):
    code = main(["detect", *SMALL, "--drop-rate", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert "detected: True" in out
    assert "suspects:" in out


def test_detect_healthy_exits_zero(capsys):
    code = main(["detect", *SMALL, "--healthy"])
    out = capsys.readouterr().out
    assert code == 0
    assert "detected: False" in out
    assert "healthy control" in out


def test_detect_subthreshold_fault_exits_one(capsys):
    # 0.2% drop is far below the 1% threshold: a miss, exit code 1.
    code = main(["detect", *SMALL, "--drop-rate", "0.002"])
    assert code == 1


def test_roc_prints_table(capsys):
    code = main(
        [
            "roc",
            *SMALL,
            "--trials", "3",
            "--drop-rates", "0.02",
            "--thresholds", "0.01",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "FPR" in out and "TPR" in out
    assert "2.0%" in out


def test_closed_loop_recovers(capsys):
    code = main(
        [
            "closed-loop",
            *SMALL,
            "--drop-rate", "0.05",
            "--iterations", "6",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "DISABLED" in out
    assert "recovered (quiet after remediation): True" in out


def test_detect_report_flag(capsys):
    code = main(["detect", *SMALL, "--drop-rate", "0.05", "--report"])
    out = capsys.readouterr().out
    assert code == 0
    assert "INCIDENT" in out
    assert "recommended action: drain cable" in out


def test_healthy_report_flag(capsys):
    code = main(["detect", *SMALL, "--healthy", "--report"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no fault detected" in out


def test_custom_threshold_respected(capsys):
    code = main(["detect", *SMALL, "--drop-rate", "0.05", "--threshold", "0.02"])
    out = capsys.readouterr().out
    assert code == 0
    assert "threshold 2.00%" in out


def test_preexisting_faults_flag(capsys):
    code = main(
        ["detect", *SMALL, "--drop-rate", "0.05", "--preexisting", "2"]
    )
    assert code == 0


def test_sweep_prints_table_and_throughput(capsys):
    code = main(
        [
            "sweep",
            *SMALL,
            "--values", "0.01", "0.03",
            "--trials", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sweep over drop_rate" in out
    assert "FPR" in out and "TPR" in out
    assert "trials/sec" in out


def test_sweep_parallel_matches_serial(capsys):
    args = ["sweep", *SMALL, "--values", "0.02", "--trials", "2"]
    assert main([*args, "--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert main([*args, "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out

    # Identical tables: jobs only changes throughput, never results.
    def table_rows(text):
        return [
            line
            for line in text.splitlines()
            if "jobs=" not in line and "trials in" not in line
        ]

    assert table_rows(serial_out) == table_rows(parallel_out)


def test_sweep_integer_parameter_casting(capsys):
    code = main(
        [
            "sweep",
            *SMALL,
            "--parameter", "n_iterations",
            "--values", "3", "4",
            "--trials", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sweep over n_iterations" in out


def test_sweep_unknown_parameter_errors(capsys):
    code = main(["sweep", *SMALL, "--parameter", "bogus", "--values", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown sweep parameter" in err


def test_detect_metrics_out_writes_jsonl(tmp_path, capsys):
    import json

    path = tmp_path / "metrics.jsonl"
    code = main(
        ["detect", *SMALL, "--drop-rate", "0.05", "--metrics-out", str(path)]
    )
    assert code == 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    types = {line["type"] for line in lines}
    assert "audit.iteration" in types
    assert "audit.leaf" in types
    assert "metric" in types


def test_detect_trace_out_is_chrome_trace(tmp_path, capsys):
    path = tmp_path / "trace.json"
    code = main(
        [
            "detect",
            "--leaves", "4",
            "--spines", "2",
            "--collective-gib", "0.005",
            "--drop-rate", "0.05",
            "--trace-out", str(path),
        ]
    )
    assert code == 0
    import json

    trace = json.loads(path.read_text())
    assert trace["traceEvents"], "trace must contain events"
    assert {e["ph"] for e in trace["traceEvents"]} >= {"M", "X"}
    assert trace["otherData"]["fault_drops"] > 0


def test_sweep_metrics_out_and_progress(tmp_path, capsys):
    import json

    path = tmp_path / "sweep.jsonl"
    code = main(
        [
            "sweep",
            *SMALL,
            "--values", "0.02",
            "--trials", "2",
            "--jobs", "2",
            "--metrics-out", str(path),
            "--progress",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "worker utilization" in captured.out
    assert "[4/4]" in captured.err
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    types = {line["type"] for line in lines}
    assert {"sweep.trial", "sweep.run", "metric"} <= types
    assert len([l for l in lines if l["type"] == "sweep.trial"]) == 4


def test_roc_metrics_out(tmp_path, capsys):
    import json

    path = tmp_path / "roc.jsonl"
    code = main(
        [
            "roc",
            *SMALL,
            "--trials", "2",
            "--drop-rates", "0.02",
            "--thresholds", "0.01",
            "--metrics-out", str(path),
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    trials = [l for l in lines if l["type"] == "roc.trial"]
    points = [l for l in lines if l["type"] == "roc.point"]
    assert len(trials) == 4  # 2 negatives + 2 positives
    assert len(points) == 1
    assert {"drop_rate", "threshold", "fpr", "tpr"} <= set(points[0])


def test_telemetry_flags_do_not_change_results(capsys, tmp_path):
    args = ["detect", *SMALL, "--drop-rate", "0.05"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main([*args, "--metrics-out", str(tmp_path / "m.jsonl")]) == 0
    instrumented = capsys.readouterr().out
    assert instrumented == plain


def test_learned_predictor_flag(capsys):
    code = main(
        [
            "detect",
            *SMALL,
            "--drop-rate", "0.05",
            "--predictor", "learned",
            "--iterations", "6",
        ]
    )
    # Learned predictor with fault from iteration 0 bakes the fault into
    # its baseline: no alarm, exit 1 — the documented caveat.
    out = capsys.readouterr().out
    assert "detected" in out
    assert code in (0, 1)


def test_closed_loop_simnet_engine_recovers(capsys):
    # Tiny packet-level run: 4x3 fabric, ~300 KB collective. Threshold
    # sits above the round-robin quantization noise for this size.
    code = main(
        [
            "closed-loop",
            "--engine", "simnet",
            "--leaves", "4",
            "--spines", "3",
            "--collective-gib", str(300_000 / (1 << 30)),
            "--mtu", "512",
            "--iterations", "6",
            "--threshold", "0.03",
            "--drop-rate", "0.5",
            "--fault-start", "1",
            "--fault-link", "up:L1->S1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "simnet closed loop" in out
    assert "ALARM" in out
    assert "DISABLED" in out and "up:L1->S1" in out
    assert "failed messages: 0" in out
    assert "recovered (quiet after remediation): True" in out


def test_chaos_command_reports_pass(capsys):
    # Seeds 0-2 draw escalating, persistent_drop, healthy under the
    # rng-driven kind selection.
    code = main(["chaos", "--scenarios", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3/3 scenarios passed" in out
    assert "healthy" in out and "persistent_drop" in out


# ----------------------------------------------------------------------
# fleet verbs
# ----------------------------------------------------------------------
FLEET_SMALL = [
    "--jobs", "4",
    "--iterations", "5",
    "--fault-fraction", "0.5",
    "--leaves", "6",
    "--spines", "3",
    "--collective-gib", "1",
]


@pytest.fixture
def workload_path(tmp_path, capsys):
    path = tmp_path / "workload.fprec"
    code = main(["fleet", "loadgen", *FLEET_SMALL, "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


def test_fleet_loadgen_writes_fprec(tmp_path, capsys):
    path = tmp_path / "w.fprec"
    code = main(["fleet", "loadgen", *FLEET_SMALL, "--out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "faulted jobs:" in out
    lines = path.read_text().splitlines()
    assert len(lines) == 4 + 4 * 5  # job configs then batches
    assert all(line.startswith('["fprec",1,') for line in lines)


def test_fleet_serve_detects_and_validates(workload_path, capsys):
    code = main(["fleet", "serve", "--input", str(workload_path), "--shards", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "incidents (" in out
    assert "missed=none" in out
    assert "false alarms=none" in out


def test_fleet_serve_writes_incident_log(workload_path, tmp_path, capsys):
    import json

    incidents = tmp_path / "incidents.jsonl"
    metrics = tmp_path / "metrics.jsonl"
    code = main(
        [
            "fleet", "serve",
            "--input", str(workload_path),
            "--incidents-out", str(incidents),
            "--fleet-metrics-out", str(metrics),
        ]
    )
    capsys.readouterr()
    assert code == 0
    events = [json.loads(line) for line in incidents.read_text().splitlines()]
    assert any(e["type"] == "incident.opened" for e in events)
    assert any(e["type"] == "incident.closed" for e in events)
    entries = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert any(e["name"] == "fleet.detection_latency_s" for e in entries)


def test_fleet_replay_verifies_parity(workload_path, capsys):
    code = main(["fleet", "replay", "--input", str(workload_path), "--shards", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "golden parity" in out


def test_fleet_serve_missing_input_exits_two(tmp_path, capsys):
    code = main(["fleet", "serve", "--input", str(tmp_path / "nope.fprec")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_fleet_serve_rejects_stream_without_jobs(tmp_path, capsys):
    path = tmp_path / "empty.fprec"
    path.write_text("")
    code = main(["fleet", "serve", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "no job configs" in err


def test_fleet_serve_malformed_input_exits_two(tmp_path, capsys):
    path = tmp_path / "garbage.fprec"
    path.write_text("this is not a wire line\n")
    code = main(["fleet", "serve", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_sweep_uncastable_values_exit_two(capsys):
    code = main(
        ["sweep", *SMALL, "--parameter", "n_iterations", "--values", "abc"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot parse" in err


def test_sweep_duplicate_values_exit_two(capsys):
    code = main(["sweep", *SMALL, "--values", "0.01", "0.01", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "duplicate drop_rate values" in captured.err
    assert captured.out == ""  # rejected up front: no grid ran, no table


def test_invalid_config_is_error_not_traceback(capsys):
    # drop_rate > 1 violates ExperimentConfig validation: a clean exit-2
    # domain error, not an uncaught exception.
    code = main(["detect", *SMALL, "--drop-rate", "1.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------------------
# forensics: --events-out and the report verb
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_events_path(tmp_path_factory):
    """One ``repro chaos`` run shared by every test that reads its
    events (``capsys`` is function-scoped, hence the redirect).  Tests
    must not write to the file; one that needs to works on a copy."""
    path = tmp_path_factory.mktemp("chaos") / "events.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["chaos", "--scenarios", "2", "--events-out", str(path)])
    assert code == 0
    return path


def test_chaos_events_out_brackets_scenarios(chaos_events_path):
    from repro.telemetry import read_jsonl

    events = read_jsonl(chaos_events_path)
    starts = [e for e in events if e["type"] == "scenario.start"]
    ends = [e for e in events if e["type"] == "scenario.end"]
    assert len(starts) == len(ends) == 2
    assert {e["seed"] for e in starts} == {0, 1}
    assert starts[0]["threshold"] > 0
    assert all("ok" in e and "digest" in e for e in ends)


def test_closed_loop_fastsim_events_out_records_remediation(tmp_path, capsys):
    from repro.telemetry import read_jsonl

    path = tmp_path / "loop.jsonl"
    code = main(
        [
            "closed-loop",
            *SMALL,
            "--iterations", "6",
            "--fault-link", "down:S2->L5",
            "--events-out", str(path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    events = read_jsonl(path)
    remediations = [e for e in events if e["type"] == "closedloop.remediation"]
    assert remediations and remediations[0]["outcome"] == "applied"
    assert "down:S2->L5" in remediations[0]["links"]


#: A packet-scale closed loop small enough for a unit test.
SIMNET_SMALL = [
    "--engine", "simnet",
    "--leaves", "4",
    "--spines", "3",
    "--collective-gib", str(300_000 / (1 << 30)),
    "--mtu", "512",
    "--threshold", "0.03",
    "--drop-rate", "0.5",
    "--fault-link", "up:L1->S1",
]


def test_closed_loop_simnet_keeps_typed_fabric_values(capsys):
    # 5 is also the fastsim default; it must not be swapped for
    # simnet's own default of 8.
    code = main(["closed-loop", *SIMNET_SMALL, "--iterations", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "iterations completed: 5/5" in out
    assert "DISABLED" in out


def test_closed_loop_fastsim_honours_fault_link(capsys):
    code = main(
        ["closed-loop", *SMALL, "--iterations", "6", "--fault-link", "up:L2->S1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fastsim closed loop: up:L2->S1 drops" in out
    disabled = [line for line in out.splitlines() if "DISABLED" in line]
    assert disabled and "up:L2->S1" in disabled[0]


@pytest.mark.parametrize("engine_args", [SMALL, SIMNET_SMALL], ids=["fastsim", "simnet"])
def test_closed_loop_honours_predictor(engine_args, capsys):
    # A fault present from iteration 0: the analytical even split flags
    # it, while the learned baseline measures the faulty fabric as
    # normal and never alarms (the documented caveat).
    run = ["closed-loop", *engine_args, "--iterations", "6", "--fault-start", "0"]
    assert main([*run, "--predictor", "analytical"]) == 0
    assert "ALARM" in capsys.readouterr().out
    assert main([*run, "--predictor", "learned"]) == 1
    assert "ALARM" not in capsys.readouterr().out


def test_closed_loop_refuses_simulation_predictor(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["closed-loop", *SMALL, "--predictor", "simulation"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'simulation'" in capsys.readouterr().err


def test_closed_loop_simnet_events_out_records_remediation(tmp_path, capsys):
    from repro.telemetry import read_jsonl

    path = tmp_path / "loop.jsonl"
    code = main(
        [
            "closed-loop",
            "--engine", "simnet",
            "--leaves", "4",
            "--spines", "3",
            "--collective-gib", str(300_000 / (1 << 30)),
            "--mtu", "512",
            "--iterations", "6",
            "--threshold", "0.03",
            "--drop-rate", "0.5",
            "--fault-start", "1",
            "--fault-link", "up:L1->S1",
            "--events-out", str(path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    events = read_jsonl(path)
    remediations = [e for e in events if e["type"] == "closedloop.remediation"]
    assert remediations and remediations[0]["outcome"] == "applied"
    assert remediations[0]["job_id"] == 1
    assert "up:L1->S1" in remediations[0]["links"]


def test_report_verb_builds_bundle_from_chaos_events(
    chaos_events_path, tmp_path, capsys
):
    out = tmp_path / "forensics"
    code = main(["report", str(chaos_events_path), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "report.html" in stdout
    assert (out / "runs.csv").exists()
    assert (out / "report.html").exists()
    html = (out / "report.html").read_text()
    assert "http://" not in html and "https://" not in html


def test_report_verb_missing_input_exits_two(tmp_path, capsys):
    code = main(
        ["report", str(tmp_path / "no.jsonl"), "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_report_verb_unclassifiable_input_exits_two(tmp_path, capsys):
    weird = tmp_path / "evidence.txt"
    weird.write_text("{}\n")
    code = main(["report", str(weird), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot classify" in err


def test_report_verb_flags_dropped_lines(chaos_events_path, tmp_path, capsys):
    truncated = tmp_path / chaos_events_path.name
    shutil.copy(chaos_events_path, truncated)
    with open(truncated, "a") as handle:
        handle.write('{"type": "audit.le')  # truncated by a kill
    code = main(
        ["report", str(truncated), "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert code == 1  # data loss is a forensics finding, not a crash
    assert "malformed" in captured.err
    code = main(
        [
            "report", str(truncated),
            "--out", str(tmp_path / "o2"),
            "--strict",
        ]
    )
    assert code == 2  # strict mode treats it as unusable input
    capsys.readouterr()


# ----------------------------------------------------------------------
# greylab verb
# ----------------------------------------------------------------------
def test_greylab_single_cell_writes_csv(tmp_path, capsys):
    from repro.report.tables import read_csv

    out = tmp_path / "grey.csv"
    code = main(
        [
            "greylab",
            "--kinds", "gray_conditional",
            "--sprays", "random",
            "--levels", "none",
            "--seeds-per-cell", "1",
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "gray_conditional" in captured
    (row,) = read_csv(out)
    assert row["kind"] == "gray_conditional"
    assert row["spray"] == "random"
    assert row["detections"] == 1
    assert row["false_positives"] == 0


def test_greylab_rejects_unknown_spray(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["greylab", "--sprays", "zigzag"])
    capsys.readouterr()
