"""End-to-end pipeline tests: evidence -> bundle on disk."""

from __future__ import annotations

import re

import pytest

from repro.analysis import ExperimentConfig
from repro.fleet import LoadGenConfig, write_workload
from repro.report import ReportError, build_report, classify_input

from .test_extract import scenario_stream, write_events


@pytest.fixture(scope="module")
def workload_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fprec") / "workload.fprec"
    config = LoadGenConfig(
        n_jobs=2,
        n_iterations=5,
        fault_fraction=0.5,
        base_seed=3,
        experiment=ExperimentConfig(
            n_leaves=6,
            n_spines=3,
            collective_bytes=1 << 30,
            warmup_iterations=2,
        ),
    )
    write_workload(config, path)
    return path


def test_classify_input():
    assert classify_input("a.jsonl") == "events"
    assert classify_input("b.LOG") == "events"
    assert classify_input("c.fprec") == "fprec"
    with pytest.raises(ReportError):
        classify_input("d.txt")


def test_build_report_from_events_writes_bundle(tmp_path):
    events = write_events(tmp_path / "ev.jsonl", scenario_stream())
    out = tmp_path / "out"
    bundle = build_report([events], out)
    assert bundle.exit_status == 0
    assert (out / "runs.csv").exists()
    assert (out / "incidents.csv").exists()
    html = (out / "report.html").read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert bundle.analysis.stats.n_detected == 1


def test_report_html_is_self_contained(tmp_path):
    events = write_events(tmp_path / "ev.jsonl", scenario_stream())
    bundle = build_report([events], tmp_path / "out")
    html = bundle.html_path.read_text()
    assert not re.search(r"https?://", html)
    assert "<script" not in html
    assert "<svg" in html  # sparklines are inline
    assert "@media (prefers-color-scheme: dark)" in html
    # link names contain ">" and must arrive escaped, not raw
    assert "up:L2&gt;S0" in html
    assert "up:L2>S0" not in html.replace("up:L2&gt;S0", "")


def test_build_report_is_byte_deterministic(tmp_path, workload_path):
    events = write_events(tmp_path / "ev.jsonl", scenario_stream())
    first = build_report([events, workload_path], tmp_path / "a")
    second = build_report([events, workload_path], tmp_path / "b")
    for table, path in first.csv_paths.items():
        assert path.read_bytes() == second.csv_paths[table].read_bytes(), table
    assert first.html_path.read_bytes() == second.html_path.read_bytes()


def test_fprec_capture_alone_yields_full_fact_set(tmp_path, workload_path):
    bundle = build_report([workload_path], tmp_path / "out")
    facts = bundle.facts
    runs = facts.rows("runs")
    assert len(runs) == 2  # one run per job
    assert {row["kind"] for row in runs} == {"fleet"}
    faulted = [row for row in runs if row["detectable"]]
    assert len(faulted) == 1
    assert faulted[0]["detection_iteration"] is not None
    assert facts.rows("incidents"), "faulted job must yield an incident"
    assert facts.rows("leaf_observations")
    # ground truth from the capture judges the detection
    assert bundle.analysis.stats.n_detected == 1
    assert bundle.analysis.stats.n_false_alarms == 0
    assert bundle.exit_status == 0


def test_incident_facts_agree_between_stream_and_replay(tmp_path, workload_path):
    """The same capture's incidents must be identical whether they come
    from a live --incidents-out stream or offline re-derivation."""
    from repro.fleet import read_fprec
    from repro.fleet.aggregate import FleetAggregator
    from repro.fleet.service import reference_verdicts
    from repro.telemetry.events import EventLog

    content = read_fprec(workload_path)
    log = EventLog()
    aggregator = FleetAggregator(event_log=log)
    for job_id, verdicts in reference_verdicts(
        content.jobs, content.batches
    ).items():
        for verdict in verdicts:
            aggregator.observe(job_id, verdict)
    aggregator.finalize()
    stream = tmp_path / "incidents.jsonl"
    log.dump_jsonl(stream)

    streamed = build_report([stream], tmp_path / "a").facts.rows("incidents")
    rederived = build_report([workload_path], tmp_path / "b").facts.rows("incidents")
    strip = lambda row: {k: v for k, v in row.items() if k != "run"}
    assert [strip(r) for r in streamed] == [strip(r) for r in rederived]


def test_fprec_facts_equal_the_audit_trail(tmp_path, workload_path):
    """A capture's detection facts are the ones its jobs' audit trails
    give: each job's monitor, rebuilt with a telemetry session attached
    and fed its batches, writes a JSONL log that yields the same rows."""
    from repro.fleet import read_fprec
    from repro.fleet.shard import build_monitor
    from repro.report import extract_events, extract_fprec
    from repro.telemetry import TelemetrySession

    content = read_fprec(workload_path)
    monitors = {job.job_id: build_monitor(job) for job in content.jobs}
    for monitor in monitors.values():
        monitor.telemetry = TelemetrySession()
    for batch in content.batches:
        monitors[batch.job_id].process_iteration(list(batch.records))
    rederived = extract_fprec(workload_path)

    def unlabelled(rows):
        return [{k: v for k, v in row.items() if k not in ("run", "job_id")} for row in rows]

    tables = ("iterations", "leaf_observations", "alarms", "localizations")
    for job_id, monitor in monitors.items():
        log = tmp_path / f"job{job_id}.jsonl"
        monitor.telemetry.write_jsonl(log)
        audited = extract_events(log, default_job_id=job_id)
        for table in tables:
            expected = [row for row in rederived.rows(table) if row["job_id"] == job_id]
            assert unlabelled(audited.rows(table)) == unlabelled(expected), (job_id, table)
    for table in tables:
        assert rederived.rows(table), f"the capture must exercise {table}"


def test_no_evidence_is_an_error(tmp_path):
    with pytest.raises(ReportError):
        build_report([], tmp_path / "out")


def test_unreadable_fprec_is_report_error(tmp_path):
    bad = tmp_path / "bad.fprec"
    bad.write_text("this is not a capture\n")
    with pytest.raises(ReportError):
        build_report([bad], tmp_path / "out")


def test_no_html_flag_skips_rendering(tmp_path):
    events = write_events(tmp_path / "ev.jsonl", scenario_stream())
    bundle = build_report([events], tmp_path / "out", write_html=False)
    assert bundle.html_path is None
    assert not (tmp_path / "out" / "report.html").exists()
