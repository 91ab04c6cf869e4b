"""Service tests: golden parity, backpressure, metrics, validation."""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.analysis.experiments import ExperimentConfig, build_trial
from repro.core.blocks import SEGMENT_COLUMNS, IterationSegment
from repro.fleet import (
    CodecError,
    FleetConfig,
    FleetError,
    FleetService,
    JobConfig,
    encode_batch,
    reference_verdicts,
    serve_workload,
    shard,
)
from repro.fleet.loadgen import job_records

from .test_codec import NON_JSON_INTS, with_head_field


def metric(result, name, label=None):
    total = 0
    for entry in result.metrics:
        if entry.get("name") != name:
            continue
        if label is not None and entry["labels"].get("shard") != label:
            continue
        total += entry["value"]
    return total


@contextlib.contextmanager
def held_service(monkeypatch, config: FleetConfig, jobs):
    """A started one-shard service with every job registered and its
    worker held inside the last registration until the block ends.  A
    control message ends the worker's wake-up, and the held one reports
    nothing taken, so what the block submits is all in the inbox (the
    pipe, or the parent-side tail once the depth is used up) when the
    worker wakes, whatever the two processes' relative speed."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the hold is a patch the worker inherits by fork")
    assert config.n_shards == 1
    gate = multiprocessing.Event()
    build_monitor = shard.build_monitor

    def held_build(job):
        monitor = build_monitor(job)
        if job.job_id == jobs[-1].job_id:
            gate.wait(timeout=60)
        return monitor

    monkeypatch.setattr(shard, "build_monitor", held_build)
    service = FleetService(config)
    with service:
        for job in jobs:
            service.submit_job(job)
        deadline = time.monotonic() + 60
        while service._inboxes[0].pending > 1:  # all but the last one taken
            assert time.monotonic() < deadline
            service._wait_for_output(timeout=1.0)
        try:
            yield service
        finally:
            gate.set()


# ----------------------------------------------------------------------
# Golden parity: the non-negotiable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("wire_version", [1, 2])
@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_golden_parity_across_shard_counts(small_workload, n_shards, wire_version):
    """Streaming through the service yields bit-identical verdict
    sequences to a direct single-process monitor feed — at every shard
    count and both wire versions."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    result = serve_workload(
        jobs,
        batches,
        FleetConfig(
            n_shards=n_shards, return_verdicts=True, wire_version=wire_version
        ),
    )
    assert result.errors == []
    for job in jobs:
        got = result.verdicts_for(job.job_id)
        want = reference[job.job_id]
        assert len(got) == len(want)
        assert got == want, f"verdicts diverge for job {job.job_id}"


def test_golden_parity_with_tiny_queue(small_workload):
    """Queue depth must not affect results under the block policy."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    result = serve_workload(
        jobs,
        batches,
        FleetConfig(n_shards=2, queue_depth=1, policy="block", return_verdicts=True),
    )
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


@pytest.mark.parametrize("wire_version", [1, 2])
def test_parity_with_pre_encoded_units(small_workload, wire_version):
    """The encode -> peek -> route -> decode path is lossless for JSON
    lines and binary frames alike."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    units = [encode_batch(batch, version=wire_version) for batch in batches]
    result = serve_workload(
        jobs, units, FleetConfig(n_shards=2, return_verdicts=True)
    )
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


def test_parity_with_coalescing_disabled(small_workload):
    """coalesce=1 degenerates to one-batch-at-a-time scoring; verdicts
    must not depend on how the worker groups its wake-ups."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    result = serve_workload(
        jobs,
        batches,
        FleetConfig(n_shards=2, return_verdicts=True, wire_version=2, coalesce=1),
    )
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


def test_config_rejects_bad_wire_version_and_coalesce():
    with pytest.raises(FleetError, match="wire version"):
        FleetConfig(wire_version=3)
    with pytest.raises(FleetError, match="coalesce"):
        FleetConfig(coalesce=0)


def test_config_rejects_non_positive_quiet_gap():
    with pytest.raises(FleetError, match="quiet_gap"):
        FleetConfig(quiet_gap=0)


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_block_policy_never_loses_records(small_workload):
    jobs, batches = small_workload
    result = serve_workload(
        jobs, batches, FleetConfig(n_shards=2, queue_depth=2, policy="block")
    )
    assert result.shed_records == 0
    assert result.processed_records == result.submitted_records
    assert result.processed_batches == len(batches)


def test_shed_oldest_counts_drops_and_completes(small_workload, monkeypatch):
    """A one-deep queue forces shedding; the run still completes, every
    drop is counted, and accounting balances exactly.  The worker is
    held while the batches arrive, so each one evicts its predecessor
    and only the last is left to score."""
    jobs, batches = small_workload
    config = FleetConfig(n_shards=1, queue_depth=1, policy="shed-oldest")
    with held_service(monkeypatch, config, jobs) as service:
        for batch in batches:
            service.submit(batch)
    result = service.result
    assert result.shed_batches == len(batches) - 1
    assert result.shed_records == sum(batch.n_records for batch in batches[:-1])
    assert result.processed_batches == 1
    assert result.processed_records + result.shed_records == result.submitted_records
    assert metric(result, "fleet.shed_records") == result.shed_records
    assert metric(result, "fleet.jobs") == len(jobs)


def test_shed_never_drops_job_registrations(small_workload):
    """Control messages survive shedding: every job's monitor exists, so
    no batch lands in the unknown-job counter."""
    jobs, batches = small_workload
    result = serve_workload(
        jobs,
        batches,
        FleetConfig(n_shards=1, queue_depth=1, policy="shed-oldest"),
    )
    assert metric(result, "fleet.unknown_job_batches") == 0


def test_config_validation():
    with pytest.raises(FleetError):
        FleetConfig(n_shards=0)
    with pytest.raises(FleetError):
        FleetConfig(queue_depth=0)
    with pytest.raises(FleetError):
        FleetConfig(policy="drop-newest")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_fleet_metrics_snapshot(small_workload):
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    total_records = sum(batch.n_records for batch in batches)
    assert metric(result, "fleet.records") == total_records
    assert metric(result, "fleet.batches") == len(batches)
    assert metric(result, "fleet.submitted_records") == total_records
    # per-shard detection latency histograms made it across the process
    # boundary and cover every batch
    latency = [
        entry
        for entry in result.metrics
        if entry.get("name") == "fleet.detection_latency_s"
    ]
    assert len(latency) == 2
    assert sum(entry["count"] for entry in latency) == len(batches)
    assert all(entry["sum"] >= 0.0 for entry in latency)
    # queue depth was sampled at the frontend
    depth_samples = [
        entry
        for entry in result.metrics
        if entry.get("name") == "fleet.queue_depth_samples"
    ]
    assert depth_samples and depth_samples[0]["count"] == len(batches)


# ----------------------------------------------------------------------
# Validation and incidents
# ----------------------------------------------------------------------
def test_validation_against_ground_truth(small_workload):
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    validation = result.validate()
    assert validation.checked == len(jobs)
    assert validation.ok, (validation.missed, validation.false_alarms)
    faulted = {job.job_id for job in jobs if job.faulted}
    assert {incident.job_id for incident in result.incidents} == faulted


def test_incidents_deduplicate_iterations(small_workload):
    """A persistent fault alarms many iterations but yields one incident
    per (job, link), with the span rolled up."""
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    keys = [(incident.job_id, incident.link) for incident in result.incidents]
    assert len(keys) == len(set(keys))
    assert any(incident.n_iterations > 1 for incident in result.incidents)
    for incident in result.incidents:
        assert incident.first_seen <= incident.last_seen
        assert incident.worst_deviation < 0  # deficits are negative


def test_faulted_job_incident_names_the_injected_link(small_workload):
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    for job in jobs:
        if job.faulted:
            links = {incident.link for incident in result.incidents_for(job.job_id)}
            assert job.fault_link in links


def test_incident_log_lifecycle(small_workload):
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    log = result.incident_log
    assert log is not None
    opened = log.of_type("incident.opened")
    closed = log.of_type("incident.closed")
    assert len(opened) == len(result.incidents)
    assert len(closed) == len(result.incidents)


# ----------------------------------------------------------------------
# Protocol robustness
# ----------------------------------------------------------------------
def test_unknown_job_batches_counted_not_fatal(small_workload):
    jobs, batches = small_workload
    stranger = [batch for batch in batches if batch.job_id == jobs[0].job_id]
    result = serve_workload(jobs[1:], stranger + batches[:0], FleetConfig(n_shards=1))
    assert metric(result, "fleet.unknown_job_batches") == len(stranger)
    assert result.errors == []


def test_malformed_line_reported_not_fatal(small_workload):
    jobs, batches = small_workload
    service = FleetService(FleetConfig(n_shards=1))
    with service:
        for job in jobs:
            service.submit_job(job)
        # declares two records but carries none: decodes must fail in the
        # worker, be reported, and not take the shard down
        service.submit_encoded('["fprec",1,"b",%d,2,0,"allreduce",[]]' % jobs[0].job_id)
        for batch in batches[:3]:
            service.submit(batch)
    result = service.result
    assert result.processed_batches == 3  # the good ones still flowed
    assert len(result.errors) == 1
    assert metric(result, "fleet.worker_errors") == 1


def test_head_the_decoders_refuse_is_refused_at_submit(small_workload):
    """A unit whose job id the decoders refuse (``+1``, ``1_0``, ...) is
    refused by ``submit_encoded`` itself: it is never routed or counted,
    so ``processed + shed == submitted`` still holds and no worker
    reports an error."""
    jobs, batches = small_workload
    service = FleetService(FleetConfig(n_shards=2))
    with service:
        for job in jobs:
            service.submit_job(job)
        for field in NON_JSON_INTS.values():
            with pytest.raises(CodecError):
                service.submit_encoded(with_head_field(encode_batch(batches[0]), 3, field))
        for batch in batches[:3]:
            service.submit(batch)
    result = service.result
    assert result.errors == []
    assert result.submitted_batches == result.processed_batches == 3
    assert result.processed_records + result.shed_records == result.submitted_records


@pytest.mark.parametrize("poison", ["null", '"abc"', "true", "[1]"])
def test_non_numeric_counter_costs_one_error_not_the_shard(
    small_workload, monkeypatch, poison
):
    """A v1 line whose counter is not a number, coalesced between two
    good batches of the same job: one typed decode error, its neighbours
    scored, the worker alive, and every submitted batch accounted for.
    (``null`` and ``[1]`` used to kill the worker inside the detector,
    ``"abc"`` dropped the job's whole flush, ``true`` was scored as 1.)"""
    jobs, batches = small_workload
    before, poisoned, after = [
        batch for batch in batches if batch.job_id == jobs[0].job_id
    ][:3]
    payload = json.loads(encode_batch(poisoned))
    payload[7][1][3][0][1] = 987654321
    line = json.dumps(payload, separators=(",", ":")).replace("987654321", poison)
    with held_service(monkeypatch, FleetConfig(n_shards=1), jobs) as service:
        service.submit(before)
        service.submit_encoded(line)
        service.submit(after)
    result = service.result
    assert len(result.errors) == 1 and "CodecError" in result.errors[0]
    assert metric(result, "fleet.worker_errors") == 1
    assert result.processed_batches == 2
    assert result.processed_records == before.n_records + after.n_records
    assert result.submitted_batches == 3
    assert result.shed_batches == 0


def test_submit_before_start_raises(small_workload):
    jobs, batches = small_workload
    service = FleetService(FleetConfig(n_shards=1))
    with pytest.raises(FleetError, match="not started"):
        service.submit(batches[0])
    with pytest.raises(FleetError, match="not started"):
        service.submit_job(jobs[0])


def doctored(segment: IterationSegment, **columns) -> IterationSegment:
    """A fresh segment with ``segment``'s tag and columns, some replaced."""
    fields = {name: getattr(segment, name).copy() for name in SEGMENT_COLUMNS}
    fields.update(columns)
    return IterationSegment(segment.job_id, segment.iteration, segment.collective, **fields)


def outside_the_fabric(segment: IterationSegment) -> IterationSegment:
    """Every leaf id moved 100 past the job's fabric."""
    return doctored(segment, leaves=segment.leaves + 100)


def stray_unit_among_valid_batches(workload, make_unit):
    """The workload's last job gets one doctored unit and nothing else,
    in the middle of the other jobs' batches.  Returns the stream and
    those other jobs' batches."""
    jobs, batches = workload
    stray = jobs[-1].job_id
    valid = [batch for batch in batches if batch.job_id != stray]
    unit = make_unit(next(batch for batch in batches if batch.job_id == stray))
    middle = len(valid) // 2
    return valid[:middle] + [unit] + valid[middle:], valid


def submit_stream(service, stream):
    for entry in stream:
        if isinstance(entry, (str, bytes)):
            service.submit_encoded(entry)
        else:
            service.submit(entry)


def assert_one_error_and_the_rest_scored(result, jobs, valid, error):
    """One worker error naming ``error``; the last job (the stray
    unit's) has no verdict and every other job the direct feed's."""
    assert len(result.errors) == 1 and error in result.errors[0], result.errors
    assert metric(result, "fleet.worker_errors") == 1
    assert result.processed_batches == len(valid)
    reference = reference_verdicts(jobs[:-1], valid)
    for job in jobs[:-1]:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]
    assert result.verdicts_for(jobs[-1].job_id) == []


@pytest.mark.parametrize("wire_version", [1, 2])
def test_leaf_outside_the_fabric_costs_one_error_not_the_shard(
    workload_8x4, monkeypatch, wire_version
):
    """One unit whose leaf ids lie outside its 8x4 job's fabric, in one
    flush with two other jobs' batches: one ``PredictionError``, every
    other batch scored exactly as the direct feed scores it, and
    ``close()`` returns.  (The leaf used to index past the prediction
    and kill the worker with an ``IndexError``.)"""
    jobs, _batches = workload_8x4
    stream, valid = stray_unit_among_valid_batches(
        workload_8x4,
        lambda segment: encode_batch(outside_the_fabric(segment), version=wire_version),
    )
    config = FleetConfig(n_shards=1, return_verdicts=True, wire_version=wire_version)
    with held_service(monkeypatch, config, jobs) as service:
        submit_stream(service, stream)
    assert_one_error_and_the_rest_scored(service.result, jobs, valid, "PredictionError")


def repeated_key(segment: IterationSegment, table: str) -> IterationSegment:
    """The first record names its first port (or sender) key twice:
    the second slot takes the first's key and keeps its own bytes."""
    if table == "port":
        keys = segment.port_keys.copy()
        keys[1] = keys[0]
        return doctored(segment, port_keys=keys)
    spines, srcs = segment.sender_spines.copy(), segment.sender_srcs.copy()
    spines[1], srcs[1] = spines[0], srcs[0]
    return doctored(segment, sender_spines=spines, sender_srcs=srcs)


@pytest.mark.parametrize("table", ["port", "sender"])
@pytest.mark.parametrize("wire_version", [1, 2])
def test_repeated_key_is_never_scored_from_a_collapsed_dict(
    workload_8x4, monkeypatch, wire_version, table
):
    """A unit whose first record repeats a key, in one flush with two
    other jobs' batches.  No verdict is built from a dict that kept one
    of the two values: a v1 line fails to decode, and a v2 frame whose
    port keys repeat misses the dense plan and fails where the scalar
    path builds its records.  A v2 frame whose *sender* keys repeat is
    the one unit that scores: the dense pass never reads sender
    columns, and the doctored quiet unit is scored on its port columns
    exactly as the untouched unit is."""
    jobs, batches = workload_8x4
    healthy = next(job for job in jobs if not job.faulted)
    jobs = [job for job in jobs if job is not healthy] + [healthy]
    stream, valid = stray_unit_among_valid_batches(
        (jobs, batches),
        lambda segment: encode_batch(repeated_key(segment, table), version=wire_version),
    )
    config = FleetConfig(n_shards=1, return_verdicts=True, wire_version=wire_version)
    with held_service(monkeypatch, config, jobs) as service:
        submit_stream(service, stream)
    result = service.result
    if wire_version == 2 and table == "sender":
        original = next(batch for batch in batches if batch.job_id == healthy.job_id)
        assert result.errors == []
        assert result.verdicts_for(healthy.job_id) == (
            reference_verdicts([healthy], [original])[healthy.job_id]
        )
        return
    error = "CodecError" if wire_version == 1 else "BlockError"
    assert_one_error_and_the_rest_scored(result, jobs, valid, error)


def mixed_workload(n_iterations: int = 6):
    """Eight jobs over two fabric shapes and both predictors (one
    learned job with its own threshold), every third job faulted,
    interleaved iteration-major as the load generator does."""
    templates = [
        ExperimentConfig(n_leaves=8, n_spines=4, collective_bytes=1 << 30),
        ExperimentConfig(n_leaves=8, n_spines=4, collective_bytes=1 << 30, predictor="learned"),
        ExperimentConfig(n_leaves=32, n_spines=16, collective_bytes=8 << 30),
        ExperimentConfig(
            n_leaves=8, n_spines=4, collective_bytes=1 << 30, predictor="learned",
            threshold=0.02,
        ),
    ]
    jobs = []
    for job_id, template in enumerate(templates * 2, start=1):
        experiment = replace(template, job_id=job_id, n_iterations=n_iterations)
        faulted = job_id % 3 == 0
        setup = build_trial(experiment, base_seed=7, trial=job_id)
        jobs.append(
            JobConfig(
                job_id=job_id, experiment=experiment, base_seed=7, trial=job_id,
                faulted=faulted, fault_link=setup.fault_link if faulted else None,
            )
        )
    streams = [job_records(None, job) for job in jobs]
    return jobs, [stream[i] for i in range(n_iterations) for stream in streams]


@pytest.mark.parametrize("wire_version", [1, 2])
def test_golden_parity_one_shard_mixed_shapes_and_predictors(wire_version):
    """At one shard every flush holds every job: 8x4 and 32x16 monitors,
    analytical and learned (warm-up skips included), share each
    scoring pass, and the verdicts still equal the direct feed's."""
    jobs, batches = mixed_workload()
    reference = reference_verdicts(jobs, batches)
    result = serve_workload(
        jobs, batches,
        FleetConfig(n_shards=1, return_verdicts=True, wire_version=wire_version),
    )
    assert result.errors == []
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]
    assert any(v.skipped for job in jobs for v in reference[job.job_id])
    assert any(v.triggered for job in jobs for v in reference[job.job_id])
