"""Routing tests: determinism, spread, and consistency of the ring."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.experiments import ExperimentConfig
from repro.core.blocks import IterationSegment
from repro.fleet import (
    FleetError,
    RecordBatch,
    ShardRouter,
    build_monitor,
    decode_batch,
    decode_batch_segment,
    describe_assignment,
    encode_batch,
)
from repro.fleet.codec import JobConfig

from ..core.test_blocks import assert_verdict_parity
from .test_codec import assert_same_segment

JOB_IDS = list(range(1, 201))


def test_router_is_deterministic_across_instances():
    a = ShardRouter(4)
    b = ShardRouter(4)
    assert a.assignment(JOB_IDS) == b.assignment(JOB_IDS)


def test_router_rejects_bad_config():
    with pytest.raises(FleetError):
        ShardRouter(0)
    with pytest.raises(FleetError):
        ShardRouter(2, n_replicas=0)


def test_every_shard_gets_work():
    for n_shards in (2, 3, 4, 8):
        assignment = describe_assignment(ShardRouter(n_shards), JOB_IDS)
        assert assignment.min_load > 0, f"an empty shard at n_shards={n_shards}"
        assert sum(assignment.jobs_per_shard.values()) == len(JOB_IDS)


def test_spread_is_roughly_balanced():
    assignment = describe_assignment(ShardRouter(4), JOB_IDS)
    mean = len(JOB_IDS) / 4
    assert assignment.max_load < 2.5 * mean


def test_consistency_under_shard_growth():
    """Growing N -> N+1 shards must move a minority of jobs (the point
    of consistent hashing; modulo hashing moves nearly all of them)."""
    before = ShardRouter(4).assignment(JOB_IDS)
    after = ShardRouter(5).assignment(JOB_IDS)
    moved = sum(1 for job in JOB_IDS if before[job] != after[job])
    assert moved / len(JOB_IDS) < 0.5
    # and jobs that moved all moved to the new shard's territory or by
    # ring adjacency, never a global reshuffle
    assert moved > 0  # the new shard did take over something


def test_shard_for_range():
    router = ShardRouter(3)
    for job in JOB_IDS:
        assert 0 <= router.shard_for(job) < 3


def test_build_monitor_is_deterministic():
    experiment = ExperimentConfig(n_leaves=6, n_spines=3, job_id=5)
    job = JobConfig(job_id=5, experiment=experiment, base_seed=3, trial=5)
    first = build_monitor(job)
    second = build_monitor(job)
    prediction_a = first.predictor.predict()
    prediction_b = second.predictor.predict()
    for leaf in range(experiment.n_leaves):
        assert prediction_a.for_leaf(leaf).port_bytes == prediction_b.for_leaf(leaf).port_bytes


@pytest.mark.parametrize("some_floats", [False, True])
def test_v1_lines_score_as_their_record_lists_do(small_workload, some_floats):
    """What a worker now does with a v1 line — segment, dense pass,
    columnar verdict — against what it did — record list, scalar oracle:
    equal in every form a verdict takes (``==``, hash, repr, pickled
    before and after ``results`` is read), int and mixed streams alike."""
    jobs, batches = small_workload
    if some_floats:  # integral floats on odd ports: same arithmetic, other column type
        batches = [
            RecordBatch.from_records(
                [
                    replace(
                        record,
                        port_bytes={
                            port: float(size) if port % 2 else size
                            for port, size in record.port_bytes.items()
                        },
                    )
                    for record in batch.records()
                ]
            )
            for batch in batches
        ]
    for job in jobs:
        lines = [encode_batch(b) for b in batches if b.job_id == job.job_id]
        segments = [decode_batch_segment(line) for line in lines]
        for segment, line in zip(segments, lines):
            assert_same_segment(
                segment, IterationSegment.from_records(list(decode_batch(line).records))
            )
        got = build_monitor(job).process_block(segments)
        reference = build_monitor(job).process_block(
            [list(decode_batch(line).records) for line in lines]
        )
        assert all(verdict._dense is not None for verdict in got)
        assert any(verdict.triggered for verdict in got) == bool(job.faulted)
        assert_verdict_parity(got, reference)
