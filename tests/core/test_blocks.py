"""Columnar segments and vectorized block scoring.

The load-bearing property is golden parity: for any block composition
(segments or raw record lists, any chunking, any predictor),
``process_block`` must produce verdicts bit-identical to feeding the
same iterations one at a time through ``process_iteration``.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentConfig, build_trial, demand_for, make_predictor
from repro.core.blocks import BlockError, IterationSegment, as_floats, segments_from_run
from repro.core.detection import DetectionConfig
from repro.core.monitor import FlowPulseMonitor, RunVerdict, process_blocks
from repro.core.prediction import PredictionError
from repro.core.prediction.learning import LearningEvent
from repro.fastsim.model import run_iterations, run_segments
from repro.simnet.counters import IterationRecord
from repro.simnet.packet import FlowTag
from repro.telemetry import TelemetrySession


def make_record(leaf=0, iteration=0, port_bytes=None, sender_bytes=None):
    return IterationRecord(
        leaf=leaf,
        tag=FlowTag(job_id=7, iteration=iteration),
        port_bytes=port_bytes if port_bytes is not None else {0: 1000, 1: 2000},
        sender_bytes=sender_bytes if sender_bytes is not None else {(0, 1): 400},
        start_ns=10,
        end_ns=50,
    )


def experiment(**overrides) -> ExperimentConfig:
    defaults = dict(
        n_leaves=6,
        n_spines=3,
        collective_bytes=1 << 30,
        n_iterations=10,
        fault_start_iteration=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run_records(
    config: ExperimentConfig, faulted=True, trial=0, heals_at=None, simulate=run_iterations
):
    """``heals_at``: the fault is there from iteration 0 and gone from
    that iteration on (pollutes a learned baseline, then heals)."""
    setup = build_trial(config, base_seed=3, trial=trial)

    def schedule(iteration):
        if heals_at is not None:
            return {setup.fault_link: config.drop_rate} if iteration < heals_at else {}
        if faulted and iteration >= config.fault_start_iteration:
            return {setup.fault_link: config.drop_rate}
        return {}

    iterations = simulate(
        setup.model,
        demand_for(config),
        config.n_iterations,
        seed=11,
        job_id=config.job_id,
        fault_schedule=schedule,
    )
    return setup, iterations


def fresh_monitor(config: ExperimentConfig, setup) -> FlowPulseMonitor:
    return FlowPulseMonitor(
        make_predictor(config, setup), DetectionConfig(threshold=config.threshold)
    )


def columnar(iterations) -> list[IterationSegment]:
    """Segments as they come off the wire: no cached record objects."""
    segments = segments_from_run(iterations)
    for segment in segments:
        segment._records = None
    return segments


def assert_verdict_parity(got, reference):
    """``got`` equals the oracle's verdicts in every form a verdict
    takes: pickled while still columnar, read, and pickled again after
    ``results`` was materialized — with equal hash and repr."""
    shipped_unread = pickle.loads(pickle.dumps(got, protocol=pickle.HIGHEST_PROTOCOL))
    assert [v.triggered for v in got] == [v.triggered for v in reference]
    assert [v.max_score for v in got] == [v.max_score for v in reference]
    assert shipped_unread == reference
    assert got == reference  # bit-identical IterationVerdicts (reads results)
    shipped_read = pickle.loads(pickle.dumps(got, protocol=pickle.HIGHEST_PROTOCOL))
    assert shipped_read == reference
    for form in (got, shipped_unread, shipped_read):
        assert [hash(v) for v in form] == [hash(v) for v in reference]
        assert [repr(v) for v in form] == [repr(v) for v in reference]


# ----------------------------------------------------------------------
# Segment construction and materialization
# ----------------------------------------------------------------------
def test_segment_round_trips_records():
    records = [make_record(leaf=leaf) for leaf in (2, 0, 1)]
    segment = IterationSegment.from_records(records)
    assert segment.n_records == 3
    assert segment.records() == records  # order preserved
    assert [int(leaf) for leaf in segment.leaves] == [2, 0, 1]


def test_segments_compare_by_column_values():
    records = [make_record(leaf=leaf) for leaf in (2, 0, 1)]
    segment = IterationSegment.from_records(records)
    same = columnar([records])[0]
    assert segment == same and not segment != same
    other_value = IterationSegment.from_records(
        [make_record(leaf=2, port_bytes={0: 1000, 1: 2001})] + records[1:]
    )
    other_tag = IterationSegment.from_records(
        [make_record(leaf=leaf, iteration=1) for leaf in (2, 0, 1)]
    )
    assert segment != other_value and segment != other_tag
    assert segment != records
    with pytest.raises(TypeError):
        hash(segment)


def test_segment_lazy_record_materialization():
    records = [
        make_record(leaf=0, port_bytes={3: 10, 1: 20.5}, sender_bytes={(1, 2): 7})
    ]
    segment = IterationSegment.from_records(records)
    segment._records = None  # force rebuild from columns (the wire path)
    rebuilt = segment.record(0)
    assert rebuilt == records[0]
    # exact value types survive the raw/flag columns
    assert type(rebuilt.port_bytes[3]) is int
    assert type(rebuilt.port_bytes[1]) is float


def test_record_reads_the_same_slices_records_does():
    """One leaf or all of them come off the same column slices: irregular
    port sets, an empty port table, an empty sender table, mixed types."""
    records = [
        make_record(leaf=4, port_bytes={0: 1, 2: 2.5, 5: -3}, sender_bytes={}),
        make_record(leaf=1, port_bytes={}, sender_bytes={(0, 1): 0.5, (0, 2): 2**63 - 1}),
        make_record(leaf=9, port_bytes={7: -(2**63)}, sender_bytes={(3, 3): 0}),
    ]
    segment = IterationSegment.from_records(records)
    segment._records = None
    one_by_one = [segment.record(j) for j in range(3)]
    assert one_by_one == records == segment.records()
    for rebuilt, record in zip(one_by_one, records):
        for got, want in (
            (rebuilt.port_bytes, record.port_bytes),
            (rebuilt.sender_bytes, record.sender_bytes),
        ):
            assert list(got) == sorted(want)
            assert [type(got[key]) for key in got] == [type(want[key]) for key in got]


def test_segment_rejects_empty_and_mixed_tags():
    with pytest.raises(BlockError, match="empty"):
        IterationSegment.from_records([])
    with pytest.raises(BlockError, match="mixed tags"):
        IterationSegment.from_records(
            [make_record(iteration=0), make_record(leaf=1, iteration=1)]
        )


def test_segment_rejects_out_of_range_ints():
    with pytest.raises(BlockError, match="64-bit"):
        IterationSegment.from_records([make_record(port_bytes={0: 2**70})])


def test_port_pattern_uniform():
    records = [make_record(leaf=leaf, port_bytes={2: 5, 0: 7}) for leaf in range(3)]
    segment = IterationSegment.from_records(records)
    assert list(segment.port_pattern()) == [0, 2]  # sorted within record
    values = as_floats(segment.port_raw, segment.port_flags)
    assert values.dtype == np.float64
    assert values.tolist() == [7.0, 5.0] * 3


def test_port_pattern_irregular_is_none():
    records = [
        make_record(leaf=0, port_bytes={0: 1, 1: 2}),
        make_record(leaf=1, port_bytes={0: 1, 2: 2}),  # different spine set
    ]
    segment = IterationSegment.from_records(records)
    assert segment.port_pattern() is None


def test_segments_from_run():
    config = experiment(n_iterations=4)
    _setup, iterations = run_records(config)
    segments = segments_from_run(iterations)
    assert len(segments) == 4
    assert all(s.n_records == config.n_leaves for s in segments)
    assert [s.iteration for s in segments] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# process_block golden parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("predictor", ["analytical", "simulation", "learned"])
@pytest.mark.parametrize("chunk", [1, 3, 10])
def test_process_block_parity_segments(predictor, chunk):
    config = experiment(predictor=predictor)
    setup, iterations = run_records(config)
    reference_monitor = fresh_monitor(config, setup)
    reference = [reference_monitor.process_iteration(list(r)) for r in iterations]
    assert any(v.triggered for v in reference)  # the fault is visible

    block_monitor = fresh_monitor(config, setup)
    segments = columnar(iterations)  # the columnar path end to end
    got = []
    for start in range(0, len(segments), chunk):
        got.extend(block_monitor.process_block(segments[start : start + chunk]))
    assert any(v._dense is not None for v in got)  # the vectorized pass ran
    assert_verdict_parity(got, reference)


@pytest.mark.parametrize("predictor", ["analytical", "simulation", "learned"])
@pytest.mark.parametrize("faulted", [True, False], ids=["faulted", "healthy"])
def test_process_run_on_simulator_segments_matches_record_lists(predictor, faulted):
    """``process_run`` fed the simulator's own segments returns the
    run verdict — and emits the audit trail — that sequential scoring
    of the record lists does."""
    config = experiment(predictor=predictor)
    setup, segments = run_records(config, faulted=faulted, simulate=run_segments)
    reference_session, session = TelemetrySession(), TelemetrySession()
    oracle = FlowPulseMonitor(
        make_predictor(config, setup), DetectionConfig(threshold=config.threshold),
        telemetry=reference_session,
    )
    reference = RunVerdict([oracle.process_iteration(s.records()) for s in segments])
    assert reference.triggered == faulted

    monitor = FlowPulseMonitor(
        make_predictor(config, setup), DetectionConfig(threshold=config.threshold),
        telemetry=session,
    )
    _setup, fresh = run_records(config, faulted=faulted, simulate=run_segments)
    got = monitor.process_run(fresh)
    assert any(v._dense is not None for v in got.verdicts)  # the vectorized pass ran
    assert got == reference
    assert [hash(v) for v in got.verdicts] == [hash(v) for v in reference.verdicts]
    assert repr(got) == repr(reference)
    assert got.suspected_links() == reference.suspected_links()
    assert list(session.events) == list(reference_session.events)
    assert session.registry.snapshot() == reference_session.registry.snapshot()


def test_process_block_parity_record_lists():
    """Raw record lists (the v1 worker path) take the scalar oracle
    inside process_block and still match exactly."""
    config = experiment()
    setup, iterations = run_records(config)
    reference_monitor = fresh_monitor(config, setup)
    reference = [reference_monitor.process_iteration(list(r)) for r in iterations]

    block_monitor = fresh_monitor(config, setup)
    got = block_monitor.process_block([list(r) for r in iterations])
    assert all(v._dense is None for v in got)
    assert_verdict_parity(got, reference)


def test_process_block_parity_mixed_entries():
    config = experiment()
    setup, iterations = run_records(config)
    reference_monitor = fresh_monitor(config, setup)
    reference = [reference_monitor.process_iteration(list(r)) for r in iterations]

    block_monitor = fresh_monitor(config, setup)
    entries = [
        IterationSegment.from_records(list(r)) if index % 2 == 0 else list(r)
        for index, r in enumerate(iterations)
    ]
    assert_verdict_parity(block_monitor.process_block(entries), reference)


def test_process_block_empty():
    config = experiment()
    setup, _iterations = run_records(config)
    assert fresh_monitor(config, setup).process_block([]) == []


def test_process_block_healthy_quiet_path_is_dense():
    """A healthy run is the vectorized fast path end to end: every
    verdict quiet, none skipped after warmup, and still bit-identical."""
    config = experiment()
    setup, iterations = run_records(config, faulted=False)
    reference_monitor = fresh_monitor(config, setup)
    reference = [reference_monitor.process_iteration(list(r)) for r in iterations]
    assert not any(v.triggered for v in reference)

    block_monitor = fresh_monitor(config, setup)
    got = block_monitor.process_block(columnar(iterations))
    assert got == reference
    # lazy details (ports/deviations) must match too, not just scores
    for ours, ref in zip(got, reference):
        for a, b in zip(ours.results, ref.results):
            assert a.leaf == b.leaf
            assert a.deviations == b.deviations


# ----------------------------------------------------------------------
# The cached dense plan
# ----------------------------------------------------------------------
def test_monitors_sharing_a_prediction_do_not_share_a_plan():
    """One prediction object, three detector tunings: each monitor's
    block verdicts match its *own* sequential oracle."""
    config = experiment()
    setup, iterations = run_records(config)
    predictor = make_predictor(config, setup)
    tunings = [
        DetectionConfig(threshold=config.threshold),
        DetectionConfig(threshold=1e-9),  # everything alarms
        DetectionConfig(threshold=config.threshold, min_port_bytes=1e30),  # no port counts
    ]
    monitors = []
    for tuning in tunings:
        oracle = FlowPulseMonitor(predictor, tuning)
        reference = [oracle.process_iteration(list(r)) for r in iterations]
        monitor = FlowPulseMonitor(predictor, tuning)
        assert_verdict_parity(monitor.process_block(columnar(iterations)), reference)
        monitors.append(monitor)
    plain, eager, blind = monitors
    assert plain._plan.prediction is eager._plan.prediction  # shared prediction,
    assert plain._plan is not eager._plan  # plans of their own
    assert blind._plan is None  # sub-min_port_bytes ports: scalar oracle only


def test_rebaseline_inside_one_block_never_scores_against_a_stale_plan():
    """A fault that pollutes the learned baseline and then heals makes
    the predictor swap its prediction mid-block; iterations on either
    side are scored against the baseline that was live for them."""
    config = experiment(predictor="learned", n_iterations=12)
    setup, iterations = run_records(config, heals_at=5)
    oracle = fresh_monitor(config, setup)
    reference = [oracle.process_iteration(list(r)) for r in iterations]
    events = [v.learning_event for v in reference]
    rebaselined = events.index(LearningEvent.REBASELINED)
    scored = [i for i, v in enumerate(reference) if not v.skipped]
    assert min(scored) < rebaselined < max(scored)  # both baselines were used

    monitor = fresh_monitor(config, setup)
    got = monitor.process_block(columnar(iterations))
    assert monitor._plan.prediction is monitor.predictor.predict()
    assert_verdict_parity(got, reference)
    # and the next block starts from the plan of the live baseline
    _setup, more = run_records(config, faulted=False, trial=1)
    assert_verdict_parity(
        monitor.process_block(columnar(more)),
        [oracle.process_iteration(list(r)) for r in more],
    )


@pytest.mark.parametrize("change", ["leaf-order", "port-pattern"])
def test_segment_unlike_the_cached_plan_takes_the_scalar_oracle(change):
    config = experiment()
    setup, iterations = run_records(config, faulted=False)
    oracle = fresh_monitor(config, setup)
    monitor = fresh_monitor(config, setup)
    first, second, third = (list(r) for r in iterations[:3])
    if change == "leaf-order":
        second.reverse()
    else:  # the same extra port on every leaf: uniform, but not the plan's
        second = [
            IterationRecord(
                leaf=r.leaf, tag=r.tag, port_bytes={**r.port_bytes, 99: 5},
                sender_bytes=r.sender_bytes, start_ns=r.start_ns, end_ns=r.end_ns,
            )
            for r in second
        ]
    block = [first, second, third]
    reference = [oracle._score_iteration(r, LearningEvent.NONE, oracle.predictor.predict()) for r in block]
    got = monitor.process_block(columnar(block))
    assert [v._dense is not None for v in got] == [True, False, True]
    assert_verdict_parity(got, reference)


# ----------------------------------------------------------------------
# process_blocks: many monitors, one pass
# ----------------------------------------------------------------------
def with_port_values(records, convert):
    return [
        IterationRecord(
            leaf=r.leaf, tag=r.tag,
            port_bytes={spine: convert(size) for spine, size in r.port_bytes.items()},
            sender_bytes=r.sender_bytes, start_ns=r.start_ns, end_ns=r.end_ns,
        )
        for r in records
    ]


def without_last_port(records, leaf_index):
    """An irregular iteration: one leaf reports one port fewer."""
    doctored = list(records)
    r = doctored[leaf_index]
    ports = dict(r.port_bytes)
    ports.pop(max(ports))
    doctored[leaf_index] = IterationRecord(
        leaf=r.leaf, tag=r.tag, port_bytes=ports,
        sender_bytes=r.sender_bytes, start_ns=r.start_ns, end_ns=r.end_ns,
    )
    return doctored


def test_process_blocks_parity_matrix():
    """One ``process_blocks`` call over monitors of two fabric shapes
    (8x4 and 32x16), both predictors (warm-up skips and a rebaseline
    inside the call), a monitor whose prediction knows a disabled link
    (no dense plan), a monitor handed two blocks, and entries of every
    kind — columnar, record lists, float counters, an irregular port
    set, a reversed leaf order — quiet and alarm-bearing alike, under
    two thresholds.  Every
    verdict equals its own monitor's sequential ``process_iteration``."""
    small = experiment(n_leaves=8, n_spines=4)
    big = experiment(n_leaves=32, n_spines=16, collective_bytes=8 << 30, n_iterations=4)
    learned = experiment(n_leaves=8, n_spines=4, predictor="learned", n_iterations=12)
    disabled = experiment(n_leaves=8, n_spines=4, n_preexisting=1)
    runs = {
        "small": (small, *run_records(small)),
        "big": (big, *run_records(big, faulted=False)),
        "learned": (learned, *run_records(learned, heals_at=5)),
        "disabled": (disabled, *run_records(disabled)),
        "loose": (replace(small, threshold=0.05), *run_records(small)),
    }
    small_runs = runs["small"][2]
    small_runs[1] = with_port_values(small_runs[1], float)
    small_runs[6] = with_port_values(small_runs[6], lambda size: size + 0.5)
    small_runs[2] = without_last_port(small_runs[2], 3)
    small_runs[7] = list(reversed(small_runs[7]))

    def entries(name, iterations):
        if name != "small":
            return columnar(iterations)
        # record lists at 3 and 8, columnar segments everywhere else
        return [
            list(records) if index in (3, 8) else columnar([records])[0]
            for index, records in enumerate(iterations)
        ]

    monitors = {name: fresh_monitor(config, setup) for name, (config, setup, _) in runs.items()}
    pairs, owners = [], []
    for name, (_config, _setup, iterations) in runs.items():
        block = entries(name, iterations)
        halves = [block[:5], block[5:]] if name == "learned" else [block]
        for half in halves:
            pairs.append((monitors[name], half))
            owners.append(name)
    # Interleave the monitors, the loose threshold first in its shape
    # group; the learned monitor's halves keep their order.
    order = [5, 4, 0, 2, 1, 3]
    pairs, owners = [pairs[i] for i in order], [owners[i] for i in order]
    assert owners.index("learned") < len(owners) - 1 - owners[::-1].index("learned")

    got = {name: [] for name in runs}
    for name, verdicts in zip(owners, process_blocks(pairs)):
        got[name].extend(verdicts)
    for name, (config, setup, iterations) in runs.items():
        oracle = fresh_monitor(config, setup)
        reference = [oracle.process_iteration(list(records)) for records in iterations]
        assert_verdict_parity(got[name], reference)

    def dense(name):
        return [v._dense is not None for v in got[name]]

    small_dense = dense("small")
    assert small_dense[0] and small_dense[1] and small_dense[6]  # ints and floats
    assert not any(small_dense[i] for i in (2, 3, 7, 8))  # irregular, lists, misfit
    assert all(dense("big"))
    assert not any(dense("disabled")) and monitors["disabled"]._plan is None
    events = [v.learning_event for v in got["learned"]]
    assert LearningEvent.WARMUP in events and LearningEvent.REBASELINED in events
    assert any(dense("learned"))
    for name in ("small", "disabled"):
        assert any(v.triggered for v in got[name]), name
    assert any(v.triggered and v._dense is not None for v in got["small"])
    assert not all(v.triggered for v in got["small"])
    # one threshold per monitor: the loose one alarms less on the same run
    assert sum(v.triggered for v in got["loose"]) < sum(v.triggered for v in got["small"])


def test_process_blocks_isolates_a_failing_pair_only_when_asked():
    """A block whose leaf lies outside the monitor's fabric raises a
    ``PredictionError``; with ``catch`` it takes that pair's place and
    every other pair is still scored."""
    config = experiment()
    setup, iterations = run_records(config)
    good = columnar(iterations)
    bad = columnar(iterations[:2])
    bad[1].leaves = bad[1].leaves + 100
    oracle = fresh_monitor(config, setup)
    reference = [oracle.process_iteration(list(r)) for r in iterations]

    def pairs():
        return [(fresh_monitor(config, setup), good), (fresh_monitor(config, setup), bad)]

    with pytest.raises(PredictionError, match="outside"):
        process_blocks(pairs())
    scored, failed = process_blocks(pairs(), catch=(RuntimeError,))
    assert isinstance(failed, PredictionError)
    assert_verdict_parity(scored, reference)
