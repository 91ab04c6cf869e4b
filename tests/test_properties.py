"""Cross-module property tests: end-to-end invariants of the whole
pipeline under randomized fabrics, demands, and faults."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import _same_cable
from repro.collectives import (
    DemandMatrix,
    locality_optimized_ring,
    ring_demand,
)
from repro.core import (
    AnalyticalPredictor,
    DetectionConfig,
    FlowPulseMonitor,
    SimulationPredictor,
)
from repro.core.blocks import IterationSegment, segments_from_run
from repro.core.prediction.base import LoadPrediction, LoadPredictor, PortPrediction
from repro.fastsim import FabricModel, expected_iteration, run_iterations
from repro.fleet import RecordBatch, decode_batch_segment, encode_batch
from repro.simnet.counters import IterationRecord
from repro.simnet.packet import FlowTag
from repro.topology import ClosSpec, down_link, up_link
from repro.units import MIB

from .fleet.test_codec import assert_decoders_agree, assert_same_segment


@settings(max_examples=25, deadline=None)
@given(
    n_leaves=st.integers(3, 8),
    n_spines=st.integers(2, 6),
    direction=st.sampled_from(["up", "down"]),
    drop_permille=st.integers(30, 300),
    seed=st.integers(0, 10_000),
)
def test_property_injected_fault_always_detected_and_cable_named(
    n_leaves, n_spines, direction, drop_permille, seed
):
    """Any silent fault >= 3% on any leaf-spine link of any small fabric
    is detected within 3 iterations and its cable is among the suspects."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = ClosSpec(n_leaves=n_leaves, n_spines=n_spines, hosts_per_leaf=1)
    leaf = int(rng.integers(n_leaves))
    spine = int(rng.integers(n_spines))
    fault = (
        up_link(leaf, spine) if direction == "up" else down_link(spine, leaf)
    )
    demand = ring_demand(locality_optimized_ring(spec.n_hosts), 512 * MIB)
    model = FabricModel(spec, silent={fault: drop_permille / 1000}, mtu=1024)
    records = run_iterations(model, demand, 3, seed=seed)
    monitor = FlowPulseMonitor(
        AnalyticalPredictor(spec, demand), DetectionConfig(threshold=0.01)
    )
    verdict = monitor.process_run(records)
    assert verdict.triggered
    assert any(
        _same_cable(link, fault) for link in verdict.suspected_links()
    )


@settings(max_examples=25, deadline=None)
@given(
    n_leaves=st.integers(3, 8),
    n_spines=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_property_healthy_fabric_never_alarms_above_noise_model(
    n_leaves, n_spines, seed
):
    """With no silent fault, the score stays under 6x the analytic noise
    sigma (a generous bound that holds for all seeds)."""
    from repro.core import port_noise_sigma

    spec = ClosSpec(n_leaves=n_leaves, n_spines=n_spines, hosts_per_leaf=1)
    total = 512 * MIB
    demand = ring_demand(locality_optimized_ring(spec.n_hosts), total)
    model = FabricModel(spec, mtu=1024)
    records = run_iterations(model, demand, 2, seed=seed)
    monitor = FlowPulseMonitor(
        AnalyticalPredictor(spec, demand), DetectionConfig(threshold=0.5)
    )
    verdict = monitor.process_run(records)
    pair_bytes = max(v for _, _, v in demand.pairs())
    sigma = port_noise_sigma(pair_bytes, n_spines, 1024, "random")
    assert verdict.max_score < max(6 * sigma, 1e-6)


@settings(max_examples=20, deadline=None)
@given(
    n_leaves=st.integers(3, 6),
    n_spines=st.integers(2, 4),
    pairs=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 10**7)),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 10_000),
)
def test_property_fastsim_conserves_arbitrary_demand(
    n_leaves, n_spines, pairs, seed
):
    """For any demand matrix, each leaf receives exactly its inbound
    non-local demand (the fabric is lossless end to end)."""
    spec = ClosSpec(n_leaves=n_leaves, n_spines=n_spines, hosts_per_leaf=1)
    demand = DemandMatrix()
    for src, dst, size in pairs:
        src %= spec.n_hosts
        dst %= spec.n_hosts
        if src != dst:
            demand.add(src, dst, size)
    if len(demand) == 0:
        return
    rng = np.random.Generator(np.random.PCG64(seed))
    from repro.fastsim import simulate_iteration

    records = simulate_iteration(FabricModel(spec, mtu=777), demand, rng)
    leaf_pairs = demand.leaf_pairs(spec)
    for record in records:
        inbound = sum(
            v for (s, d), v in leaf_pairs.items() if d == record.leaf
        )
        assert record.total_bytes == inbound


@settings(max_examples=15, deadline=None)
@given(
    n_spines=st.integers(2, 6),
    dead_spines=st.integers(0, 2),
    seed=st.integers(0, 10_000),
)
def test_property_analytical_equals_simulation_expectation(
    n_spines, dead_spines, seed
):
    """The analytical d/(s-f) model and the simulation predictor's
    closed-form expectation agree exactly whenever the only known
    faults are binary (up/down) — the regime of Fig. 2."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = ClosSpec(n_leaves=5, n_spines=n_spines, hosts_per_leaf=1)
    dead_spines = min(dead_spines, n_spines - 1)
    disabled = set()
    for _ in range(dead_spines):
        leaf = int(rng.integers(spec.n_leaves))
        spine = int(rng.integers(n_spines))
        name = down_link(spine, leaf)
        # Keep connectivity: never kill the last spine of a leaf.
        already = sum(
            1 for s in range(n_spines) if down_link(s, leaf) in disabled
        )
        if already < n_spines - 1:
            disabled.add(name)
    disabled = frozenset(disabled)
    demand = ring_demand(locality_optimized_ring(spec.n_hosts), 1_000_000)
    model = FabricModel(spec, known_disabled=disabled, mtu=1024)
    analytical = AnalyticalPredictor(spec, demand, known_disabled=disabled).predict()
    simulated = SimulationPredictor(model, demand, backend="expected").predict()
    for leaf in range(spec.n_leaves):
        a = analytical.for_leaf(leaf).port_bytes
        s = simulated.for_leaf(leaf).port_bytes
        assert set(a) == set(s)
        for spine, volume in a.items():
            assert s[spine] == pytest.approx(volume, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    implications=st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=3),
        min_size=1,
        max_size=12,
    ),
    confirm_after=st.integers(1, 3),
)
def test_property_remediation_needs_enough_evidence(implications, confirm_after):
    """The engine disables a cable only when it was implicated in at
    least ``confirm_after`` of the last ``window`` iterations, and every
    disabled cable was actually implicated."""
    from collections import deque

    from repro.core import ConfirmationPolicy, RemediationEngine
    from tests.core.test_remediation import verdict_with

    window = 4
    engine = RemediationEngine(
        ConfirmationPolicy(confirm_after=confirm_after, window=window)
    )
    recent: deque = deque(maxlen=window)
    for iteration, cables in enumerate(implications):
        links = [down_link(spine, leaf) for leaf, spine in cables]
        recent.append({(leaf, spine) for leaf, spine in cables})
        action = engine.observe(verdict_with(iteration, links))
        if action is not None:
            # Every cable acted on had enough in-window evidence.
            for cable in action.cables:
                count = sum(1 for past in recent if cable in past)
                assert count >= confirm_after
    # And globally: every disabled cable was implicated at least
    # confirm_after times across the whole run.
    all_implications = [
        {(leaf, spine) for leaf, spine in cables} for cables in implications
    ]
    for action in engine.actions:
        for cable in action.cables:
            total = sum(1 for past in all_implications if cable in past)
            assert total >= confirm_after


class _FixedPredictor(LoadPredictor):
    """A stateless predictor handing out one hand-built prediction."""

    def __init__(self, prediction: LoadPrediction) -> None:
        self._prediction = prediction

    def predict(self) -> LoadPrediction:
        return self._prediction


#: Powers of two (and 0.5, under ``min_port_bytes``; and 0, idle), so
#: every ``expected * (1 + step)`` below is exact in float64.
_EXPECTED = (0, 0.5, 64, 1024.0, 4096, 65536.0)
#: Relative steps around a 0.25 threshold: under, exactly on (the
#: boundary is inclusive), over — as surplus and as deficit.
_STEPS = (-0.5, -0.25, -0.125, 0.0, 0.125, 0.25, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n_leaves=st.integers(1, 4),
    n_ports=st.integers(1, 4),
    n_iterations=st.integers(1, 4),
)
def test_property_block_verdicts_equal_the_scalar_oracle(
    data, n_leaves, n_ports, n_iterations
):
    """For any mix of int and float counters, deviations under, on and
    over the threshold, and ports predicted under ``min_port_bytes``,
    ``process_block`` over columnar segments equals sequential
    ``process_iteration`` — also after a pickle round trip — and takes
    the vectorized pass exactly when every predicted port counts."""
    # Half the examples keep every port countable (the vectorized pass).
    pool = _EXPECTED if data.draw(st.booleans()) else _EXPECTED[2:]
    expected = [
        [data.draw(st.sampled_from(pool)) for _ in range(n_ports)]
        for _ in range(n_leaves)
    ]
    prediction = LoadPrediction(
        per_leaf=tuple(
            PortPrediction(
                leaf=leaf,
                port_bytes=dict(enumerate(expected[leaf])),
                sender_bytes={(port, 0): expected[leaf][port] for port in range(n_ports)},
            )
            for leaf in range(n_leaves)
        )
    )
    run = []
    for iteration in range(n_iterations):
        records = []
        for leaf in range(n_leaves):
            port_bytes = {}
            for port in range(n_ports):
                value = expected[leaf][port] * (1 + data.draw(st.sampled_from(_STEPS)))
                if value == int(value) and data.draw(st.booleans()):
                    value = int(value)
                port_bytes[port] = value
            records.append(
                IterationRecord(
                    leaf=leaf,
                    tag=FlowTag(job_id=1, iteration=iteration),
                    port_bytes=port_bytes,
                    sender_bytes={(port, 0): size for port, size in port_bytes.items()},
                    start_ns=0,
                    end_ns=1,
                )
            )
        run.append(records)
    tuning = DetectionConfig(threshold=0.25, min_port_bytes=1.0)
    oracle = FlowPulseMonitor(_FixedPredictor(prediction), tuning)
    reference = [oracle.process_iteration(records) for records in run]

    segments = segments_from_run(run)
    for segment in segments:
        segment._records = None  # as decoded off the wire
    got = FlowPulseMonitor(_FixedPredictor(prediction), tuning).process_block(segments)
    every_port_counts = all(e >= 1.0 for row in expected for e in row)
    assert all((v._dense is not None) == every_port_counts for v in got)
    assert [v.triggered for v in got] == [v.triggered for v in reference]
    assert [v.max_score for v in got] == [v.max_score for v in reference]
    assert pickle.loads(pickle.dumps(got)) == reference
    assert got == reference
    assert pickle.loads(pickle.dumps(got)) == reference


_INT64 = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**53 + 1, 2**63 - 2, 2**63 - 1)
_COUNTER = st.one_of(
    st.sampled_from(_INT64),
    st.integers(0, 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _wire_records(draw, all_ints=None):
    """One iteration's records the way a foreign exporter might shape
    them: any leaf order, a different port set per leaf (or none), empty
    sender tables, ints at the 64-bit edges, floats in between (unless
    ``all_ints``)."""
    if all_ints is None:
        all_ints = draw(st.booleans())
    counter = st.one_of(st.sampled_from(_INT64), st.integers(0, 2**40)) if all_ints else _COUNTER
    key = st.one_of(st.sampled_from(_INT64), st.integers(0, 40))
    tag = FlowTag(job_id=draw(st.integers(0, 2**70)), iteration=draw(st.integers(0, 2**70)))
    return [
        IterationRecord(
            leaf=draw(key),
            tag=tag,
            port_bytes=draw(st.dictionaries(key, counter, max_size=5)),
            sender_bytes=draw(st.dictionaries(st.tuples(key, key), counter, max_size=5)),
            start_ns=draw(st.sampled_from(_INT64)),
            end_ns=draw(st.sampled_from(_INT64)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


@settings(max_examples=150, deadline=None)
@given(records=_wire_records())
def test_property_v1_line_decodes_to_the_segment_its_records_build(records):
    """``decode_batch_segment`` on a v1 line is ``from_records`` on the
    batch it encodes — every column, dtype included — and reads back as
    the records ``decode_batch`` builds, value types included."""
    line = encode_batch(RecordBatch.from_records(records), 1)
    assert_same_segment(decode_batch_segment(line), IterationSegment.from_records(records))
    assert_decoders_agree(line)


#: The int64 limits: numpy's integer parser saturates tokens past them
#: to them, so the v1 scanner leaves a line holding one to the record
#: route.
_SATURATED = (-(2**63), 2**63 - 1)


@settings(max_examples=150, deadline=None)
@given(records=_wire_records(all_ints=True))
def test_property_first_party_all_int_lines_scan_to_columns(records):
    """Every line the v1 writer makes of an all-int segment is scanned
    straight to columns — ``from_records``'s, dtype included — with no
    record built, unless it holds an int64 limit."""
    segment = IterationSegment.from_records(records)
    got = decode_batch_segment(encode_batch(segment, 1))
    holds_limit = any(
        np.isin(getattr(segment, name), _SATURATED).any()
        for name in ("leaves", "start_ns", "end_ns", "port_keys", "port_raw",
                     "sender_spines", "sender_srcs", "sender_raw")
    )
    assert (got._records is None) == (not holds_limit)
    assert_same_segment(got, segment)
