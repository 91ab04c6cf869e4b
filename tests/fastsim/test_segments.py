"""The simulator's columnar output matches the record path.

``simulate_segment`` builds an :class:`IterationSegment` straight from
the dense port array and the per-pair arrival vectors.  It must be the
segment ``IterationSegment.from_records`` builds from the reference
oracle's records — every column, dtype and flag — and its ``records()``
must be those records.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.collectives import locality_optimized_ring, ring_demand
from repro.collectives.alltoall import alltoall_demand
from repro.core.blocks import IterationSegment
from repro.fastsim import FabricModel, run_segments, simulate_segment
from repro.simnet.packet import FlowTag
from repro.topology import ClosSpec, down_link, up_link

from ._reference import reference_run_iterations, reference_simulate_iteration

SPEC = ClosSpec(n_leaves=6, n_spines=3, hosts_per_leaf=1)
RING = ring_demand(locality_optimized_ring(SPEC.n_hosts), 500_000)

#: name -> (model, demand)
FABRICS = {
    "healthy": (FabricModel(SPEC), RING),
    "silent": (FabricModel(SPEC, silent={up_link(1, 2): 0.05}), RING),
    # Leaf 0 cannot send via spine 0, nor spine 1 reach leaf 4: some
    # pairs spray over fewer than every spine.
    "known_disabled": (
        FabricModel(
            SPEC,
            known_disabled=frozenset({up_link(0, 0), down_link(1, 4)}),
            silent={up_link(3, 2): 0.04},
        ),
        RING,
    ),
    "adaptive": (FabricModel(SPEC, spraying="adaptive", silent={down_link(0, 2): 0.06}), RING),
    # One partial packet per pair: it lands on a single spine, so the
    # other sender (and port) entries are zero and must be dropped.
    "zero_entries": (
        FabricModel(SPEC, mtu=256, silent={up_link(4, 1): 0.3}),
        ring_demand(locality_optimized_ring(SPEC.n_hosts), 200),
    ),
    "many_sources": (
        FabricModel(SPEC, silent={down_link(2, 3): 0.05}),
        alltoall_demand(list(range(SPEC.n_hosts)), 60_000),
    ),
}


def assert_same_columns(got: IterationSegment, want: IterationSegment) -> None:
    for column in dataclasses.fields(IterationSegment):
        if not column.compare:
            continue
        a, b = getattr(got, column.name), getattr(want, column.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, column.name
            assert np.array_equal(a, b), column.name
        else:
            assert a == b, column.name


@pytest.mark.parametrize("name", sorted(FABRICS))
@pytest.mark.parametrize("seed", [0, 7])
def test_segment_is_the_reference_records_columnized(name, seed):
    model, demand = FABRICS[name]
    tag = FlowTag(job_id=4, iteration=3)
    got = simulate_segment(model, demand, np.random.Generator(np.random.PCG64(seed)), tag=tag)
    records = reference_simulate_iteration(
        model, demand, np.random.Generator(np.random.PCG64(seed)), tag=tag
    )
    assert_same_columns(got, IterationSegment.from_records(records))
    assert [got.record(j) for j in range(got.n_records)] == records
    assert got.records() == records


def test_zero_entries_case_drops_zeros():
    """The fixture really exercises the zero-filtering branch."""
    model, demand = FABRICS["zero_entries"]
    segment = simulate_segment(model, demand, np.random.Generator(np.random.PCG64(0)))
    pairs = demand.leaf_pairs(SPEC)
    assert len(segment.sender_raw) < len(pairs) * SPEC.n_spines


@pytest.mark.parametrize("name", ["healthy", "known_disabled", "many_sources"])
def test_run_segments_match_reference_run(name):
    model, demand = FABRICS[name]

    def schedule(iteration):
        return {up_link(2, 0): 0.05} if iteration >= 2 else {}

    got = run_segments(model, demand, 4, seed=9, job_id=2, fault_schedule=schedule)
    want = reference_run_iterations(model, demand, 4, seed=9, job_id=2, fault_schedule=schedule)
    for segment, records in zip(got, want, strict=True):
        assert_same_columns(segment, IterationSegment.from_records(records))
        assert segment.records() == records
