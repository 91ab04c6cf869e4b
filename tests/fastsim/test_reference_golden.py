"""Golden regression: the vectorized simulator is bit-identical to the
pre-vectorization reference implementation in
``tests/fastsim/_reference.py``.

The determinism contract of the sweep engine rests on this: the
vectorized hot path may reorganise *accumulation*, but every RNG draw
— order, arguments, and therefore output bits — must be exactly what
the original per-pair loop produced.  We check record contents AND the
generator's end state, across fault configurations and seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import locality_optimized_ring, ring_demand
from repro.fastsim import (
    FabricModel,
    expected_iteration,
    run_iterations,
    simulate_iteration,
)
from repro.simnet.packet import FlowTag
from repro.topology import ClosSpec, down_link, up_link

from ._reference import (
    reference_expected_iteration,
    reference_run_iterations,
    reference_simulate_iteration,
    reference_survive_probs,
)

SPEC = ClosSpec(n_leaves=6, n_spines=3, hosts_per_leaf=1)
#: Sixteen spines: wide enough that a pair's packets leave ports empty.
WIDE = ClosSpec(n_leaves=6, n_spines=16, hosts_per_leaf=1)


def make_demand(size=500_000, spec=SPEC):
    return ring_demand(locality_optimized_ring(spec.n_hosts), size)


def model_configs():
    """Representative fault configurations for the golden sweep."""
    return {
        "healthy": FabricModel(SPEC),
        "silent": FabricModel(SPEC, silent={up_link(1, 2): 0.05}),
        "gray_and_silent": FabricModel(
            SPEC,
            known_gray={down_link(0, 3): 0.02},
            silent={up_link(2, 1): 0.08, down_link(2, 5): 0.01},
        ),
        "disabled_links": FabricModel(
            SPEC,
            known_disabled=frozenset({up_link(0, 0), down_link(1, 4)}),
            silent={up_link(3, 2): 0.04},
        ),
        "adaptive_spraying": FabricModel(
            SPEC, spraying="adaptive", silent={down_link(0, 2): 0.06}
        ),
        "small_mtu_remainder": FabricModel(
            SPEC, mtu=256, silent={up_link(4, 1): 0.03}
        ),
    }


def edge_cases():
    """Rows at the edges of the lossless-pair path: ``(model, demand)``.

    In every row most leaf pairs survive every spine with probability
    exactly 1.0, and at least one pair does not.
    """
    return {
        # 50 000 B per pair at the 4 KiB MTU: 12 full packets and a
        # remainder over 16 spines, so some ports draw zero packets.
        "fewer_packets_than_spines": (
            FabricModel(WIDE, silent={up_link(2, 5): 0.3}),
            make_demand(60_000, WIDE),
        ),
        # 5 000 B per pair under an 8 KiB MTU: a lone remainder packet.
        "remainder_only": (
            FabricModel(WIDE, mtu=8192, silent={down_link(3, 4): 0.5}),
            make_demand(6_000, WIDE),
        ),
        # Remainders place packets through rng.choice on lossless pairs.
        "adaptive_mostly_lossless": (
            FabricModel(WIDE, spraying="adaptive", silent={up_link(1, 7): 0.2}),
            make_demand(300_000, WIDE),
        ),
        # Lossy pairs whose loss is known, with no silent fault anywhere.
        "known_gray_only": (
            FabricModel(SPEC, known_gray={up_link(1, 0): 0.03, down_link(2, 4): 0.1}),
            make_demand(),
        ),
        # Lossless pairs that spray over only some of the spines.
        "disabled_partial_span": (
            FabricModel(
                WIDE,
                known_disabled=frozenset({up_link(0, 3), down_link(9, 2), up_link(4, 15)}),
            ),
            make_demand(300_000, WIDE),
        ),
    }


def assert_records_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.leaf == w.leaf
        assert g.tag == w.tag
        assert g.port_bytes == w.port_bytes
        assert g.sender_bytes == w.sender_bytes
        assert g.start_ns == w.start_ns and g.end_ns == w.end_ns


@pytest.mark.parametrize("name", sorted(model_configs()))
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_simulate_iteration_golden(name, seed):
    model = model_configs()[name]
    demand = make_demand()
    rng_new = np.random.Generator(np.random.PCG64(seed))
    rng_ref = np.random.Generator(np.random.PCG64(seed))
    got = simulate_iteration(model, demand, rng_new)
    want = reference_simulate_iteration(model, demand, rng_ref)
    assert_records_equal(got, want)
    # The RNG consumed exactly the same bitstream — downstream draws
    # (later iterations) stay aligned too.
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("name", sorted(edge_cases()))
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_simulate_iteration_golden_edges(name, seed):
    model, demand = edge_cases()[name]
    rng_new = np.random.Generator(np.random.PCG64(seed))
    rng_ref = np.random.Generator(np.random.PCG64(seed))
    for iteration in range(3):
        tag = FlowTag(job_id=1, iteration=iteration)
        got = simulate_iteration(model, demand, rng_new, tag=tag)
        want = reference_simulate_iteration(model, demand, rng_ref, tag=tag)
        assert_records_equal(got, want)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_simulate_iteration_golden_after_a_buffered_half_word():
    """A caller's generator holding half of a 64-bit output keeps it:
    advancing the stream would drop that half, so the simulator draws
    the binomials instead."""
    model, demand = edge_cases()["fewer_packets_than_spines"]
    rng_new = np.random.Generator(np.random.PCG64(5))
    rng_ref = np.random.Generator(np.random.PCG64(5))
    for rng in (rng_new, rng_ref):
        rng.integers(10, dtype=np.uint32)
    got = simulate_iteration(model, demand, rng_new)
    want = reference_simulate_iteration(model, demand, rng_ref)
    assert_records_equal(got, want)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("name", sorted(edge_cases()))
def test_run_iterations_golden_edges(name):
    """Healthy steps, then the row's own silent faults: the run moves
    between lossless and lossy step models."""
    model, demand = edge_cases()[name]
    silent = dict(model.silent)

    def schedule(iteration):
        return silent if iteration >= 2 else {}

    for fault_schedule in (None, schedule):
        got = run_iterations(model, demand, 5, seed=3, fault_schedule=fault_schedule)
        want = reference_run_iterations(
            model, demand, 5, seed=3, fault_schedule=fault_schedule
        )
        assert len(got) == len(want)
        for g_iter, w_iter in zip(got, want):
            assert_records_equal(g_iter, w_iter)


@pytest.mark.parametrize("name", sorted(model_configs()))
@pytest.mark.parametrize("include_silent", [False, True])
def test_expected_iteration_golden(name, include_silent):
    model = model_configs()[name]
    demand = make_demand()
    got = expected_iteration(model, demand, include_silent=include_silent)
    want = reference_expected_iteration(model, demand, include_silent=include_silent)
    assert_records_equal(got, want)


@pytest.mark.parametrize("name", sorted(model_configs()))
def test_survive_probs_golden(name):
    model = model_configs()[name]
    control = model.control()
    for src in range(SPEC.n_leaves):
        for dst in range(SPEC.n_leaves):
            if src == dst:
                continue
            spines = control.valid_spines(src, dst)
            got = model.survive_probs(src, dst, spines)
            want = reference_survive_probs(model, src, dst, spines)
            # Bitwise equality, not allclose: cached keep factors must
            # use the exact original float expression.
            assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 42])
def test_run_iterations_golden_with_fault_schedule(seed):
    model = FabricModel(SPEC, known_gray={down_link(0, 1): 0.01})
    demand = make_demand()

    def schedule(iteration):
        return {up_link(2, 0): 0.05} if iteration >= 2 else {}

    got = run_iterations(model, demand, 5, seed=seed, fault_schedule=schedule)
    want = reference_run_iterations(model, demand, 5, seed=seed, fault_schedule=schedule)
    assert len(got) == len(want)
    for g_iter, w_iter in zip(got, want):
        assert_records_equal(g_iter, w_iter)
