"""Tests for the statistical sampling primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastsim import (
    FastSimError,
    deliver_packets,
    deliver_transfer_bytes,
    expected_arrival_bytes,
    spray_counts,
)


@pytest.fixture
def frng():
    return np.random.Generator(np.random.PCG64(11))


# ----------------------------------------------------------------------
# spray_counts
# ----------------------------------------------------------------------
def test_random_spray_conserves_packets(frng):
    counts = spray_counts(1000, 7, "random", frng)
    assert counts.sum() == 1000
    assert counts.shape == (7,)


def test_adaptive_spray_is_maximally_even(frng):
    counts = spray_counts(1003, 4, "adaptive", frng)
    assert counts.sum() == 1003
    assert counts.max() - counts.min() <= 1


def test_adaptive_spray_exact_division_is_deterministic(frng):
    counts = spray_counts(100, 4, "adaptive", frng)
    assert list(counts) == [25, 25, 25, 25]


def test_zero_packets(frng):
    assert spray_counts(0, 3, "random", frng).sum() == 0


def test_spray_validation(frng):
    with pytest.raises(FastSimError):
        spray_counts(-1, 3, "random", frng)
    with pytest.raises(FastSimError):
        spray_counts(10, 0, "random", frng)
    with pytest.raises(FastSimError):
        spray_counts(10, 3, "warp", frng)


def test_random_spray_variance_matches_multinomial(frng):
    n, p = 10_000, 10
    draws = np.array([spray_counts(n, p, "random", frng)[0] for _ in range(300)])
    # Multinomial marginal: mean n/p, var n(1/p)(1-1/p).
    assert abs(draws.mean() - n / p) < 15
    expected_var = n * (1 / p) * (1 - 1 / p)
    assert 0.6 * expected_var < draws.var() < 1.5 * expected_var


# ----------------------------------------------------------------------
# deliver_packets
# ----------------------------------------------------------------------
def test_all_delivered_without_faults(frng):
    delivered = deliver_packets(500, np.ones(4), "random", frng)
    assert delivered.sum() == 500


def test_retransmission_recovers_all_packets(frng):
    survive = np.array([0.5, 1.0, 1.0, 1.0])
    delivered = deliver_packets(1000, survive, "random", frng)
    # Deliveries (first-arrival only; drops are re-sprayed) sum to n.
    assert delivered.sum() == 1000


def test_faulty_port_sees_deficit(frng):
    survive = np.array([0.8, 1.0, 1.0, 1.0])
    delivered = deliver_packets(100_000, survive, "random", frng)
    share = delivered / delivered.sum()
    assert share[0] < 0.22  # nominal 0.25 minus ~p(1-1/s)
    assert all(share[1:] > 0.25)


def test_dead_port_delivers_nothing(frng):
    survive = np.array([0.0, 1.0])
    delivered = deliver_packets(1000, survive, "random", frng)
    assert delivered[0] == 0
    assert delivered[1] == 1000


def test_all_ports_dead_raises(frng):
    with pytest.raises(FastSimError, match="unrecoverable"):
        deliver_packets(10, np.zeros(3), "random", frng)


def test_deliver_validation(frng):
    with pytest.raises(FastSimError):
        deliver_packets(10, np.array([[1.0]]), "random", frng)
    with pytest.raises(FastSimError):
        deliver_packets(10, np.array([1.5]), "random", frng)


# ----------------------------------------------------------------------
# deliver_transfer_bytes
# ----------------------------------------------------------------------
def test_transfer_bytes_exact_total_no_faults(frng):
    delivered = deliver_transfer_bytes(10_500, 1024, np.ones(4), "random", frng)
    assert delivered.sum() == 10_500


def test_transfer_bytes_exact_total_with_faults(frng):
    survive = np.array([0.7, 1.0, 1.0])
    delivered = deliver_transfer_bytes(99_999, 1000, survive, "adaptive", frng)
    assert delivered.sum() == 99_999


def test_transfer_smaller_than_mtu(frng):
    delivered = deliver_transfer_bytes(10, 1024, np.ones(2), "random", frng)
    assert delivered.sum() == 10


def test_transfer_validation(frng):
    with pytest.raises(FastSimError):
        deliver_transfer_bytes(0, 1024, np.ones(2), "random", frng)
    with pytest.raises(FastSimError):
        deliver_transfer_bytes(100, 0, np.ones(2), "random", frng)


# ----------------------------------------------------------------------
# expected_arrival_bytes
# ----------------------------------------------------------------------
def test_expectation_even_split_when_healthy():
    expected = expected_arrival_bytes(1000, 100, np.ones(4))
    assert np.allclose(expected, 250.0)


def test_expectation_total_conserved_with_faults():
    expected = expected_arrival_bytes(10_000, 100, np.array([0.9, 1.0, 1.0]))
    assert np.isclose(expected.sum(), 10_000, rtol=1e-9)


def test_expectation_matches_deficit_formula():
    # Deficit at the faulty port ~= p(1 - 1/s) for small p.
    s, p, total = 8, 0.02, 1_000_000
    survive = np.ones(s)
    survive[0] = 1 - p
    expected = expected_arrival_bytes(total, 100, survive)
    fair = total / s
    deficit = (fair - expected[0]) / fair
    assert abs(deficit - p * (1 - 1 / s)) < 1e-4


def test_expectation_matches_sampled_mean(frng):
    survive = np.array([0.85, 1.0, 1.0, 1.0])
    total, mtu = 2_000_000, 1000
    expected = expected_arrival_bytes(total, mtu, survive)
    samples = np.array(
        [deliver_transfer_bytes(total, mtu, survive, "random", frng) for _ in range(60)]
    )
    assert np.allclose(samples.mean(axis=0), expected, rtol=0.02)


def test_expectation_all_dead_raises():
    with pytest.raises(FastSimError):
        expected_arrival_bytes(100, 10, np.zeros(2))


# ----------------------------------------------------------------------
# input refusal
# ----------------------------------------------------------------------
NAN = float("nan")

COUNT = "must be an integer|must be non-negative"
PROBABILITY = r"must lie in \[0, 1\]|1-D array"

#: ``case: (message pattern, call)``.
REFUSED = {
    "deliver_negative_count": (
        COUNT, lambda g: deliver_packets(-1, np.ones(2), "random", g)
    ),
    "deliver_float_count": (
        COUNT, lambda g: deliver_packets(2.7, np.ones(2), "random", g)
    ),
    "deliver_bool_count": (
        COUNT, lambda g: deliver_packets(True, np.ones(2), "random", g)
    ),
    "deliver_nan_survival": (
        PROBABILITY, lambda g: deliver_packets(10, np.array([NAN, 1.0]), "random", g)
    ),
    "deliver_inf_survival": (
        PROBABILITY, lambda g: deliver_packets(10, np.array([np.inf]), "random", g)
    ),
    "spray_float_count": (COUNT, lambda g: spray_counts(2.5, 4, "random", g)),
    "spray_float_ports": (COUNT, lambda g: spray_counts(10, 4.0, "random", g)),
    "spray_bool_count": (COUNT, lambda g: spray_counts(np.bool_(True), 4, "random", g)),
    "transfer_float_bytes": (
        COUNT, lambda g: deliver_transfer_bytes(1000.5, 100, np.ones(2), "random", g)
    ),
    "transfer_float_mtu": (
        COUNT, lambda g: deliver_transfer_bytes(1000, 100.0, np.ones(2), "random", g)
    ),
    "transfer_nan_survival": (
        PROBABILITY,
        lambda g: deliver_transfer_bytes(1000, 100, np.array([1.0, NAN]), "random", g),
    ),
    "transfer_above_one": (
        PROBABILITY,
        lambda g: deliver_transfer_bytes(1000, 100, np.array([1.5, 1.0]), "random", g),
    ),
    "expected_nan_survival": (PROBABILITY, lambda g: expected_arrival_bytes(100, 10, [NAN])),
    "expected_above_one": (PROBABILITY, lambda g: expected_arrival_bytes(100, 10, [1.5])),
    "expected_below_zero": (
        PROBABILITY, lambda g: expected_arrival_bytes(100, 10, [-0.1, 1.0])
    ),
    "expected_float_bytes": (COUNT, lambda g: expected_arrival_bytes(100.5, 10, [1.0])),
    "expected_not_1d": (PROBABILITY, lambda g: expected_arrival_bytes(100, 10, [[1.0]])),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_public_sampling_api_refuses_bad_inputs(case, frng):
    """Every public entry refuses a bad count or probability with
    ``FastSimError`` up front, instead of simulating something else,
    failing inside numpy, or spinning until it gives up."""
    match, call = REFUSED[case]
    with pytest.raises(FastSimError, match=match):
        call(frng)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: spray_counts(np.int64(10), np.int32(4), "random", g).sum() == 10,
        lambda g: deliver_packets(np.uint16(10), [1.0, 1.0], "random", g).sum() == 10,
        lambda g: deliver_transfer_bytes(
            np.int64(1000), np.int64(100), np.ones(2), "random", g
        ).sum() == 1000,
    ],
)
def test_numpy_integer_counts_are_accepted(call, frng):
    assert call(frng)


# ----------------------------------------------------------------------
# the numpy behaviour the lossless path rests on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 16, 128])
def test_unit_probability_binomial_draws_one_output_per_nonzero_count(k):
    """``binomial(counts, ones)`` returns ``counts`` and moves PCG64 by
    exactly ``count_nonzero(counts)`` outputs, which is what lets a
    lossless pair advance the stream instead of drawing.  A numpy whose
    binomial draws differently fails here."""
    spread = np.random.Generator(np.random.PCG64(k)).multinomial(3 * k, np.full(k, 1 / k))
    cases = {
        "spread": spread,
        "with_zeros": np.where(np.arange(k) % 3 == 0, 0, spread + 1),
        "all_zero": np.zeros(k, dtype=np.int64),
        "single": np.eye(1, k, k // 2, dtype=np.int64)[0],
    }
    for name, counts in cases.items():
        drawn = np.random.Generator(np.random.PCG64(99))
        advanced = np.random.Generator(np.random.PCG64(99))
        assert np.array_equal(drawn.binomial(counts, np.ones(k)), counts)
        advanced.bit_generator.advance(int(np.count_nonzero(counts)))
        assert drawn.bit_generator.state == advanced.bit_generator.state, (
            f"numpy {np.__version__}: binomial(counts, 1.0) no longer draws one "
            f"output per non-zero count (k={k}, {name})"
        )
        assert drawn.random() == advanced.random()


def test_a_buffered_half_word_disables_the_stream_advance(frng):
    """``advance`` drops a buffered 32-bit half, so a generator holding
    one (or a generator other than PCG64) keeps the binomial draw."""
    from repro.fastsim.sampling import _advance_replaces_binomial

    assert _advance_replaces_binomial(frng)
    frng.integers(10, dtype=np.uint32)  # leaves half of a 64-bit output buffered
    assert not _advance_replaces_binomial(frng)
    assert not _advance_replaces_binomial(np.random.Generator(np.random.MT19937(1)))


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 50_000),
    st.integers(1, 12),
    st.sampled_from(["random", "adaptive"]),
    st.integers(0, 2**31 - 1),
)
def test_property_spray_conserves(n, ports, mode, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = spray_counts(n, ports, mode, rng)
    assert counts.sum() == n
    assert (counts >= 0).all()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 200_000),
    st.integers(1, 4096),
    st.integers(2, 8),
    st.floats(0.0, 0.5),
    st.integers(0, 2**31 - 1),
)
def test_property_transfer_bytes_conserved(total, mtu, ports, drop, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    survive = np.ones(ports)
    survive[0] = 1.0 - drop
    delivered = deliver_transfer_bytes(total, mtu, survive, "random", rng)
    assert delivered.sum() == total
    assert (delivered >= 0).all()
