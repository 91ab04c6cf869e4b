"""Stochastic primitives of the fast volume simulator.

The quantities FlowPulse measures are *aggregate per-port byte volumes
per collective iteration*.  For those aggregates, per-packet spraying
is exactly a multinomial allocation of a pair's packets over its valid
spines, faults are binomial thinning, and RTO recovery is a re-spray of
the dropped packets — so the full packet simulation can be collapsed
into a handful of vectorized draws per source-destination pair.  Tests
validate these distributions against the packet-level simulator.
"""

from __future__ import annotations

import numpy as np


class FastSimError(RuntimeError):
    """Raised when the statistical model cannot make progress."""


def _check_count(name: str, value) -> int:
    """``value`` as a plain ``int`` if it is a non-negative integer.

    Floats and bools are refused rather than truncated or coerced: a
    fractional packet count silently simulates fewer packets.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise FastSimError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise FastSimError(f"{name} must be non-negative, got {value}")
    return int(value)


def _check_probabilities(survive_prob) -> np.ndarray:
    """``survive_prob`` as a 1-D float array of finite values in [0, 1]."""
    survive_prob = np.asarray(survive_prob, dtype=float)
    if survive_prob.ndim != 1 or survive_prob.size < 1:
        raise FastSimError("survive_prob must be a 1-D array of ports")
    # NaN fails both comparisons and an infinity fails one, so this
    # also refuses every non-finite value.
    if not np.all((survive_prob >= 0.0) & (survive_prob <= 1.0)):
        raise FastSimError("survival probabilities must lie in [0, 1]")
    return survive_prob


def _check_transfer(total_bytes, mtu) -> tuple[int, int]:
    """``(total_bytes, mtu)`` as plain ints, both positive."""
    total_bytes = _check_count("transfer size", total_bytes)
    mtu = _check_count("mtu", mtu)
    if total_bytes == 0:
        raise FastSimError("transfer size must be positive")
    if mtu == 0:
        raise FastSimError("mtu must be positive")
    return total_bytes, mtu


#: Cached uniform multinomial pvals per port count.  ``np.full(p, 1/p)``
#: is bit-identical every time, so caching cannot change any draw.
_UNIFORM_PVALS: dict[int, np.ndarray] = {}


def _uniform_pvals(n_ports: int) -> np.ndarray:
    pvals = _UNIFORM_PVALS.get(n_ports)
    if pvals is None:
        pvals = np.full(n_ports, 1.0 / n_ports)
        _UNIFORM_PVALS[n_ports] = pvals
    return pvals


def spray_counts(
    n_packets: int, n_ports: int, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Distribute ``n_packets`` over ``n_ports`` according to the
    spraying policy.

    ``random`` models uniform per-packet spraying (multinomial).
    ``adaptive`` models least-queue spraying, which under symmetric
    demand achieves a maximally even split: every port gets
    ``n // p`` packets and the remainder lands on ``n % p`` random
    distinct ports (pure quantization noise).
    """
    n_packets = _check_count("packet count", n_packets)
    if _check_count("port count", n_ports) < 1:
        raise FastSimError("need at least one port to spray over")
    if n_packets == 0:
        return np.zeros(n_ports, dtype=np.int64)
    if mode == "random":
        return rng.multinomial(n_packets, _uniform_pvals(n_ports)).astype(
            np.int64, copy=False
        )
    if mode == "adaptive":
        base, rem = divmod(n_packets, n_ports)
        counts = np.full(n_ports, base, dtype=np.int64)
        if rem:
            lucky = rng.choice(n_ports, size=rem, replace=False)
            counts[lucky] += 1
        return counts
    raise FastSimError(f"unknown spraying mode {mode!r}")


def deliver_packets(
    n_packets: int,
    survive_prob: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    max_rounds: int = 10_000,
) -> np.ndarray:
    """Spray ``n_packets`` over ports with per-port survival
    probabilities, retransmitting drops until everything arrives.

    Returns the number of packets *delivered* through each port
    (including retransmitted copies, which is what the ingress counters
    see).  Mirrors the RoCE transport: a dropped packet times out and is
    re-sprayed over all valid ports.
    """
    n_packets = _check_count("packet count", n_packets)
    survive_prob = _check_probabilities(survive_prob)
    return _deliver_packets_unchecked(n_packets, survive_prob, mode, rng, max_rounds)


def _deliver_packets_unchecked(
    n_packets: int,
    survive_prob: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    max_rounds: int = 10_000,
    all_zero: bool | None = None,
) -> np.ndarray:
    """:func:`deliver_packets` without input validation — for internal
    callers whose ``survive_prob`` is a cached, already-validated float
    array.  ``all_zero`` may carry a precomputed ``all(p == 0)`` verdict
    for cached vectors.  Draw-for-draw identical to the checked path:
    the uniform-spray multinomial is inlined (same draw), and pending
    is tracked arithmetically — a spray round conserves its packet
    count, so ``counts.sum()`` is ``pending`` by construction."""
    n_ports = survive_prob.size
    pending = int(n_packets)
    if pending == 0:
        return np.zeros(n_ports, dtype=np.int64)
    if np.all(survive_prob == 0.0) if all_zero is None else all_zero:
        raise FastSimError("every valid port drops all packets: unrecoverable")
    random_mode = mode == "random"
    delivered: np.ndarray | None = None
    for _round in range(max_rounds):
        if random_mode:
            counts = rng.multinomial(pending, _uniform_pvals(n_ports))
        else:
            counts = spray_counts(pending, n_ports, mode, rng)
        arrived = rng.binomial(counts, survive_prob)
        delivered = arrived if delivered is None else delivered + arrived
        pending -= int(arrived.sum())
        if pending == 0:
            return delivered
    raise FastSimError(f"retransmission did not converge in {max_rounds} rounds")


def deliver_transfer_bytes(
    total_bytes: int,
    mtu: int,
    survive_prob: np.ndarray,
    mode: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deliver a ``total_bytes`` message segmented at ``mtu``; returns
    per-port delivered *bytes*.

    The trailing partial packet (if any) is simulated individually so
    byte totals are exact rather than rounded to MTU multiples.
    """
    total_bytes, mtu = _check_transfer(total_bytes, mtu)
    survive_prob = _check_probabilities(survive_prob)
    n_full, rem = divmod(total_bytes, mtu)
    delivered = np.zeros(survive_prob.size, dtype=np.int64)
    if n_full:
        delivered += _deliver_packets_unchecked(n_full, survive_prob, mode, rng) * mtu
    if rem:
        delivered += _deliver_packets_unchecked(1, survive_prob, mode, rng) * rem
    return delivered


def _advance_replaces_binomial(rng: np.random.Generator) -> bool:
    """Whether :func:`_deliver_lossless`'s stream advance leaves ``rng``
    exactly where the binomial draw it replaces would.

    With survival probability 1.0, numpy's binomial returns ``n`` after
    one ``next_double`` when ``n > 0`` and draws nothing when ``n == 0``;
    on PCG64 one ``next_double`` is one 64-bit output, and ``advance(k)``
    moves the stream by exactly ``k`` outputs.  ``advance`` also clears
    the generator's buffered 32-bit half, so it is exact only while that
    buffer is empty.  Multinomial and binomial draws never fill it; the
    ``adaptive`` spray's ``choice`` may, which is why only ``random``
    spraying takes the lossless path.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        return False
    state = bit_generator.state
    return not state["has_uint32"] and not state["uinteger"]


def _deliver_lossless(
    n_packets: int, pvals: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``random``-spray delivery of ``n_packets > 0`` over ports that all
    survive with probability exactly 1.0: every sprayed packet arrives.

    Draw-for-draw identical to :func:`_deliver_packets_unchecked` while
    :func:`_advance_replaces_binomial` holds: the same multinomial, then
    one stream output per non-empty port in place of the binomial that
    would return the counts unchanged.
    """
    counts = rng.multinomial(n_packets, pvals)
    rng.bit_generator.advance(int(np.count_nonzero(counts)))
    return counts


def expected_arrival_bytes(
    total_bytes: int,
    mtu: int,
    survive_prob: np.ndarray,
    max_rounds: int = 10_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Expected per-port delivered bytes under uniform spraying with
    retransmission — the closed-form mean of
    :func:`deliver_transfer_bytes`.

    Iterates the re-spray fixed point: a pending pool ``m`` sprays
    ``m/p`` to each port, of which ``m/p * q_i`` arrives and the rest
    re-enters the pool.  Used by the simulation-based predictor when an
    expectation (not a sample) is wanted.
    """
    total_bytes = _check_count("transfer size", total_bytes)
    _check_count("mtu", mtu)
    survive_prob = _check_probabilities(survive_prob)
    if np.all(survive_prob == 0.0):
        raise FastSimError("every valid port drops all packets: unrecoverable")
    n_ports = survive_prob.size
    delivered = np.zeros(n_ports, dtype=float)
    pending = float(total_bytes)
    for _round in range(max_rounds):
        share = pending / n_ports
        arrived = share * survive_prob
        delivered += arrived
        pending = pending - float(arrived.sum())
        if pending <= tol * total_bytes:
            return delivered
    raise FastSimError(f"expectation did not converge in {max_rounds} rounds")
