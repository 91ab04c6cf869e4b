"""Pre-vectorization reference implementations (golden baselines).

These are verbatim copies of the original pure-Python
``simulate_iteration`` / ``expected_iteration`` hot paths, kept so that
the golden regression tests (``test_reference_golden.py``) can assert
the vectorized engine in :mod:`repro.fastsim.model` is *bit-identical*
for every seed.

Test equipment, not part of the package: any behavioural change to the
fast simulator must keep the golden tests against this module passing
(or consciously retire them).
"""

from __future__ import annotations

import numpy as np

from repro.collectives.demand import DemandMatrix
from repro.fastsim.model import FabricModel
from repro.fastsim.sampling import FastSimError, expected_arrival_bytes
from repro.simnet.counters import IterationRecord
from repro.simnet.packet import FlowTag
from repro.topology.graph import down_link, up_link


def reference_spray_counts(
    n_packets: int, n_ports: int, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """The original ``spray_counts``: fresh pvals allocation per call."""
    if n_packets < 0:
        raise FastSimError(f"negative packet count: {n_packets}")
    if n_ports < 1:
        raise FastSimError("need at least one port to spray over")
    if n_packets == 0:
        return np.zeros(n_ports, dtype=np.int64)
    if mode == "random":
        return rng.multinomial(n_packets, np.full(n_ports, 1.0 / n_ports)).astype(
            np.int64
        )
    if mode == "adaptive":
        base, rem = divmod(n_packets, n_ports)
        counts = np.full(n_ports, base, dtype=np.int64)
        if rem:
            lucky = rng.choice(n_ports, size=rem, replace=False)
            counts[lucky] += 1
        return counts
    raise FastSimError(f"unknown spraying mode {mode!r}")


def reference_deliver_packets(
    n_packets: int,
    survive_prob: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    max_rounds: int = 10_000,
) -> np.ndarray:
    """The original ``deliver_packets``: full validation on every call."""
    survive_prob = np.asarray(survive_prob, dtype=float)
    if survive_prob.ndim != 1 or survive_prob.size < 1:
        raise FastSimError("survive_prob must be a 1-D array of ports")
    if np.any((survive_prob < 0.0) | (survive_prob > 1.0)):
        raise FastSimError("survival probabilities must lie in [0, 1]")
    n_ports = survive_prob.size
    delivered = np.zeros(n_ports, dtype=np.int64)
    pending = int(n_packets)
    if pending == 0:
        return delivered
    if np.all(survive_prob == 0.0):
        raise FastSimError("every valid port drops all packets: unrecoverable")
    for _round in range(max_rounds):
        counts = reference_spray_counts(pending, n_ports, mode, rng)
        arrived = rng.binomial(counts, survive_prob)
        delivered += arrived
        pending = int(counts.sum() - arrived.sum())
        if pending == 0:
            return delivered
    raise FastSimError(f"retransmission did not converge in {max_rounds} rounds")


def reference_deliver_transfer_bytes(
    total_bytes: int,
    mtu: int,
    survive_prob: np.ndarray,
    mode: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """The original ``deliver_transfer_bytes``."""
    if total_bytes <= 0:
        raise FastSimError("transfer size must be positive")
    if mtu <= 0:
        raise FastSimError("mtu must be positive")
    n_full, rem = divmod(total_bytes, mtu)
    delivered = np.zeros(survive_prob.size, dtype=np.int64)
    if n_full:
        delivered += reference_deliver_packets(n_full, survive_prob, mode, rng) * mtu
    if rem:
        delivered += reference_deliver_packets(1, survive_prob, mode, rng) * rem
    return delivered


def reference_survive_probs(
    model: FabricModel,
    src_leaf: int,
    dst_leaf: int,
    spines: list[int],
    include_silent: bool = True,
) -> np.ndarray:
    """Per-spine survival probabilities, computed link by link."""
    probs = np.empty(len(spines))
    for idx, spine in enumerate(spines):
        up_keep = 1.0 - model.drop_rate(up_link(src_leaf, spine), include_silent)
        down_keep = 1.0 - model.drop_rate(down_link(spine, dst_leaf), include_silent)
        probs[idx] = up_keep * down_keep
    return probs


def reference_simulate_iteration(
    model: FabricModel,
    demand: DemandMatrix,
    rng: np.random.Generator,
    tag: FlowTag | None = None,
    include_silent: bool = True,
) -> list[IterationRecord]:
    """The original dict-accumulating ``simulate_iteration``."""
    spec = model.spec
    control = model.control()
    tag = tag or FlowTag(job_id=0, iteration=0)
    port_bytes: list[dict[int, int]] = [dict() for _ in range(spec.n_leaves)]
    sender_bytes: list[dict[tuple[int, int], int]] = [
        dict() for _ in range(spec.n_leaves)
    ]

    for (src_leaf, dst_leaf), size in sorted(demand.leaf_pairs(spec).items()):
        spines = control.valid_spines(src_leaf, dst_leaf)
        survive = reference_survive_probs(
            model, src_leaf, dst_leaf, spines, include_silent
        )
        arrived = reference_deliver_transfer_bytes(
            size, model.mtu, survive, model.spraying, rng
        )
        ports = port_bytes[dst_leaf]
        senders = sender_bytes[dst_leaf]
        for idx, spine in enumerate(spines):
            got = int(arrived[idx])
            if got:
                ports[spine] = ports.get(spine, 0) + got
                key = (spine, src_leaf)
                senders[key] = senders.get(key, 0) + got

    return [
        IterationRecord(
            leaf=leaf,
            tag=tag,
            port_bytes=port_bytes[leaf],
            sender_bytes=sender_bytes[leaf],
            start_ns=tag.iteration,
            end_ns=tag.iteration + 1,
        )
        for leaf in range(spec.n_leaves)
    ]


def reference_expected_iteration(
    model: FabricModel,
    demand: DemandMatrix,
    include_silent: bool = False,
) -> list[IterationRecord]:
    """The original dict-accumulating ``expected_iteration``."""
    spec = model.spec
    control = model.control()
    tag = FlowTag(job_id=0, iteration=0)
    port_bytes: list[dict[int, float]] = [dict() for _ in range(spec.n_leaves)]
    sender_bytes: list[dict[tuple[int, int], float]] = [
        dict() for _ in range(spec.n_leaves)
    ]
    for (src_leaf, dst_leaf), size in sorted(demand.leaf_pairs(spec).items()):
        spines = control.valid_spines(src_leaf, dst_leaf)
        survive = reference_survive_probs(
            model, src_leaf, dst_leaf, spines, include_silent
        )
        arrived = expected_arrival_bytes(size, model.mtu, survive)
        ports = port_bytes[dst_leaf]
        senders = sender_bytes[dst_leaf]
        for idx, spine in enumerate(spines):
            got = float(arrived[idx])
            if got:
                ports[spine] = ports.get(spine, 0.0) + got
                key = (spine, src_leaf)
                senders[key] = senders.get(key, 0.0) + got
    return [
        IterationRecord(
            leaf=leaf,
            tag=tag,
            port_bytes=port_bytes[leaf],
            sender_bytes=sender_bytes[leaf],
            start_ns=0,
            end_ns=1,
        )
        for leaf in range(spec.n_leaves)
    ]


def reference_run_iterations(
    model: FabricModel,
    demand: DemandMatrix,
    n_iterations: int,
    seed: int = 0,
    job_id: int = 1,
    fault_schedule=None,
) -> list[list[IterationRecord]]:
    """The original serial iteration loop (fresh model per iteration)."""
    if n_iterations < 1:
        raise FastSimError("need at least one iteration")
    rng = np.random.Generator(np.random.PCG64(seed))
    results = []
    for iteration in range(n_iterations):
        step_model = model
        if fault_schedule is not None:
            step_model = model.with_silent(fault_schedule(iteration))
        tag = FlowTag(job_id=job_id, iteration=iteration)
        results.append(
            reference_simulate_iteration(step_model, demand, rng, tag=tag)
        )
    return results
