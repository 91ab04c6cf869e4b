"""Fast per-iteration volume simulator.

Produces, for each collective iteration, the per-leaf, per-spine-port,
per-sender byte volumes the packet simulator's collectors emit — but in
microseconds instead of seconds, which is what makes the paper's trial
sweeps (Fig. 5) tractable.

The model distinguishes three layers of fault knowledge, mirroring the
paper:

- ``known_disabled``: pre-existing faults in the routing tables;
  excluded from spraying entirely.
- ``known_gray``: links the operator knows drop a fraction of packets
  (visible in error counters); still routed over.  Only the
  simulation-based predictor can account for these (paper §5.2).
- ``silent``: the faults FlowPulse must detect; unknown to every
  predictor, applied only when simulating "reality".

The hot path is vectorized: per-pair survival probabilities and valid
spine sets are computed once per model and cached, each run resolves
its leaf pairs once per step model into a step table, port volumes
accumulate into a dense ``(dst_leaf, spine)`` array, and each leaf
pair's per-spine arrival vector is kept as drawn.  Under ``random``
spraying a pair that survives every spine with probability exactly 1.0
draws only its multinomial and advances the generator past the
binomial that would return the counts unchanged.  One builder turns
those arrays into the iteration's single output, a columnar
:class:`~repro.core.blocks.IterationSegment` (:func:`simulate_segment`,
:func:`run_segments`) — the shape the monitor scores in one numpy pass.
:func:`simulate_iteration` / :func:`run_iterations` return that
segment's ``records()``, the per-leaf
:class:`~repro.simnet.counters.IterationRecord` lists.  The RNG call
sequence is identical to the original scalar implementation (kept as
the test oracle ``tests/fastsim/_reference.py``), so results are
bit-identical for equal seeds — a property the golden regression tests
enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ..collectives.demand import DemandMatrix
from ..core.blocks import KEY_DTYPE, IterationSegment, pack_array
from ..simnet.counters import IterationRecord
from ..simnet.packet import FlowTag
from ..units import DEFAULT_MTU
from ..topology.graph import (
    ClosSpec,
    ControlPlane,
    TopologyError,
    down_link,
    parse_fabric_link,
    up_link,
)
from .sampling import (
    FastSimError,
    _advance_replaces_binomial,
    _deliver_lossless,
    _deliver_packets_unchecked,
    _uniform_pvals,
    expected_arrival_bytes,
    spray_counts,
)


class _PairPath(NamedTuple):
    """A leaf pair's cached spraying state under one model."""

    idx: np.ndarray  # exactly ``control().valid_spines(src, dst)``, as an array
    survive: np.ndarray  # exactly :meth:`FabricModel.survive_probs` over it
    all_zero: bool  # every valid spine drops everything
    full_span: bool  # the pair sprays over every spine, in order
    lossless: bool  # every valid spine survives with probability exactly 1.0


@dataclass(frozen=True)
class FabricModel:
    """Statistical description of the fabric for the fast simulator.

    The ``known_gray`` and ``silent`` mappings are *copied* at
    construction time (like :meth:`with_silent` always did), so callers
    mutating the dict they passed in cannot silently change a
    validated model.
    """

    spec: ClosSpec
    known_disabled: frozenset[str] = frozenset()
    known_gray: dict[str, float] = field(default_factory=dict)
    silent: dict[str, float] = field(default_factory=dict)
    spraying: str = "random"
    mtu: int = DEFAULT_MTU

    def __post_init__(self) -> None:
        # Defensive copies: the frozen dataclass must not alias
        # caller-owned mutable state (a caller mutating its dict after
        # validation would bypass the range checks below).
        object.__setattr__(self, "known_gray", dict(self.known_gray))
        object.__setattr__(self, "silent", dict(self.silent))
        for rates in (self.known_gray, self.silent):
            for name, rate in rates.items():
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(f"drop rate for {name} must be in [0,1]")
        if self.mtu <= 0:
            raise ValueError("mtu must be positive")
        # Lazy per-instance caches (survival vectors, valid spine sets).
        # Not dataclass fields: invisible to __eq__/replace()/repr.
        object.__setattr__(self, "_path_cache", {})
        object.__setattr__(self, "_keep_cache", {})

    # ------------------------------------------------------------------
    def control(self) -> ControlPlane:
        """The control-plane view (knows only disabled links)."""
        return ControlPlane(self.spec, known_disabled=self.known_disabled)

    def drop_rate(self, link: str, include_silent: bool = True) -> float:
        """Combined drop probability on ``link``.

        Known-gray and silent faults compose independently; a disabled
        link drops everything (but is never sprayed onto anyway).
        """
        if link in self.known_disabled:
            return 1.0
        keep = 1.0 - self.known_gray.get(link, 0.0)
        if include_silent:
            keep *= 1.0 - self.silent.get(link, 0.0)
        return 1.0 - keep

    # ------------------------------------------------------------------
    # Cached vectorized path state
    # ------------------------------------------------------------------
    def _keep_matrices(self, include_silent: bool) -> tuple[np.ndarray, np.ndarray]:
        """``(up_keep, down_keep)`` survival matrices.

        ``up_keep[leaf, spine]`` / ``down_keep[spine, leaf]`` hold
        ``1.0 - drop_rate(link)`` for every fabric link.  Healthy links
        are exactly 1.0; only faulted links are touched, with the same
        floating-point expression the scalar path used, so the cached
        values are bit-identical to recomputing per link.
        """
        cached = self._keep_cache.get(include_silent)  # type: ignore[attr-defined]
        if cached is not None:
            return cached
        spec = self.spec
        up_keep = np.ones((spec.n_leaves, spec.n_spines))
        down_keep = np.ones((spec.n_spines, spec.n_leaves))
        faulted = set(self.known_gray) | set(self.known_disabled)
        if include_silent:
            faulted |= set(self.silent)
        for name in faulted:
            try:
                direction, leaf, spine = parse_fabric_link(name)
            except TopologyError:
                continue  # host links never appear on spine paths
            if not (0 <= leaf < spec.n_leaves and 0 <= spine < spec.n_spines):
                continue
            keep = 1.0 - self.drop_rate(name, include_silent)
            if direction == "up":
                up_keep[leaf, spine] = keep
            else:
                down_keep[spine, leaf] = keep
        self._keep_cache[include_silent] = (up_keep, down_keep)  # type: ignore[attr-defined]
        return up_keep, down_keep

    def _pair_paths(self, pairs: list, include_silent: bool) -> list[_PairPath]:
        """The cached :class:`_PairPath` of every leaf pair in ``pairs``,
        a demand's ``((src_leaf, dst_leaf), size)`` items.

        ``all_zero`` spares the sampling layer re-checking the cached
        vector on every transfer, ``full_span`` lets accumulation use
        plain row adds instead of fancy indexing, and ``lossless`` lets
        ``random`` spraying skip a binomial that cannot drop a packet.
        Without disabled links every pair spans every spine, so the
        uncached survival vectors are the rows of one product — the
        same per-element products as :meth:`survive_probs`.
        """
        cache = self._path_cache  # type: ignore[attr-defined]
        missing = [pair for pair, _size in pairs if (*pair, include_silent) not in cache]
        if missing:
            n_spines = self.spec.n_spines
            up_keep, down_keep = self._keep_matrices(include_silent)
            if self.known_disabled:
                control = self.control()
                for src, dst in missing:
                    idx = np.asarray(control.valid_spines(src, dst), dtype=np.intp)
                    survive = up_keep[src, idx] * down_keep[idx, dst]
                    cache[src, dst, include_silent] = _PairPath(
                        idx,
                        survive,
                        not survive.any(),
                        len(idx) == n_spines,  # valid spines ascend
                        bool((survive == 1.0).all()),
                    )
            else:
                srcs, dsts = np.array(missing, dtype=np.intp).reshape(-1, 2).T
                survive = up_keep[srcs] * down_keep[:, dsts].T
                all_zero = (~survive.any(axis=1)).tolist()
                lossless = (survive == 1.0).all(axis=1).tolist()
                idx = np.arange(n_spines, dtype=np.intp)
                idx.flags.writeable = False  # shared by every pair
                for row, (src, dst) in enumerate(missing):
                    cache[src, dst, include_silent] = _PairPath(
                        idx, survive[row], all_zero[row], True, lossless[row]
                    )
        return [cache[src, dst, include_silent] for (src, dst), _size in pairs]

    def survive_probs(
        self, src_leaf: int, dst_leaf: int, spines: list[int], include_silent: bool = True
    ) -> np.ndarray:
        """End-to-end per-spine survival probability for a leaf pair."""
        up_keep, down_keep = self._keep_matrices(include_silent)
        idx = np.asarray(spines, dtype=np.intp)
        return up_keep[src_leaf, idx] * down_keep[idx, dst_leaf]

    # ------------------------------------------------------------------
    def with_silent(self, faults: dict[str, float]) -> "FabricModel":
        """A copy with the given silent faults injected."""
        return replace(self, silent=dict(faults))

    def healthy_view(self) -> "FabricModel":
        """The predictor's view: silent faults removed."""
        return replace(self, silent={})

    def without_gray(self) -> "FabricModel":
        """A view without known-gray knowledge (analytical model's view)."""
        return replace(self, known_gray={}, silent={})


# ----------------------------------------------------------------------
# Dense arrays -> one columnar segment
# ----------------------------------------------------------------------
class _PairLayout(NamedTuple):
    """A demand's leaf pairs and where their arrival vectors land in a
    segment's sender columns.

    ``pairs`` is ``sorted(demand.leaf_pairs(spec).items())``, the
    iteration order of every simulation loop.  Each pair yields one
    vector over its valid spines; concatenated in pair order, ``order``
    permutes them into the segment's per-leaf ``(spine, src_leaf)``
    order, whose key columns are ``leaves`` (destination leaf),
    ``spines`` and ``srcs``.  ``offsets`` (CSR) and ``keys`` (the
    ``(spine, src_leaf)`` record keys) hold when no entry is zero.
    Valid spines depend on ``known_disabled`` only, so one layout serves
    every iteration of a run.
    """

    pairs: list
    order: np.ndarray
    leaves: np.ndarray
    spines: np.ndarray
    srcs: np.ndarray
    offsets: np.ndarray
    keys: list


def _csr_offsets(leaves: np.ndarray, n_leaves: int) -> np.ndarray:
    """Offsets of each leaf's run in a leaf-sorted column."""
    return np.searchsorted(leaves, np.arange(n_leaves + 1)).astype(KEY_DTYPE, copy=False)


def _pair_layout(
    model: FabricModel, demand: DemandMatrix, include_silent: bool
) -> _PairLayout:
    spec = model.spec
    pairs = sorted(demand.leaf_pairs(spec).items())
    paths = model._pair_paths(pairs, include_silent)
    spans = [path.idx for path in paths]
    widths = [len(idx) for idx in spans]
    spines = np.concatenate(spans) if spans else np.zeros(0, dtype=KEY_DTYPE)
    dsts = np.repeat([dst for (_src, dst), _size in pairs], widths).astype(KEY_DTYPE)
    srcs = np.repeat([src for (src, _dst), _size in pairs], widths).astype(KEY_DTYPE)
    order = np.lexsort((srcs, spines, dsts))
    columns = [dsts[order], spines[order].astype(KEY_DTYPE), srcs[order]]
    for column in columns:
        column.flags.writeable = False  # shared by every segment of the run
    offsets = _csr_offsets(columns[0], spec.n_leaves)
    offsets.flags.writeable = False
    keys = list(zip(columns[1].tolist(), columns[2].tolist()))
    return _PairLayout(pairs, order, *columns, offsets, keys)


def _segment(
    port_acc: np.ndarray, arrivals: list, layout: _PairLayout, tag: FlowTag
) -> IterationSegment:
    """The iteration's columnar output, read straight off the dense
    ``(leaf, spine)`` port array and the per-pair arrival vectors.

    Every column equals :meth:`IterationSegment.from_records` of the
    same records: zero volumes dropped, keys sorted within each leaf,
    ``int64`` volumes flagged as ints and ``float64`` ones as floats.
    """
    n_leaves = port_acc.shape[0]
    port_leaves, port_keys = np.nonzero(port_acc)
    port_raw, port_flags = pack_array(port_acc[port_leaves, port_keys])
    values = (
        np.concatenate(arrivals) if arrivals else np.zeros(0, dtype=port_acc.dtype)
    )[layout.order]
    leaves, spines, srcs, offsets, keys = layout[2:]
    kept = values != 0
    if not kept.all():
        values, leaves, spines, srcs = values[kept], leaves[kept], spines[kept], srcs[kept]
        offsets, keys = _csr_offsets(leaves, n_leaves), None
    sender_raw, sender_flags = pack_array(values)
    iteration = tag.iteration
    return IterationSegment(
        job_id=tag.job_id,
        iteration=iteration,
        collective=tag.collective,
        leaves=np.arange(n_leaves, dtype=KEY_DTYPE),
        start_ns=np.full(n_leaves, iteration, dtype=KEY_DTYPE),
        end_ns=np.full(n_leaves, iteration + 1, dtype=KEY_DTYPE),
        port_offsets=_csr_offsets(port_leaves, n_leaves),
        port_keys=port_keys.astype(KEY_DTYPE, copy=False),
        port_raw=port_raw,
        port_flags=port_flags,
        sender_offsets=offsets,
        sender_spines=spines,
        sender_srcs=srcs,
        sender_raw=sender_raw,
        sender_flags=sender_flags,
        _sender_keys=keys,
    )


def _step_table(
    model: FabricModel, layout: _PairLayout, include_silent: bool, skip_binomial: bool
) -> list[tuple]:
    """What one iteration under ``model`` needs per leaf pair of
    ``layout``, resolved once: ``(dst_leaf, parts, idx, survive,
    all_zero, full_span, lossless, pvals)``.

    ``parts`` lists the transfer's ``(packets, bytes_each)`` deliveries:
    the full MTU packets, then the lone remainder packet.  ``lossless``
    is set only when ``skip_binomial`` allows the stream advance (see
    :func:`~repro.fastsim.sampling._advance_replaces_binomial`) and the
    model sprays ``random``.
    """
    mtu = model.mtu
    skip_binomial = skip_binomial and model.spraying == "random"
    table = []
    paths = model._pair_paths(layout.pairs, include_silent)
    for ((_src_leaf, dst_leaf), size), path in zip(layout.pairs, paths):
        if size <= 0:
            raise FastSimError("transfer size must be positive")
        n_full, rem = divmod(size, mtu)
        parts = []
        if n_full:
            parts.append((n_full, mtu))
        if rem:
            parts.append((1, rem))
        table.append(
            (
                dst_leaf,
                parts,
                path.idx,
                path.survive,
                path.all_zero,
                path.full_span,
                path.lossless and skip_binomial,
                _uniform_pvals(len(path.idx)),
            )
        )
    return table


def _simulate_table(
    model: FabricModel,
    table: list[tuple],
    layout: _PairLayout,
    rng: np.random.Generator,
    tag: FlowTag,
) -> IterationSegment:
    """One iteration from a :func:`_step_table`."""
    spec = model.spec
    port_acc = np.zeros((spec.n_leaves, spec.n_spines), dtype=np.int64)
    arrivals = []
    spraying = model.spraying
    for dst_leaf, parts, idx, survive, all_zero, full_span, lossless, pvals in table:
        arrived = None
        for packets, bytes_each in parts:
            if lossless:
                got = _deliver_lossless(packets, pvals, rng) * bytes_each
            else:
                got = (
                    _deliver_packets_unchecked(
                        packets, survive, spraying, rng, all_zero=all_zero
                    )
                    * bytes_each
                )
            if arrived is None:
                arrived = got
            else:
                arrived += got
        if full_span:
            port_acc[dst_leaf] += arrived
        else:
            port_acc[dst_leaf, idx] += arrived
        arrivals.append(arrived)
    return _segment(port_acc, arrivals, layout, tag)


def simulate_segment(
    model: FabricModel,
    demand: DemandMatrix,
    rng: np.random.Generator,
    tag: FlowTag | None = None,
    include_silent: bool = True,
) -> IterationSegment:
    """Simulate one collective iteration; returns its columnar segment
    (one record per leaf, in leaf order).

    Each source-destination leaf pair sprays its bytes over the control
    plane's valid spines; drops (known-gray and, when
    ``include_silent``, silent) are re-sprayed as the RoCE transport
    would retransmit them.  Records carry iteration-index pseudo-times.

    Bit-identical to the test oracle's ``reference_simulate_iteration``
    (``tests/fastsim/_reference.py``) for equal seeds: the sequence of RNG
    draws is unchanged, and ``rng`` ends in the same state.  Only the
    accumulation is vectorized, and a lossless pair advances the stream
    instead of drawing a binomial that returns its input.
    """
    layout = _pair_layout(model, demand, include_silent)
    table = _step_table(model, layout, include_silent, _advance_replaces_binomial(rng))
    return _simulate_table(model, table, layout, rng, tag or FlowTag(job_id=0, iteration=0))


def simulate_iteration(
    model: FabricModel,
    demand: DemandMatrix,
    rng: np.random.Generator,
    tag: FlowTag | None = None,
    include_silent: bool = True,
) -> list[IterationRecord]:
    """:func:`simulate_segment` as one :class:`IterationRecord` per leaf."""
    return simulate_segment(model, demand, rng, tag, include_silent).records()


def simulate_iteration_with_spines(
    model: FabricModel,
    demand: DemandMatrix,
    rng: np.random.Generator,
    tag: FlowTag | None = None,
    include_silent: bool = True,
) -> tuple[list[IterationRecord], list[IterationRecord]]:
    """Like :func:`simulate_iteration`, additionally returning the
    *spine-tier* measurements: per spine switch, the tagged bytes
    arriving on its ingress port from each source leaf (i.e. what
    survived the up links).  These are the counters the corroboration
    step (:mod:`repro.core.corroboration`) uses to split a leaf-observed
    deficit into its up-link and down-link components.

    For spine records, ``leaf`` carries the spine index and the
    ``port_bytes``/``sender_bytes`` keys are source-leaf indices.
    """
    spec = model.spec
    tag = tag or FlowTag(job_id=0, iteration=0)
    layout = _pair_layout(model, demand, include_silent)
    port_acc = np.zeros((spec.n_leaves, spec.n_spines), dtype=np.int64)
    arrivals = []
    spine_ingress = np.zeros((spec.n_spines, spec.n_leaves), dtype=np.int64)

    up_keep_m, down_keep_m = model._keep_matrices(include_silent)
    paths = model._pair_paths(layout.pairs, include_silent)
    for ((src_leaf, dst_leaf), size), path in zip(layout.pairs, paths):
        idx = path.idx
        up_keep = up_keep_m[src_leaf, idx]
        down_keep = down_keep_m[idx, dst_leaf]
        if path.all_zero:
            raise FastSimError("every valid path drops all packets")
        arrived = np.zeros(len(idx), dtype=np.int64)
        n_full, rem = divmod(size, model.mtu)
        for packets, bytes_each in ((n_full, model.mtu), (1 if rem else 0, rem)):
            pending = packets
            for _round in range(10_000):
                if pending == 0:
                    break
                counts = spray_counts(pending, len(idx), model.spraying, rng)
                at_spine = rng.binomial(counts, up_keep)
                at_leaf = rng.binomial(at_spine, down_keep)
                pending = int(counts.sum() - at_leaf.sum())
                spine_ingress[idx, src_leaf] += at_spine * bytes_each
                arrived += at_leaf * bytes_each
            else:
                raise FastSimError("retransmission did not converge")
        port_acc[dst_leaf, idx] += arrived
        arrivals.append(arrived)

    leaves = _segment(port_acc, arrivals, layout, tag).records()
    spine_records = []
    for spine in range(spec.n_spines):
        row = spine_ingress[spine]
        srcs = np.nonzero(row)[0]
        ingress = {int(src): int(row[src]) for src in srcs}
        spine_records.append(
            IterationRecord(
                leaf=spine,
                tag=tag,
                port_bytes=ingress,
                sender_bytes={(src, src): volume for src, volume in ingress.items()},
                start_ns=tag.iteration,
                end_ns=tag.iteration + 1,
            )
        )
    return leaves, spine_records


def expected_iteration(
    model: FabricModel,
    demand: DemandMatrix,
    include_silent: bool = False,
) -> list[IterationRecord]:
    """Closed-form expected volumes per leaf (no sampling noise).

    This is what the simulation-based predictor (paper §5.2) computes:
    the mean per-port volume given everything the operator knows —
    disabled links *and* known-gray drop rates.
    """
    spec = model.spec
    layout = _pair_layout(model, demand, include_silent)
    port_acc = np.zeros((spec.n_leaves, spec.n_spines))
    arrivals = []
    paths = model._pair_paths(layout.pairs, include_silent)
    for ((_src_leaf, dst_leaf), size), path in zip(layout.pairs, paths):
        arrived = expected_arrival_bytes(size, model.mtu, path.survive)
        port_acc[dst_leaf, path.idx] += arrived
        arrivals.append(arrived)
    return _segment(port_acc, arrivals, layout, FlowTag(job_id=0, iteration=0)).records()


#: Schedule of silent faults per iteration: callable(iteration) -> faults.
FaultSchedule = "callable[[int], dict[str, float]]"


def run_segments(
    model: FabricModel,
    demand: DemandMatrix,
    n_iterations: int,
    seed: int = 0,
    job_id: int = 1,
    fault_schedule=None,
) -> list[IterationSegment]:
    """Run ``n_iterations`` collective instances; returns one columnar
    segment per iteration.

    ``fault_schedule(iteration)`` may override the silent-fault set per
    iteration — this is how transient faults (paper Fig. 3) are modelled
    at iteration granularity.  Consecutive iterations with an unchanged
    fault set share one step model and its per-pair step table; a fault
    set equal to the model's own silent faults reuses ``model`` itself.
    """
    if n_iterations < 1:
        raise FastSimError("need at least one iteration")
    rng = np.random.Generator(np.random.PCG64(seed))
    # A fresh PCG64 qualifies, and the draws of a run never fill the
    # buffered half that would disqualify it (random spraying only).
    skip_binomial = _advance_replaces_binomial(rng)
    segments = []
    layout = table = None
    step_model = model
    last_faults: dict[str, float] | None = None
    for iteration in range(n_iterations):
        if fault_schedule is not None:
            faults = fault_schedule(iteration)
            if last_faults is None or faults != last_faults:
                step_model = model if faults == model.silent else model.with_silent(faults)
                last_faults = dict(faults)
                table = None
        if layout is None:
            # Built from the first step model, whose path cache the
            # first step table then reuses.
            layout = _pair_layout(step_model, demand, True)
        if table is None:
            table = _step_table(step_model, layout, True, skip_binomial)
        tag = FlowTag(job_id=job_id, iteration=iteration)
        segments.append(_simulate_table(step_model, table, layout, rng, tag))
    return segments


def run_iterations(
    model: FabricModel,
    demand: DemandMatrix,
    n_iterations: int,
    seed: int = 0,
    job_id: int = 1,
    fault_schedule=None,
) -> list[list[IterationRecord]]:
    """:func:`run_segments` as per-iteration record lists."""
    return [
        segment.records()
        for segment in run_segments(
            model, demand, n_iterations, seed=seed, job_id=job_id,
            fault_schedule=fault_schedule,
        )
    ]
