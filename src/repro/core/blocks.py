"""Columnar iteration blocks: dense numpy form of measurement batches.

The scalar monitor consumes :class:`~repro.simnet.counters.IterationRecord`
objects — one dict-backed record per leaf per iteration.  That shape is
right for the simulators (which *produce* one record at a time) but
wrong for the fleet ingest hot path, where thousands of iterations per
second arrive already batched and the per-record dict churn dominates
the cost of scoring them.

:class:`IterationSegment` is the columnar alternative: all of one
iteration's records as flat numpy columns (leaf ids, timestamps,
port/sender keys and values with explicit offsets), cheap to build
straight out of the binary wire format (:mod:`repro.fleet.codec` v2
frames are these columns on disk) and cheap to score in bulk
(:func:`repro.core.monitor.process_blocks`).  Records
are materialized lazily — only for the leaves that actually alarm and
need the scalar detector/localizer.

Value columns carry mixed int/float payloads the same way the wire
format does: one ``int64`` raw slot per value plus a flag byte, with
float values stored as the raw IEEE-754 bits (``port_raw.view(float64)``).
Integers stay integers and finite floats round-trip bit-exactly, which
is what lets the fleet's golden-parity guarantee extend through the
columnar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

from ..simnet.counters import IterationRecord
from ..simnet.packet import FlowTag

#: Value-column flag bytes: how to read the matching raw 8-byte slot.
VALUE_INT = 0
VALUE_FLOAT = 1

#: dtypes shared with the v2 wire format (explicitly little-endian so
#: encoded segments are byte-identical across platforms).
KEY_DTYPE = np.dtype("<i8")
RAW_DTYPE = np.dtype("<i8")
FLOAT_DTYPE = np.dtype("<f8")
COUNT_DTYPE = np.dtype("<u4")
FLAG_DTYPE = np.dtype("<u1")


class BlockError(RuntimeError):
    """Raised for values a columnar segment cannot represent."""


def _pack_values(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``(raw_i64, flags_u8)`` columns for a mixed int/float value list.

    Integers land in the raw slot directly (64-bit range enforced);
    floats are stored as their IEEE-754 bit pattern via a float64 view
    of the same buffer, so both kinds round-trip exactly.
    """
    raw = np.zeros(len(values), dtype=RAW_DTYPE)
    flags = np.zeros(len(values), dtype=FLAG_DTYPE)
    float_view = raw.view(FLOAT_DTYPE)
    for index, value in enumerate(values):
        if isinstance(value, float):
            flags[index] = VALUE_FLOAT
            float_view[index] = value
        else:
            try:
                raw[index] = value
            except (OverflowError, ValueError) as exc:
                raise BlockError(
                    f"integer {value!r} out of 64-bit range for a columnar segment"
                ) from exc
    return raw, flags


def pack_array(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pack_values` for a whole ``int64`` or ``float64`` vector:
    every slot flagged alike, floats stored as their bit pattern."""
    if values.dtype.kind == "f":
        return values.view(RAW_DTYPE), np.full(len(values), VALUE_FLOAT, dtype=FLAG_DTYPE)
    return values.astype(RAW_DTYPE, copy=False), np.zeros(len(values), dtype=FLAG_DTYPE)


def keys_ascend(offsets: np.ndarray, first: np.ndarray, second: np.ndarray | None = None) -> bool:
    """Whether each record's keys strictly increase — lexicographically
    over ``(first, second)`` when ``second`` is given — with record
    ``j`` owning ``[offsets[j] - offsets[0], offsets[j + 1] - offsets[0])``
    of the key columns.  Sorted, repeat-free keys are what
    :meth:`IterationSegment.from_records` produces and every writer
    writes."""
    if len(first) < 2:
        return True
    later, earlier = first[1:], first[:-1]
    rising = later > earlier
    if second is not None:
        rising |= (later == earlier) & (second[1:] > second[:-1])
    if len(offsets) > 2:  # a record may start low
        starts = offsets[1:-1] - offsets[0]
        rising[starts[(starts > 0) & (starts < len(first))] - 1] = True
    return bool(rising.all())


def as_floats(raw: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """The raw/flag value columns as one float64 array.  Integer values
    are converted exactly as Python's ``float()`` would (both are
    round-to-nearest IEEE-754 conversions), so vectorized deviation
    arithmetic on the result is bit-identical to the scalar path's."""
    if flags.any():
        return np.where(flags.astype(bool), raw.view(FLOAT_DTYPE), raw.astype(np.float64))
    return raw.astype(np.float64)


def unpack_values(raw: np.ndarray, flags: np.ndarray) -> list:
    """The raw/flag columns back as Python values, original types intact."""
    values = raw.tolist()
    if flags.any():
        floats = raw.view(FLOAT_DTYPE).tolist()
        for index in np.flatnonzero(flags).tolist():
            values[index] = floats[index]
    return values


@dataclass(eq=False)
class IterationSegment:
    """One collective iteration of one job, in dense column form.

    The arrays follow the record order of the source batch (leaf order,
    as the collectors emit them).  ``port_offsets``/``sender_offsets``
    are CSR-style: record ``j`` owns ``port_keys[port_offsets[j]:
    port_offsets[j + 1]]`` and the matching raw/flag slices.  Keys are
    sorted within each record, matching the v1 wire encoder, so a
    segment built from records and a segment decoded off the wire are
    indistinguishable.  Two segments are ``==`` when their tags are and
    every column holds the same values.
    """

    job_id: int
    iteration: int
    collective: str
    leaves: np.ndarray  # i64[m]
    start_ns: np.ndarray  # i64[m]
    end_ns: np.ndarray  # i64[m]
    port_offsets: np.ndarray  # i64[m + 1]
    port_keys: np.ndarray  # i64[P] spine index
    port_raw: np.ndarray  # i64[P] raw value slots
    port_flags: np.ndarray  # u8[P] VALUE_INT | VALUE_FLOAT
    sender_offsets: np.ndarray  # i64[m + 1]
    sender_spines: np.ndarray  # i64[S]
    sender_srcs: np.ndarray  # i64[S]
    sender_raw: np.ndarray  # i64[S]
    sender_flags: np.ndarray  # u8[S]
    _records: list[IterationRecord] | None = field(
        default=None, repr=False, compare=False
    )
    _pattern: np.ndarray | None = field(default=None, repr=False, compare=False)
    _pattern_known: bool = field(default=False, repr=False, compare=False)
    #: ``(spine, src)`` tuples of the sender key columns, when the
    #: producer already holds them (the fast simulator reuses one key
    #: layout for a whole run); built per materialization otherwise.
    _sender_keys: list | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return len(self.leaves)

    @property
    def tag(self) -> FlowTag:
        return FlowTag(self.job_id, self.iteration, self.collective)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IterationSegment):
            return NotImplemented
        return self.tag == other.tag and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in SEGMENT_COLUMNS
        )

    __hash__ = None  # mutable caches and array columns: unhashable

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: list[IterationRecord]) -> "IterationSegment":
        """Columnarize one iteration's record list (all same flow tag)."""
        if not records:
            raise BlockError("a columnar segment cannot be empty")
        tag = records[0].tag
        for record in records[1:]:
            if record.tag != tag:
                raise BlockError(
                    f"mixed tags in segment: {tag} vs {record.tag} "
                    "(one segment = one iteration of one job)"
                )
        port_keys: list[int] = []
        port_values: list = []
        port_offsets = [0]
        sender_spines: list[int] = []
        sender_srcs: list[int] = []
        sender_values: list = []
        sender_offsets = [0]
        for record in records:
            for spine, size in sorted(record.port_bytes.items()):
                port_keys.append(spine)
                port_values.append(size)
            port_offsets.append(len(port_keys))
            for (spine, src), size in sorted(record.sender_bytes.items()):
                sender_spines.append(spine)
                sender_srcs.append(src)
                sender_values.append(size)
            sender_offsets.append(len(sender_spines))
        port_raw, port_flags = _pack_values(port_values)
        sender_raw, sender_flags = _pack_values(sender_values)
        try:
            leaves = np.array([r.leaf for r in records], dtype=KEY_DTYPE)
            start_ns = np.array([r.start_ns for r in records], dtype=KEY_DTYPE)
            end_ns = np.array([r.end_ns for r in records], dtype=KEY_DTYPE)
            keys = np.array(port_keys, dtype=KEY_DTYPE)
            spines = np.array(sender_spines, dtype=KEY_DTYPE)
            srcs = np.array(sender_srcs, dtype=KEY_DTYPE)
        except (OverflowError, ValueError) as exc:
            raise BlockError(f"field out of 64-bit range: {exc}") from exc
        segment = cls(
            job_id=tag.job_id,
            iteration=tag.iteration,
            collective=tag.collective,
            leaves=leaves,
            start_ns=start_ns,
            end_ns=end_ns,
            port_offsets=np.array(port_offsets, dtype=KEY_DTYPE),
            port_keys=keys,
            port_raw=port_raw,
            port_flags=port_flags,
            sender_offsets=np.array(sender_offsets, dtype=KEY_DTYPE),
            sender_spines=spines,
            sender_srcs=srcs,
            sender_raw=sender_raw,
            sender_flags=sender_flags,
        )
        segment._records = list(records)
        return segment

    # ------------------------------------------------------------------
    def record(self, index: int) -> IterationRecord:
        """Materialize one record (dict-backed, exact value types)."""
        if self._records is not None:
            return self._records[index]
        return self._materialize(index, index + 1)[0]

    def records(self) -> list[IterationRecord]:
        """Materialize every record (cached; preserves record order)."""
        if self._records is None:
            self._records = self._materialize(0, self.n_records)
        return self._records

    def _materialize(self, lo: int, hi: int) -> list[IterationRecord]:
        """Records ``lo..hi``, read off ``tolist()``-ed column slices (one
        numpy call per column, not one scalar index per key and value).
        Each record's tables take the next ``count`` items of one
        ``(key, value)`` stream; the per-record walk runs in ``map``."""
        p = self.port_offsets[lo : hi + 1]
        s = self.sender_offsets[lo : hi + 1]
        ports, senders = slice(p[0], p[-1]), slice(s[0], s[-1])
        port_keys = self.port_keys[ports]
        spines, srcs = self.sender_spines[senders], self.sender_srcs[senders]
        if not (keys_ascend(p, port_keys) and keys_ascend(s, spines, srcs)):
            # A dict would keep the last of repeated keys and drop the rest.
            raise BlockError("a record's port or sender keys do not strictly ascend")
        port_items = zip(
            port_keys.tolist(),
            unpack_values(self.port_raw[ports], self.port_flags[ports]),
        )
        keys = self._sender_keys
        sender_items = zip(
            zip(spines.tolist(), srcs.tolist()) if keys is None else keys[senders],
            unpack_values(self.sender_raw[senders], self.sender_flags[senders]),
        )
        return list(
            map(
                IterationRecord,
                self.leaves[lo:hi].tolist(),
                repeat(self.tag),
                map(dict, map(islice, repeat(port_items), (p[1:] - p[:-1]).tolist())),
                map(dict, map(islice, repeat(sender_items), (s[1:] - s[:-1]).tolist())),
                self.start_ns[lo:hi].tolist(),
                self.end_ns[lo:hi].tolist(),
            )
        )

    # ------------------------------------------------------------------
    def port_pattern(self) -> np.ndarray | None:
        """The spine-key pattern shared by *every* record, or ``None``.

        A non-``None`` pattern means the segment is dense: each record
        observed exactly the same sorted set of spine ports, so the
        value column reshapes into an ``(m, p)`` matrix.  The monitor
        builds its dense plan from this pattern; a segment without one
        never gets a plan.
        """
        if not self._pattern_known:
            self._pattern_known = True
            self._pattern = None
            m = self.n_records
            if m > 0:
                counts = np.diff(self.port_offsets)
                width = int(counts[0])
                if width > 0 and bool((counts == width).all()):
                    keys = self.port_keys.reshape(m, width)
                    if bool((keys == keys[0]).all()):
                        self._pattern = keys[0]
        return self._pattern


#: The array columns of a segment, in field order.
SEGMENT_COLUMNS = (
    "leaves", "start_ns", "end_ns",
    "port_offsets", "port_keys", "port_raw", "port_flags",
    "sender_offsets", "sender_spines", "sender_srcs", "sender_raw", "sender_flags",
)


def segments_from_run(run_records) -> list[IterationSegment]:
    """Columnarize a run (per-iteration record lists) into segments."""
    return [IterationSegment.from_records(list(records)) for records in run_records]
