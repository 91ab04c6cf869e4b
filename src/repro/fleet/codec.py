"""Versioned wire format for per-iteration measurement batches.

The fleet service moves per-leaf iteration measurements between
processes (and onto disk) as self-describing *units*, each declaring
its format version so a stream can be decoded unit-by-unit without a
file header and an old reader confronted with a newer payload fails
with a typed :class:`UnsupportedVersionError` instead of a ``KeyError``.

A batch is one collective iteration of one job: every leaf's port and
sender volumes.  Its native shape is the columnar
:class:`~repro.core.blocks.IterationSegment` the fast simulator emits
and the shard workers score; :class:`RecordBatch` is the same batch as
:class:`IterationRecord` dicts, for record-shaped producers and for
export.  Each wire version has exactly one writer and it reads segment
columns: :func:`encode_batch` takes a segment as it is and columnarizes
a :class:`RecordBatch` once on entry (:func:`_columnarize`, where both
versions' value checks live).

Two wire versions exist, negotiated per unit:

**Version 1 — JSON lines** (readable; the replay/debug format).  Each
line is a JSON array whose first elements are the magic, the version,
and the kind:

``["fprec", 1, "b", job_id, n_records, iteration, collective, [...]]``
    One batch — every leaf's ``[leaf, start_ns, end_ns, [[spine,
    bytes], ...], [[spine, src, bytes], ...]]`` for one collective
    iteration of one job, keys ascending.  ``job_id`` and ``n_records``
    sit at fixed early positions so the ingest frontend can route a
    line with :func:`peek_batch` (one regex match of the head, which
    takes canonical JSON integers only) without a full JSON parse.

``["fprec", 1, "j", {...}]``
    One :class:`JobConfig` — the monitored job's fabric/predictor
    description, everything a shard needs to rebuild the job's
    :class:`~repro.core.monitor.FlowPulseMonitor` deterministically.

**Version 2 — binary columnar frames** (the ingest hot path).  Each
frame is a 12-byte struct header (magic ``0xF7 'f' 'p' 'r'``, version,
kind, reserved flags, u32 payload length) followed by a struct-packed
payload.  Batch payloads are the columns of a
:class:`~repro.core.blocks.IterationSegment` — leaf ids, timestamps,
CSR-style port/sender key and value columns — so a shard worker decodes
a frame with a handful of ``np.frombuffer`` calls and scores whole
blocks of iterations in one vectorized pass without ever building a
per-record dict.  A v1 batch line is a text encoding of the same
columns, and :func:`decode_batch_segment` reads it as such: a line in
the writer's canonical form is scanned to its columns without
``json.loads``, any other line takes the JSON record route.  Both
versions reach the monitor as segments, and :func:`decode_batch`'s
records (always ``json.loads``: the scanner's reference) are the
export/debug view.  Job frames carry the same JSON
document as v1 inside a binary frame: they are control-plane, one per
job, and gain nothing from struct packing.  The header's first byte
(``0xF7``) is not valid UTF-8 and can never open a JSON line, so v1
lines and v2 frames mix freely in one ``.fprec`` stream.

A ``.fprec`` file is just these units concatenated (jobs conventionally
first), which makes the wire format double as a record/replay format:
a fastsim run's segments go to :func:`write_fprec` as they are, a
simnet run's record lists as :meth:`RecordBatch.from_records` batches,
and either replays through detection offline — :func:`iter_fprec`
auto-detects the version of every unit it reads.

Round-trips are exact in both versions: integers stay integers, finite
floats stay floats (v1 via ``repr`` round-trip, v2 via raw IEEE-754
bits), dict keys and tuple keys are rebuilt with their original types,
and record order inside a batch is preserved — the golden-parity
guarantee of the fleet service rests on this.  Both versions accept
the same batches, and only batches their decoders read back: ids,
leaves, timestamps and keys are integers (never ``bool`` or ``float``),
counters integers or finite floats, and every integer a column holds
fits int64 (a v2 frame further holds the ids in u64 slots).  Non-finite
floats are rejected on both encode and decode, and malformed input of
any shape — truncated frames, wrong length prefixes, trailing garbage,
bad magic — surfaces as :class:`CodecError`, never
``struct.error``/``IndexError``.
"""

from __future__ import annotations

import io
import json
import math
import pathlib
import re
import struct
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from typing import IO, Iterable, Iterator

import numpy as np

from ..analysis.experiments import ExperimentConfig
from ..core.blocks import (
    COUNT_DTYPE,
    FLAG_DTYPE,
    FLOAT_DTYPE,
    KEY_DTYPE,
    RAW_DTYPE,
    VALUE_FLOAT,
    BlockError,
    IterationSegment,
    keys_ascend,
    unpack_values,
)
from ..simnet.counters import IterationRecord
from ..simnet.packet import FlowTag

#: Magic tag opening every v1 line (cheap file-type identification).
FPREC_MAGIC = "fprec"
#: JSON-line wire version (readable; the replay/debug default).
FPREC_VERSION = 1
#: Binary columnar wire version (the ingest hot path).
FPREC_VERSION_BINARY = 2
#: Every version this codec reads and writes.
FPREC_VERSIONS = (FPREC_VERSION, FPREC_VERSION_BINARY)
#: Conventional file extension for captured record streams.
FPREC_SUFFIX = ".fprec"

#: Magic opening every v2 binary frame.  The first byte is not valid
#: UTF-8, so a frame can never be confused with a JSON line.
BINARY_MAGIC = b"\xf7fpr"
#: Frame header: magic, version (u8), kind (u8), reserved flags (u16),
#: payload length (u32).
_HEADER = struct.Struct("<4sBBHI")
#: Batch payload prefix: job_id (u64), iteration (u64), n_records
#: (u32), collective length (u16).  ``job_id``/``n_records`` sit at
#: frame offsets 12 and 28 so :func:`peek_batch` reads them without
#: touching the columns.
_BATCH_FIXED = struct.Struct("<QQIH")
_KIND_BATCH = ord("b")
_KIND_JOB = ord("j")
_U64_MAX = 2**64 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


#: What every v1 line opens with, and the line's kind, read at routing cost.
_V1_PREFIX = rf'\["{FPREC_MAGIC}",{FPREC_VERSION},"'
_V1_KIND = re.compile(_V1_PREFIX + '([bj])",')
#: A canonical JSON integer: what ``json.dumps`` writes for an ``int``.
_INT = "-?(?:0|[1-9][0-9]*)"
#: A batch line's head up to its records, as :func:`_segment_line`
#: writes it: job, n_records, iteration and a plain-ASCII collective.
_V1_BATCH_HEAD = re.compile(_V1_PREFIX + rf'b",({_INT}),({_INT}),({_INT}),"([ !#-\[\]-~]*)",')
#: The records of a batch line as :func:`_segment_line` writes them,
#: ``[[leaf,start,end,[[spine,bytes],..],[[spine,src,bytes],..]],..]]``,
#: less their digits and minus signs.
_LISTS = r"(?:\[,\](?:,\[,\])*)?\],\[(?:\[,,\](?:,\[,,\])*)?"
_V1_SKELETON = re.compile(rf"\[\[,,,\[{_LISTS}\]\](?:,\[,,,\[{_LISTS}\]\])*\]\]".encode())
_MISPLACED_MINUS = re.compile(rb"(?<![,\[])-|-(?![0-9])")
_BRACKETS_TO_SPACES = bytes.maketrans(b"[],", b"   ")
#: By the distance from a skeleton ``[`` to the next bracket (4: a record,
#: 3: a sender triple, 2: a port pair, 1: a list): how many integers it
#: opens, and for which table (0: record heads, 1: ports, 2: senders).
_SLOTS_BY_GAP = np.array([0, 0, 2, 3, 3])
_TABLE_BY_GAP = np.array([0, 0, 1, 2, 0], dtype=np.int8)
#: Where an int64's written width steps up: ``len(str(v))`` is 1, plus
#: 1 if ``v < 0``, plus the number of these ``abs(v)`` reaches.
_POW10 = 10 ** np.arange(1, 19)


class CodecError(RuntimeError):
    """Raised for malformed payloads, lines, frames, or values."""


class UnsupportedVersionError(CodecError):
    """Raised when a payload declares a version this codec cannot read."""


# ----------------------------------------------------------------------
# Payload containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecordBatch:
    """All leaves' records for one collective iteration of one job: the
    record-shaped twin of an :class:`IterationSegment`."""

    job_id: int
    iteration: int
    collective: str
    records: tuple[IterationRecord, ...]

    @classmethod
    def from_records(cls, records: Iterable[IterationRecord]) -> "RecordBatch":
        """Build a batch from one iteration's records, validating that
        they all carry the same flow tag."""
        records = tuple(records)
        if not records:
            raise CodecError("a record batch cannot be empty")
        tag = records[0].tag
        for record in records[1:]:
            if record.tag != tag:
                raise CodecError(
                    f"mixed tags in batch: {tag} vs {record.tag} "
                    "(one batch = one iteration of one job)"
                )
        return cls(
            job_id=tag.job_id,
            iteration=tag.iteration,
            collective=tag.collective,
            records=records,
        )

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def tag(self) -> FlowTag:
        return FlowTag(self.job_id, self.iteration, self.collective)


@dataclass(frozen=True)
class JobConfig:
    """Picklable, serializable description of one monitored job.

    ``experiment`` carries the fabric shape, demand size, predictor
    choice, and threshold; together with ``(base_seed, trial)`` it lets
    any shard rebuild the job's monitor deterministically (the same
    construction :func:`repro.analysis.experiments.run_trial` uses).
    ``faulted`` records ground truth when the stream came from the load
    generator (``None`` = unknown, excluded from validation).
    """

    job_id: int
    experiment: ExperimentConfig
    base_seed: int = 0
    trial: int = 0
    faulted: bool | None = None
    fault_link: str | None = None

    def __post_init__(self) -> None:
        if self.job_id != self.experiment.job_id:
            raise CodecError(
                f"job_id {self.job_id} does not match "
                f"experiment.job_id {self.experiment.job_id}"
            )


#: Field names a job payload may carry, computed from the dataclasses so
#: unknown keys from a newer writer map to a clear CodecError instead of
#: a bare ``TypeError`` about Python internals.
_JOB_FIELDS = frozenset(f.name for f in dataclass_fields(JobConfig)) - {"experiment"}
_EXPERIMENT_FIELDS = frozenset(f.name for f in dataclass_fields(ExperimentConfig))


# ----------------------------------------------------------------------
# Value validation
# ----------------------------------------------------------------------
def _check_finite(value, where: str):
    """Reject NaN/Infinity; return the value unchanged."""
    if isinstance(value, float) and not math.isfinite(value):
        raise CodecError(f"non-finite value {value!r} in {where}")
    return value


def _reject_constant(name: str):
    """``json.loads`` hook: a payload carrying bare ``NaN``/``Infinity``
    literals is malformed by definition."""
    raise CodecError(f"non-finite JSON constant {name!r} in payload")


def _int_key(value, where: str) -> int:
    """An ``int`` (or ``np.integer``, as a plain ``int``); never a
    ``bool`` or an integral ``float``."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise CodecError(f"expected integer in {where}, got {value!r}")


def _counter(value, where: str):
    """A counter is an ``int`` (or ``np.integer``) or a finite
    ``float``: ``null``, strings, booleans and nested arrays would
    otherwise reach the detector's arithmetic and fail (or silently
    score) there."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        return _check_finite(value, where)
    if isinstance(value, np.integer):
        return int(value)
    raise CodecError(f"expected a finite number in {where}, got {value!r}")


def _int64(value, where: str):
    """``value`` unchanged, unless it is an ``int`` no int64 column holds."""
    if type(value) is int and not _I64_MIN <= value <= _I64_MAX:
        raise CodecError(f"integer {value} in {where} out of 64-bit range")
    return value


def _require_version(version: int) -> None:
    """Writer-side negotiation: only encode versions we can decode."""
    if version not in FPREC_VERSIONS:
        raise UnsupportedVersionError(
            f"cannot encode wire version {version} "
            f"(supported versions: {FPREC_VERSIONS})"
        )


# ----------------------------------------------------------------------
# Records to columns (the one entry point both writers share)
# ----------------------------------------------------------------------
def _columnarize(batch: RecordBatch) -> IterationSegment:
    """A :class:`RecordBatch` as the segment both writers read.

    Every value is checked here, once, for both versions — the checks
    the decoders make on the way back in.  Without them a column
    silently coerces ``True`` or ``1.0`` to ``1`` and a v1 line carries
    ``true``, ``2**63`` or a bare ``TypeError`` from ``json.dumps``.
    """
    for record in batch.records:
        for value, where in (
            (record.leaf, "leaf"), (record.start_ns, "start_ns"), (record.end_ns, "end_ns")
        ):
            _int64(_int_key(value, where), where)
        for spine, size in record.port_bytes.items():
            _int64(_int_key(spine, "port_bytes key"), "port_bytes key")
            _int64(_counter(size, "port_bytes"), "port_bytes")
        for key, size in record.sender_bytes.items():
            if type(key) is not tuple or len(key) != 2:
                raise CodecError(f"sender_bytes key {key!r} is not a (spine, src) pair")
            for part in key:
                _int64(_int_key(part, "sender_bytes key"), "sender_bytes key")
            _int64(_counter(size, "sender_bytes"), "sender_bytes")
    try:
        return IterationSegment.from_records(list(batch.records))
    except BlockError as exc:
        raise CodecError(str(exc)) from exc


def _checked_tag(segment: IterationSegment) -> FlowTag:
    """What both writers check of a segment before writing it: integer
    ids (returned as plain ``int``), a string collective and finite
    float values.  Integer columns are int64 by construction."""
    if not isinstance(segment.collective, str):
        raise CodecError(f"expected a string collective, got {segment.collective!r}")
    for raw, flags, where in (
        (segment.port_raw, segment.port_flags, "port_bytes"),
        (segment.sender_raw, segment.sender_flags, "sender_bytes"),
    ):
        mask = flags == VALUE_FLOAT
        if mask.any() and not np.isfinite(raw.view(FLOAT_DTYPE)[mask]).all():
            raise CodecError(f"non-finite value in {where}")
    return FlowTag(
        _int_key(segment.job_id, "job_id"),
        _int_key(segment.iteration, "iteration"),
        segment.collective,
    )


# ----------------------------------------------------------------------
# v1 record decoding (JSON lines)
# ----------------------------------------------------------------------
def _decode_record(entry, tag: FlowTag) -> IterationRecord:
    try:
        leaf, start_ns, end_ns, port_pairs, sender_triples = entry
        port_bytes = {
            _int_key(spine, "port_bytes key"): _counter(size, "port_bytes")
            for spine, size in port_pairs
        }
        sender_bytes = {
            (
                _int_key(spine, "sender_bytes key"),
                _int_key(src, "sender_bytes key"),
            ): _counter(size, "sender_bytes")
            for spine, src, size in sender_triples
        }
        if len(port_bytes) != len(port_pairs) or len(sender_bytes) != len(sender_triples):
            # A dict keeps the last of repeated keys: the rest would vanish.
            raise CodecError("repeated key in a record's port or sender table")
    except CodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed record entry: {exc}") from exc
    return IterationRecord(
        leaf=_int_key(leaf, "leaf"),
        tag=tag,
        port_bytes=port_bytes,
        sender_bytes=sender_bytes,
        # Timestamps are validated like every other field: a stringly
        # "0" or a float must not survive decode and poison the
        # detect-latency bookkeeping downstream.
        start_ns=_int_key(start_ns, "start_ns"),
        end_ns=_int_key(end_ns, "end_ns"),
    )


# ----------------------------------------------------------------------
# Line/frame encoding
# ----------------------------------------------------------------------
def encode_batch(
    batch: IterationSegment | RecordBatch, version: int = FPREC_VERSION
) -> str | bytes:
    """One batch — a segment as it is, a :class:`RecordBatch` after one
    :func:`_columnarize` — as one wire unit.

    Version 1 returns a JSON line (``str``, no trailing newline);
    version 2 returns a complete binary frame (``bytes``).
    """
    _require_version(version)
    segment = batch if isinstance(batch, IterationSegment) else _columnarize(batch)
    if version == FPREC_VERSION_BINARY:
        return encode_segment(segment)
    return _segment_line(segment)


def _segment_line(segment: IterationSegment) -> str:
    """The v1 writer: one walk over the segment's columns into the
    line's nested lists, then one ``json.dumps``."""
    tag = _checked_tag(segment)
    port_values = unpack_values(segment.port_raw, segment.port_flags)
    sender_values = unpack_values(segment.sender_raw, segment.sender_flags)
    ports = list(map(list, zip(segment.port_keys.tolist(), port_values)))
    senders = list(
        map(list, zip(segment.sender_spines.tolist(), segment.sender_srcs.tolist(), sender_values))
    )
    p, s = segment.port_offsets.tolist(), segment.sender_offsets.tolist()
    entries = [
        [leaf, start_ns, end_ns, ports[p0:p1], senders[s0:s1]]
        for leaf, start_ns, end_ns, p0, p1, s0, s1 in zip(
            segment.leaves.tolist(), segment.start_ns.tolist(), segment.end_ns.tolist(),
            p, p[1:], s, s[1:],
        )
    ]
    payload = [
        FPREC_MAGIC, FPREC_VERSION, "b",
        tag.job_id, segment.n_records, tag.iteration, tag.collective, entries,
    ]
    return json.dumps(payload, separators=(",", ":"), allow_nan=False)


def _job_payload(job: JobConfig) -> dict:
    return {
        "job_id": job.job_id,
        "base_seed": job.base_seed,
        "trial": job.trial,
        "faulted": job.faulted,
        "fault_link": job.fault_link,
        "experiment": asdict(job.experiment),
    }


def encode_job(job: JobConfig, version: int = FPREC_VERSION) -> str | bytes:
    """One :class:`JobConfig` as one wire unit (see :func:`encode_batch`)."""
    _require_version(version)
    body = json.dumps(_job_payload(job), separators=(",", ":"), allow_nan=False)
    if version == FPREC_VERSION_BINARY:
        encoded = body.encode()
        return _HEADER.pack(
            BINARY_MAGIC, FPREC_VERSION_BINARY, _KIND_JOB, 0, len(encoded)
        ) + encoded
    return json.dumps(
        [FPREC_MAGIC, FPREC_VERSION, "j", _job_payload(job)],
        separators=(",", ":"),
        allow_nan=False,
    )


def encode_segment(segment: IterationSegment) -> bytes:
    """The v2 writer: one columnar
    :class:`~repro.core.blocks.IterationSegment` as one binary frame,
    its columns copied out as they are."""
    tag = _checked_tag(segment)
    if not 0 <= tag.job_id <= _U64_MAX:
        raise CodecError(f"job_id {tag.job_id} out of u64 range for v2")
    if not 0 <= tag.iteration <= _U64_MAX:
        raise CodecError(f"iteration {tag.iteration} out of u64 range for v2")
    collective = tag.collective.encode()
    if len(collective) > 0xFFFF:
        raise CodecError("collective name too long for a v2 frame")
    port_counts = np.asarray(np.diff(segment.port_offsets), dtype=COUNT_DTYPE)
    sender_counts = np.asarray(np.diff(segment.sender_offsets), dtype=COUNT_DTYPE)
    payload = b"".join(
        (
            _BATCH_FIXED.pack(
                tag.job_id, tag.iteration, segment.n_records, len(collective)
            ),
            collective,
            port_counts.tobytes(),
            sender_counts.tobytes(),
            np.asarray(segment.leaves, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.start_ns, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.end_ns, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.port_keys, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.port_raw, dtype=RAW_DTYPE).tobytes(),
            np.asarray(segment.port_flags, dtype=FLAG_DTYPE).tobytes(),
            np.asarray(segment.sender_spines, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.sender_srcs, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.sender_raw, dtype=RAW_DTYPE).tobytes(),
            np.asarray(segment.sender_flags, dtype=FLAG_DTYPE).tobytes(),
        )
    )
    return _HEADER.pack(
        BINARY_MAGIC, FPREC_VERSION_BINARY, _KIND_BATCH, 0, len(payload)
    ) + payload


# ----------------------------------------------------------------------
# v2 frame decoding
# ----------------------------------------------------------------------
def _split_frame(data: bytes) -> int:
    """Validate a complete binary frame's header; return its kind.  The
    payload starts at ``_HEADER.size`` and is read in place."""
    if len(data) < _HEADER.size:
        raise CodecError("truncated binary frame (short header)")
    magic, version, kind, flags, length = _HEADER.unpack_from(data, 0)
    if magic != BINARY_MAGIC:
        raise CodecError(f"bad binary magic {magic!r} (expected {BINARY_MAGIC!r})")
    if version != FPREC_VERSION_BINARY:
        raise UnsupportedVersionError(
            f"binary frame version {version} not supported (this codec reads "
            f"JSON lines at version {FPREC_VERSION} and binary frames at "
            f"version {FPREC_VERSION_BINARY})"
        )
    if flags != 0:
        raise CodecError(f"reserved frame flags set ({flags:#06x})")
    if kind not in (_KIND_BATCH, _KIND_JOB):
        raise CodecError(f"unknown binary frame kind {kind:#04x}")
    got = len(data) - _HEADER.size
    if got != length:
        raise CodecError(
            f"frame length prefix declares {length} payload bytes, got {got}"
        )
    return kind


#: A v2 batch's columns in wire order: name, item size, and whether
#: there is one item per record (``m``), port (``P``) or sender (``S``).
_V2_COLUMNS = (
    ("port counts", 4, "m"), ("sender counts", 4, "m"),
    ("leaves", 8, "m"), ("start_ns", 8, "m"), ("end_ns", 8, "m"),
    ("port keys", 8, "P"), ("port values", 8, "P"), ("port flags", 1, "P"),
    ("sender spines", 8, "S"), ("sender sources", 8, "S"), ("sender values", 8, "S"),
    ("sender flags", 1, "S"),
)


def _truncated(start: int, size: int, m: int, n_ports: int = 0, n_senders: int = 0):
    """The error naming the first column of a frame of ``size`` bytes,
    columns from ``start``, that ends past the frame."""
    items = {"m": m, "P": n_ports, "S": n_senders}
    end = start
    for what, itemsize, per in _V2_COLUMNS:
        end += itemsize * items[per]
        if size < end:
            return CodecError(f"truncated v2 batch frame ({what})")
    raise AssertionError("no column ends past the frame")


def _decode_segment_frame(frame: bytes) -> IterationSegment:
    """A v2 batch frame back into its columnar segment.

    The columns are read-only ``np.frombuffer`` views over the frame,
    one read per run of same-dtype adjacent columns (counts, record
    heads, port keys and values, port flags, sender triples, sender
    flags), split by slicing: nothing of the payload is copied.
    """
    size = len(frame)
    offset = _HEADER.size + _BATCH_FIXED.size
    if size < offset:
        raise CodecError("truncated v2 batch frame (short fixed section)")
    job_id, iteration, m, collective_len = _BATCH_FIXED.unpack_from(frame, _HEADER.size)
    if m == 0:
        raise CodecError("a record batch cannot be empty")
    if size < offset + collective_len:
        raise CodecError("truncated v2 batch frame (collective name)")
    try:
        collective = frame[offset : offset + collective_len].decode()
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable collective name: {exc}") from exc
    offset += collective_len
    heads_at = offset + 8 * m
    ports_at = heads_at + 24 * m
    if size < ports_at:
        raise _truncated(offset, size, m)
    # Both CSR offset columns from one cumulative sum over the two count
    # columns, each row led by its zero.
    offsets = np.zeros((2, m + 1), dtype=KEY_DTYPE)
    np.frombuffer(frame, COUNT_DTYPE, 2 * m, offset).reshape(2, m).cumsum(
        axis=1, out=offsets[:, 1:]
    )
    port_offsets, sender_offsets = offsets
    n_ports, n_senders = int(port_offsets[-1]), int(sender_offsets[-1])
    port_flags_at = ports_at + 16 * n_ports
    senders_at = port_flags_at + n_ports
    sender_flags_at = senders_at + 24 * n_senders
    end = sender_flags_at + n_senders
    if size < end:
        raise _truncated(offset, size, m, n_ports, n_senders)
    if size > end:
        raise CodecError(f"trailing garbage: {size - end} bytes after v2 batch payload")
    heads = np.frombuffer(frame, KEY_DTYPE, 3 * m, heads_at)
    ports = np.frombuffer(frame, KEY_DTYPE, 2 * n_ports, ports_at)
    port_flags = np.frombuffer(frame, FLAG_DTYPE, n_ports, port_flags_at)
    senders = np.frombuffer(frame, KEY_DTYPE, 3 * n_senders, senders_at)
    sender_flags = np.frombuffer(frame, FLAG_DTYPE, n_senders, sender_flags_at)
    port_raw = ports[n_ports:]
    sender_raw = senders[2 * n_senders :]
    for flags, raw, where in (
        (port_flags, port_raw, "port_bytes"),
        (sender_flags, sender_raw, "sender_bytes"),
    ):
        top = int(flags.max(initial=0))
        if top > VALUE_FLOAT:
            raise CodecError(f"unknown value flag in {where}")
        if top == VALUE_FLOAT and not np.isfinite(raw.view(FLOAT_DTYPE)[flags == VALUE_FLOAT]).all():
            raise CodecError(f"non-finite value in {where}")
    return IterationSegment(
        job_id=job_id,
        iteration=iteration,
        collective=collective,
        leaves=heads[:m],
        start_ns=heads[m : 2 * m],
        end_ns=heads[2 * m :],
        port_offsets=port_offsets,
        port_keys=ports[:n_ports],
        port_raw=port_raw,
        port_flags=port_flags,
        sender_offsets=sender_offsets,
        sender_spines=senders[:n_senders],
        sender_srcs=senders[n_senders : 2 * n_senders],
        sender_raw=sender_raw,
        sender_flags=sender_flags,
    )


def _segment_to_batch(segment: IterationSegment) -> RecordBatch:
    try:
        records = tuple(segment.records())
    except BlockError as exc:
        raise CodecError(str(exc)) from exc
    return RecordBatch(
        job_id=segment.job_id,
        iteration=segment.iteration,
        collective=segment.collective,
        records=records,
    )


def _decode_job_frame(frame: bytes) -> JobConfig:
    try:
        data = json.loads(frame[_HEADER.size :].decode(), parse_constant=_reject_constant)
    except CodecError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CodecError(f"malformed v2 job frame: {exc}") from exc
    return _job_from_dict(data)


# ----------------------------------------------------------------------
# v1 line decoding
# ----------------------------------------------------------------------
def _parse_line(line: str) -> tuple[str, list]:
    """Validate magic + version; return ``(kind, payload_list)``."""
    try:
        payload = json.loads(line, parse_constant=_reject_constant)
    except CodecError:
        raise
    except (ValueError, RecursionError) as exc:  # ValueError: a JSONDecodeError or an int too long
        raise CodecError(f"not a valid wire line: {exc}") from exc
    if not isinstance(payload, list) or len(payload) < 3:
        raise CodecError("wire line must be a JSON array [magic, version, kind, ...]")
    magic, version, kind = payload[0], payload[1], payload[2]
    if magic != FPREC_MAGIC:
        raise CodecError(f"bad magic {magic!r} (expected {FPREC_MAGIC!r})")
    if not isinstance(version, int):
        raise CodecError(f"version must be an integer, got {version!r}")
    if version != FPREC_VERSION:
        raise UnsupportedVersionError(
            f"JSON line version {version} not supported (JSON lines carry "
            f"version {FPREC_VERSION}; version {FPREC_VERSION_BINARY} payloads "
            "are binary frames)"
        )
    if kind not in ("b", "j"):
        raise CodecError(f"unknown line kind {kind!r}")
    return kind, payload


def _job_from_dict(data) -> JobConfig:
    """A job payload dict back into a :class:`JobConfig`, with unknown
    or missing fields mapped to clear typed errors naming the key."""
    if not isinstance(data, dict):
        raise CodecError("job payload must be a JSON object")
    data = dict(data)
    experiment_data = data.pop("experiment", None)
    if not isinstance(experiment_data, dict):
        raise CodecError("job config missing its 'experiment' object")
    unknown = sorted(set(experiment_data) - _EXPERIMENT_FIELDS)
    if unknown:
        raise CodecError(
            f"unknown experiment field(s) {', '.join(map(repr, unknown))} "
            "(payload from a newer writer?)"
        )
    unknown = sorted(set(data) - _JOB_FIELDS)
    if unknown:
        raise CodecError(
            f"unknown job field(s) {', '.join(map(repr, unknown))} "
            "(payload from a newer writer?)"
        )
    if "job_id" not in data:
        raise CodecError("job config missing required field 'job_id'")
    try:
        experiment = ExperimentConfig(**experiment_data)
        return JobConfig(experiment=experiment, **data)
    except CodecError:
        raise
    except (TypeError, ValueError, RuntimeError) as exc:
        raise CodecError(f"malformed job config: {exc}") from exc


def _batch_line(line: str) -> tuple[FlowTag, list]:
    """Validate a v1 batch line's envelope; return its tag and the raw
    per-leaf entries."""
    kind, payload = _parse_line(line)
    if kind != "b":
        raise CodecError(f"expected a batch line, got kind {kind!r}")
    try:
        _magic, _version, _kind, job_id, n_records, iteration, collective, entries = (
            payload
        )
    except ValueError as exc:
        raise CodecError(f"malformed batch line: {exc}") from exc
    tag = FlowTag(
        _int_key(job_id, "job_id"), _int_key(iteration, "iteration"), collective
    )
    if not isinstance(entries, list):
        raise CodecError("batch records must be a JSON array")
    if n_records != len(entries):
        raise CodecError(
            f"batch declares {n_records} records but carries {len(entries)}"
        )
    return tag, entries


def _scan_batch_line(line: str) -> IterationSegment | None:
    """A v1 batch line exactly as :func:`_segment_line` writes it, read
    straight into columns by C-level passes — or ``None`` for any other
    line, which the record route then reads or refuses.

    The head and the body's bracket skeleton (the body less digits and
    minus signs) must match the writer's grammar, and one
    ``np.fromstring`` reads every integer.  What numpy reads where JSON
    would not is refused: an empty slot, a minus sign not opening a
    token or not followed by a digit, a token wider than its value
    written canonically (``01``, ``-0``), and the int64 limits, to
    which numpy saturates out-of-range tokens.  So are unsorted keys.
    """
    head = _V1_BATCH_HEAD.match(line)
    body = line[head.end() :].encode() if head is not None and line.isascii() else b""
    skeleton = body.translate(None, b"-0123456789")
    if _V1_SKELETON.fullmatch(skeleton) is None or (
        b"-" in body and _MISPLACED_MINUS.search(body) is not None
    ):
        return None
    text = np.frombuffer(body, dtype=np.uint8)
    comma, close = text == ord(","), text == ord("]")
    if ((text[:-1] == ord("[")) & comma[1:] | comma[:-1] & (comma[1:] | close[1:])).any():
        return None  # "[,", ",," or ",]": an empty slot
    try:
        job_id, n_records, iteration = int(head[1]), int(head[2]), int(head[3])
        # numpy 2 raises on a short parse; numpy 1 warns and the count check refuses it.
        values = np.fromstring(body.translate(_BRACKETS_TO_SPACES), dtype=KEY_DTYPE, sep=" ")
    except ValueError:
        return None
    skeleton = np.frombuffer(skeleton, dtype=np.uint8)
    brackets = np.flatnonzero(skeleton != ord(","))
    gaps = np.diff(brackets)[skeleton[brackets[:-1]] == ord("[")]
    table = np.repeat(_TABLE_BY_GAP[gaps], _SLOTS_BY_GAP[gaps])
    entry, pair, triple = gaps == 4, gaps == 2, gaps == 3
    n_leaves, n_pairs = int(entry.sum()), int(pair.sum())
    if not (
        n_leaves == n_records
        and len(values) == len(table)
        and _I64_MIN < values.min()
        and values.max() < _I64_MAX
        and len(body) - len(skeleton) == len(values) + int((values < 0).sum())
        + int(np.searchsorted(_POW10, np.abs(values), side="right").sum())
    ):
        return None
    values = values[np.argsort(table, kind="stable")]
    ports = 3 * n_leaves + 2 * n_pairs
    leaves, start_ns, end_ns = values[: 3 * n_leaves].reshape(-1, 3).T.copy()
    port_keys, port_raw = values[3 * n_leaves : ports].reshape(-1, 2).T.copy()
    sender_spines, sender_srcs, sender_raw = values[ports:].reshape(-1, 3).T.copy()
    port_offsets = np.append(np.cumsum(pair, dtype=KEY_DTYPE)[entry], n_pairs)
    sender_offsets = np.append(np.cumsum(triple, dtype=KEY_DTYPE)[entry], len(sender_raw))
    if not (
        keys_ascend(port_offsets, port_keys)
        and keys_ascend(sender_offsets, sender_spines, sender_srcs)
    ):
        return None
    return IterationSegment(
        job_id, iteration, head[4],
        leaves, start_ns, end_ns,
        port_offsets, port_keys, port_raw, np.zeros(n_pairs, dtype=FLAG_DTYPE),
        sender_offsets, sender_spines, sender_srcs,
        sender_raw, np.zeros(len(sender_raw), dtype=FLAG_DTYPE),
    )


def decode_batch(data: str | bytes) -> RecordBatch:
    """Parse one batch unit (either version) back into an exact
    :class:`RecordBatch` — the export/debug view of a unit, and the
    reference the columnar decode is tested against."""
    if isinstance(data, (bytes, bytearray)):
        return _segment_to_batch(decode_batch_segment(data))
    tag, entries = _batch_line(data)
    return RecordBatch(
        job_id=tag.job_id,
        iteration=tag.iteration,
        collective=tag.collective,
        records=tuple(_decode_record(entry, tag) for entry in entries),
    )


def decode_batch_segment(data: str | bytes) -> IterationSegment:
    """Decode a batch unit straight into its columnar
    :class:`~repro.core.blocks.IterationSegment` — the only shape a
    shard worker hands a monitor.

    A v1 line is a text encoding of the same columns a v2 frame carries
    as bytes: the frame's come off the wire with a handful of buffer
    views, a line exactly as :func:`_segment_line` writes it is scanned
    to them by :func:`_scan_batch_line`, and neither builds a record, a
    dict or a Python int per value.  Any other line (float counters,
    whitespace, unsorted keys, a malformed line) takes the record route
    through :func:`_decode_record`, with its typed errors.
    """
    if isinstance(data, (bytes, bytearray)):
        frame = bytes(data)  # a bytearray is copied once: no view aliases it
        if _split_frame(frame) != _KIND_BATCH:
            raise CodecError("expected a batch frame, got a job frame")
        return _decode_segment_frame(frame)
    segment = _scan_batch_line(data)
    if segment is None:
        tag, entries = _batch_line(data)
        try:
            segment = IterationSegment.from_records(
                [_decode_record(entry, tag) for entry in entries]
            )
        except BlockError as exc:
            raise CodecError(str(exc)) from exc
    return segment


def decode_job(data: str | bytes) -> JobConfig:
    """Parse one job unit (either version) back into an exact
    :class:`JobConfig`."""
    if isinstance(data, (bytes, bytearray)):
        frame = bytes(data)
        if _split_frame(frame) != _KIND_JOB:
            raise CodecError("expected a job frame, got a batch frame")
        return _decode_job_frame(frame)
    kind, payload = _parse_line(data)
    if kind != "j":
        raise CodecError(f"expected a job line, got kind {kind!r}")
    if len(payload) != 4:
        raise CodecError("malformed job line")
    return _job_from_dict(payload[3])


def decode_line(data: str | bytes):
    """Decode any wire unit; returns ``("b", RecordBatch)`` or
    ``("j", JobConfig)``.  Accepts v1 JSON lines (``str`` or UTF-8
    ``bytes``) and v2 binary frames (``bytes``)."""
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data)
        if data[:1] == BINARY_MAGIC[:1]:
            if _split_frame(data) == _KIND_BATCH:
                return "b", _segment_to_batch(_decode_segment_frame(data))
            return "j", _decode_job_frame(data)
        try:
            data = data.decode()
        except UnicodeDecodeError as exc:
            raise CodecError(f"undecodable wire line: {exc}") from exc
    kind, _payload = _parse_line(data)
    if kind == "b":
        return kind, decode_batch(data)
    return kind, decode_job(data)


def peek_batch_tag(data: str | bytes) -> tuple[int, int, int]:
    """``(job_id, n_records, iteration)`` of a batch unit without a
    full parse.

    The routing fields sit at fixed positions in both versions: a v1
    line yields them from one match of the canonical head (which reads
    the magic, version and kind too, and never the records), a v2 frame
    after three fixed-offset reads — this is what keeps the ingest
    frontend's per-unit cost independent of batch size.  Anything the
    fast paths cannot vouch for — a wrong magic, a future version, a
    field JSON does not read as an integer (``+1``, ``01``, ``1_0``) —
    falls back to a full decode and its typed errors.
    """
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data)
        if (
            len(data) >= _HEADER.size + _BATCH_FIXED.size
            and data[:4] == BINARY_MAGIC
            and data[4] == FPREC_VERSION_BINARY
            and data[5] == _KIND_BATCH
            and len(data) == _HEADER.size + int.from_bytes(data[8:12], "little")
        ):
            job_id = int.from_bytes(data[12:20], "little")
            iteration = int.from_bytes(data[20:28], "little")
            n_records = int.from_bytes(data[28:32], "little")
            return job_id, n_records, iteration
    else:
        head = _V1_BATCH_HEAD.match(data)
        if head is not None:
            try:
                return int(head[1]), int(head[2]), int(head[3])
            except ValueError:  # more digits than int() converts
                pass
    batch = decode_batch(data)  # raises a typed error or handles edge forms
    return batch.job_id, batch.n_records, batch.iteration


def peek_batch(data: str | bytes) -> tuple[int, int]:
    """``(job_id, n_records)`` of a batch unit at routing cost (see
    :func:`peek_batch_tag`; the HA service also keys its in-flight
    ledger by the iteration, the plain service does not need it)."""
    return peek_batch_tag(data)[:2]


# ----------------------------------------------------------------------
# Incremental stream decoding
# ----------------------------------------------------------------------
#: Whitespace bytes allowed between units on a stream.
_STREAM_WHITESPACE = b"\n\r \t"
#: Default cap on bytes buffered while waiting for a unit to complete.
DEFAULT_MAX_BUFFER = 64 * 1024 * 1024


class StreamDecoder:
    """Incremental ``.fprec`` stream decoder: feed bytes, get units.

    The wire stream is self-delimiting — v1 JSON lines end at ``\\n``,
    v2 binary frames carry a length prefix — so a reader never needs to
    see a whole file (or a whole TCP segment) at once.  ``feed`` accepts
    arbitrary byte chunks, split anywhere (mid-header, mid-line, even
    mid-UTF-8-character), buffers the incomplete tail, and returns every
    unit that completed.  v1 and v2 units may interleave freely on one
    stream, exactly as in a ``.fprec`` file.

    Two output modes:

    - decoded (default): units are ``("b", RecordBatch)`` /
      ``("j", JobConfig)`` pairs, as :func:`iter_fprec` yields.
    - ``raw=True``: units are ``("b" | "j", encoded_unit)`` where the
      encoded unit is the exact wire form (``str`` line without its
      newline, or complete frame ``bytes``) — the zero-copy path the TCP
      frontend routes straight into ``submit_encoded`` without ever
      materializing records.

    ``max_buffer`` bounds memory per stream: a unit that fails to
    complete within that many buffered bytes (or a frame whose length
    prefix alone exceeds it) raises :class:`CodecError` instead of
    growing without bound — one misbehaving connection cannot take the
    ingest frontend down with it.

    Call :meth:`finish` at end of stream: it decodes a final unterminated
    JSON line if one is buffered and raises :class:`CodecError` on a
    truncated frame.
    """

    def __init__(
        self, raw: bool = False, max_buffer: int = DEFAULT_MAX_BUFFER
    ) -> None:
        if max_buffer < _HEADER.size + _BATCH_FIXED.size:
            raise CodecError(f"max_buffer {max_buffer} too small to hold a frame")
        self.raw = raw
        self.max_buffer = max_buffer
        self._buffer = bytearray()
        #: Units and bytes consumed over the decoder's lifetime.
        self.units = 0
        self.consumed = 0

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the current unit to complete."""
        return len(self._buffer)

    def _emit_line(self, line_bytes: bytes):
        try:
            line = line_bytes.decode()
        except UnicodeDecodeError as exc:
            raise CodecError(f"undecodable wire line: {exc}") from exc
        line = line.strip()
        if not line:
            return None
        if self.raw:
            # Routing-cost kind peek, falling back to full validation.
            prefix = _V1_KIND.match(line)
            if prefix is not None:
                return prefix[1], line
            kind, _payload = _parse_line(line)
            return kind, line
        return decode_line(line)

    def _emit_frame(self, frame: bytes):
        label = "b" if _split_frame(frame) == _KIND_BATCH else "j"
        if self.raw:
            return label, frame
        return decode_line(frame)

    def feed(self, data: bytes) -> list:
        """Consume one chunk; return the units it completed (often
        empty, sometimes several)."""
        self._buffer += data
        self.consumed += len(data)
        units = []
        buffer = self._buffer
        start = 0
        size = len(buffer)
        while start < size:
            first = buffer[start]
            if first in _STREAM_WHITESPACE:
                start += 1
                continue
            if first == BINARY_MAGIC[0]:
                if size - start < _HEADER.size:
                    break  # wait for the rest of the header
                length = int.from_bytes(
                    buffer[start + 8 : start + 12], "little"
                )
                if _HEADER.size + length > self.max_buffer:
                    raise CodecError(
                        f"binary frame declares {length} payload bytes, "
                        f"over the {self.max_buffer}-byte stream buffer cap"
                    )
                end = start + _HEADER.size + length
                if size < end:
                    break  # wait for the rest of the payload
                unit = self._emit_frame(bytes(buffer[start:end]))
                units.append(unit)
                self.units += 1
                start = end
                continue
            newline = buffer.find(b"\n", start)
            if newline < 0:
                break  # wait for the line terminator
            unit = self._emit_line(bytes(buffer[start:newline]))
            if unit is not None:
                units.append(unit)
                self.units += 1
            start = newline + 1
        del buffer[:start]
        if len(buffer) > self.max_buffer:
            raise CodecError(
                f"unit did not complete within the {self.max_buffer}-byte "
                "stream buffer cap"
            )
        return units

    def finish(self) -> list:
        """End of stream: flush a final unterminated line, or raise on a
        truncated frame."""
        remainder = bytes(self._buffer).strip(_STREAM_WHITESPACE)
        self._buffer.clear()
        if not remainder:
            return []
        if remainder[0] == BINARY_MAGIC[0]:
            raise CodecError("truncated binary frame at end of stream")
        unit = self._emit_line(remainder)
        if unit is None:
            return []
        self.units += 1
        return [unit]


# ----------------------------------------------------------------------
# Files (.fprec): record / replay
# ----------------------------------------------------------------------
def _stream_unit(encoded: str | bytes, text: bool) -> str | bytes:
    """One encoded unit as written to a stream: JSON lines get their
    newline delimiter, binary frames are self-delimiting."""
    if isinstance(encoded, str):
        line = encoded + "\n"
        return line if text else line.encode()
    return encoded


def write_fprec(
    target: str | pathlib.Path | IO,
    jobs: Iterable[JobConfig] = (),
    batches: Iterable[IterationSegment | RecordBatch] = (),
    version: int = FPREC_VERSION,
) -> int:
    """Write jobs then batches as a ``.fprec`` stream; returns the unit
    count.  ``version`` selects the wire format: 1 writes readable JSON
    lines (text file), 2 writes binary columnar frames (binary file).
    """
    _require_version(version)
    if isinstance(target, (str, pathlib.Path)):
        mode = "w" if version == FPREC_VERSION else "wb"
        with open(target, mode) as handle:
            return write_fprec(handle, jobs, batches, version=version)
    text = isinstance(target, io.TextIOBase)
    if text and version != FPREC_VERSION:
        raise CodecError(
            "binary v2 frames need a binary stream or a path, not a text stream"
        )
    count = 0
    for job in jobs:
        target.write(_stream_unit(encode_job(job, version=version), text))
        count += 1
    for batch in batches:
        target.write(_stream_unit(encode_batch(batch, version=version), text))
        count += 1
    return count


#: Read size for chunked .fprec file replay.
_REPLAY_CHUNK = 1 << 20


def _iter_fprec_binary(stream) -> Iterator[tuple[str, object]]:
    """Stream mixed v1 lines / v2 frames from a binary stream.

    Built on the same :class:`StreamDecoder` the TCP ingest frontend
    uses, so file replay and socket ingest share one framing
    implementation (and one set of truncation errors).
    """
    decoder = StreamDecoder()
    while True:
        chunk = stream.read(_REPLAY_CHUNK)
        if not chunk:
            break
        yield from decoder.feed(chunk)
    yield from decoder.finish()


def iter_fprec(source: str | pathlib.Path | IO) -> Iterator[tuple[str, object]]:
    """Stream a ``.fprec`` file as ``("j", JobConfig)`` / ``("b",
    RecordBatch)`` events (blank lines skipped).

    Files are read in binary mode and every unit's version is
    auto-detected, so v1 JSON lines and v2 binary frames mix freely in
    one stream.  A text stream can only ever carry v1 lines.
    """
    if isinstance(source, (str, pathlib.Path)):
        with open(source, "rb") as handle:
            yield from _iter_fprec_binary(handle)
        return
    if isinstance(source, io.TextIOBase):
        for line in source:
            line = line.strip()
            if line:
                yield decode_line(line)
        return
    yield from _iter_fprec_binary(source)


@dataclass
class FprecContent:
    """A fully-loaded ``.fprec`` file."""

    jobs: list[JobConfig] = field(default_factory=list)
    batches: list[RecordBatch] = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return sum(batch.n_records for batch in self.batches)

    def job_ids(self) -> list[int]:
        return [job.job_id for job in self.jobs]


def read_fprec(source: str | pathlib.Path | IO) -> FprecContent:
    """Load a ``.fprec`` file eagerly."""
    content = FprecContent()
    for kind, payload in iter_fprec(source):
        if kind == "j":
            content.jobs.append(payload)
        else:
            content.batches.append(payload)
    return content
