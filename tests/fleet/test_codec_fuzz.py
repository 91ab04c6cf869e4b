"""Adversarial decode suite shared by both wire versions.

The contract under attack: *every* malformed input — truncated frames,
wrong length prefixes, trailing garbage, flipped bytes, mixed-version
streams — fails with a typed :class:`CodecError` (or its subclass
:class:`UnsupportedVersionError`), never with ``struct.error``,
``IndexError``, ``KeyError``, ``UnicodeDecodeError``, or any other
internal exception a fleet worker's error handling would not catch.
"""

from __future__ import annotations

import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FPREC_VERSION_BINARY,
    CodecError,
    RecordBatch,
    decode_batch,
    decode_batch_segment,
    decode_job,
    decode_line,
    encode_batch,
    encode_job,
    peek_batch,
    read_fprec,
)
from repro.simnet.counters import IterationRecord
from repro.simnet.packet import FlowTag

from .test_codec import assert_decoders_agree, job_config, make_batch

DECODERS = (decode_line, decode_batch, decode_job, peek_batch, decode_batch_segment)


def assert_typed_failure_or_value(unit):
    """Decoding must either succeed or raise CodecError — nothing else."""
    for decode in DECODERS:
        try:
            decode(unit)
        except CodecError:
            pass  # typed failure: exactly what workers catch


def v2_batch_frame() -> bytes:
    return encode_batch(make_batch(n_leaves=3), version=FPREC_VERSION_BINARY)


def v2_job_frame() -> bytes:
    return encode_job(job_config(), version=FPREC_VERSION_BINARY)


# ----------------------------------------------------------------------
# Truncation: every prefix of a valid unit must fail typed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_unit", [v2_batch_frame, v2_job_frame])
def test_every_truncation_fails_typed(make_unit):
    unit = make_unit()
    for cut in range(len(unit)):
        truncated = unit[:cut]
        for decode in DECODERS:
            with pytest.raises(CodecError):
                decode(truncated)


def test_every_v1_truncation_fails_typed():
    line = encode_batch(make_batch(n_leaves=2))
    for cut in range(len(line)):
        assert_typed_failure_or_value(line[:cut])  # some prefixes parse as JSON scalars
        assert_decoders_agree(line[:cut])


# ----------------------------------------------------------------------
# Length prefix lies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delta", [-5, -1, 1, 7, 2**20])
def test_wrong_length_prefix_fails_typed(delta):
    frame = bytearray(v2_batch_frame())
    true_length = int.from_bytes(frame[8:12], "little")
    lied = max(0, true_length + delta)
    frame[8:12] = lied.to_bytes(4, "little")
    with pytest.raises(CodecError, match="length|truncated"):
        decode_batch(bytes(frame))


def test_trailing_garbage_fails_typed():
    frame = v2_batch_frame()
    for tail in (b"\x00", b"junk", v2_batch_frame()):
        with pytest.raises(CodecError):
            decode_batch(frame + tail)


def test_internal_count_lies_fail_typed():
    """A frame whose declared n_records disagrees with its columns."""
    frame = bytearray(v2_batch_frame())
    for n in (0, 1, 2**31):
        doctored = bytearray(frame)
        doctored[28:32] = n.to_bytes(4, "little")  # n_records field
        with pytest.raises(CodecError):
            decode_batch(bytes(doctored))


def test_v1_count_lies_and_trailing_garbage_fail_typed():
    """The v2 attacks above, on a JSON line, against the columnar decode."""
    line = encode_batch(make_batch(n_leaves=3))
    *head, n_records, tail = line.split(",", 5)
    assert n_records == "3"
    for lie in ("0", "1", "2", "4", "2147483648", "-3", "3.5", '"3"', "null"):
        with pytest.raises(CodecError, match="declares"):
            decode_batch_segment(",".join([*head, lie, tail]))
    for garbage in ("x", "]", ",0", "7", " " + line, "\x00"):
        with pytest.raises(CodecError):
            decode_batch_segment(line + garbage)
        assert_decoders_agree(line + garbage)


# ----------------------------------------------------------------------
# Byte flips (deterministic fuzz across every position)
# ----------------------------------------------------------------------
#: All-int lines with multi-digit, negative and int64-edge values: 0,
#: -1, 10**18 - 1, 10**18, the int64 limits and an epoch-ns timestamp;
#: the second holds each limit's neighbour, one corruption away from
#: the limit numpy saturates to and from a token past it.
EDGE_LINES = [
    encode_batch(
        RecordBatch.from_records(
            [
                IterationRecord(
                    leaf=leaf,
                    tag=FlowTag(job_id=3, iteration=2),
                    port_bytes={0: 0, 1: -1, 2: 10**18 - 1},
                    sender_bytes={(-1, 2): 10**18, (0, 1): high, (0, 2): low},
                    start_ns=1_760_000_000_123_456_789,
                    end_ns=1_760_000_000_987_654_321,
                )
            ]
        )
    )
    for leaf, high, low in ((0, 2**63 - 1, -(2**63)), (1, 2**63 - 2, 1 - 2**63))
]


def test_single_character_corruption_of_a_v1_line_never_escapes_typed_errors():
    """Every position of a line overwritten with every character JSON
    gives a meaning to: the columnar decode raises CodecError or decodes,
    and in both cases sides with the record decode."""
    all_int = make_batch(n_leaves=2)  # the column route, until a corruption says otherwise
    with_float = make_batch(n_leaves=2, sender_bytes={(0, 1): 400, (1, 2): 2.5})
    for line in (encode_batch(all_int), encode_batch(with_float), *EDGE_LINES):
        for position in range(len(line)):
            for char in '[]{},:"-.0129eEtfn \x00\xff\ud800':
                if char != line[position]:
                    assert_decoders_agree(line[:position] + char + line[position + 1 :])


def line_with(token: str, slot: str) -> str:
    """A one-leaf all-int line whose value ``slot`` (its distinct
    marker value, with the brackets or commas around it) holds
    ``token`` instead."""
    line = encode_batch(
        RecordBatch.from_records(
            [
                IterationRecord(
                    leaf=7,
                    tag=FlowTag(job_id=3, iteration=2),
                    port_bytes={3: 13},
                    sender_bytes={(4, 5): 14},
                    start_ns=11,
                    end_ns=12,
                )
            ]
        )
    )
    assert line.count(slot) == 1
    return line.replace(slot, slot.replace(slot.strip("[],"), token))


#: Tokens numpy's integer parser reads differently from JSON, and what
#: the v1 decoders make of each in any slot: out-of-range tokens come
#: back from numpy saturated (the negative one to +2**63 - 1), ``- 1``
#: reads as -1, ``-0``/``01`` as 0/1 and a bare ``-`` as 0 at the end
#: of the text.
NUMPY_QUIRKS = {
    "9223372036854775808": CodecError,
    "-9223372036854775809": CodecError,
    "99999999999999999999": CodecError,
    "- 1": CodecError,
    "-0": 0,
    "01": CodecError,
    "--1": CodecError,
    "-": CodecError,
    "1-2": CodecError,
}


@pytest.mark.parametrize("slot", ["[7,", ",11,", ",12,", "[3,", ",13]", "[4,", ",5,", ",14]"])
@pytest.mark.parametrize("token", list(NUMPY_QUIRKS))
def test_numpy_integer_quirks_decode_as_json_reads_them(token, slot):
    line = line_with(token, slot)
    assert_decoders_agree(line)
    if NUMPY_QUIRKS[token] is CodecError:
        with pytest.raises(CodecError):
            decode_batch_segment(line)
    else:
        assert decode_batch(line) == decode_batch(line_with(str(NUMPY_QUIRKS[token]), slot))


def test_a_token_outside_its_slot_is_refused():
    """The bracket skeleton is the writer's and every token canonical —
    and the line is still not JSON: a token sits where no value goes,
    alone or filling in for an empty slot's."""
    line = encode_batch(make_batch(n_leaves=1))
    for moved in (
        line.replace("5000,[[", "5000,7[["),
        line.replace("[0,100,5000,[", "[0,,5000,100["),
        line.replace("[[0,1000],", "[[0,]1000,"),
        line.replace("[[0,1,400]", "[[0,1,]400"),
    ):
        assert moved != line
        with pytest.raises(CodecError):
            decode_batch_segment(moved)
        assert_decoders_agree(moved)


@pytest.mark.parametrize("short_parse", ["warns", "raises"])
def test_a_short_integer_parse_falls_back_to_the_record_route(monkeypatch, short_parse):
    """numpy 1 warns and returns what it read when a text parse stops
    short, numpy 2 raises: either way the line takes the record route."""
    line = encode_batch(make_batch(n_leaves=2))
    fromstring = np.fromstring

    def stops_short(text, **kwargs):
        if short_parse == "raises":
            raise ValueError("string or file could not be read to its end")
        message = "string or file could not be read to its end"
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        return fromstring(text, **kwargs)[:-1]

    monkeypatch.setattr(np, "fromstring", stops_short)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        segment = decode_batch_segment(line)
    assert segment._records is not None  # built by the record route
    assert segment.records() == list(decode_batch(line).records)


def test_single_byte_flips_never_escape_typed_errors():
    frame = v2_batch_frame()
    for position in range(len(frame)):
        doctored = bytearray(frame)
        doctored[position] ^= 0xFF
        unit = bytes(doctored)
        for decode in (decode_line, decode_batch, decode_batch_segment, peek_batch):
            try:
                decode(unit)
            except CodecError:
                pass  # typed; fine
            # a flip in a value byte may decode to a different valid
            # batch — that is data corruption, not a codec crash


@settings(max_examples=60, deadline=None)
@given(data=st.binary(min_size=0, max_size=80))
def test_random_bytes_fail_typed(data):
    for decode in DECODERS:
        try:
            decode(data)
        except CodecError:
            pass


@settings(max_examples=60, deadline=None)
@given(text=st.text(max_size=80))
def test_random_text_fails_typed(text):
    for decode in (decode_line, decode_batch, decode_job, peek_batch):
        try:
            decode(text)
        except CodecError:
            pass


# ----------------------------------------------------------------------
# Streams: corruption inside .fprec files
# ----------------------------------------------------------------------
def test_truncated_stream_fails_typed(tmp_path):
    path = tmp_path / "cut.fprec"
    frame = v2_batch_frame()
    path.write_bytes(v2_job_frame() + frame[: len(frame) // 2])
    with pytest.raises(CodecError, match="truncated"):
        read_fprec(path)


def test_garbage_between_units_fails_typed(tmp_path):
    path = tmp_path / "junk.fprec"
    path.write_bytes(v2_job_frame() + b"\xfe\xfd garbage \xff\n" + v2_batch_frame())
    with pytest.raises(CodecError):
        read_fprec(path)


def test_mixed_version_stream_with_future_unit_fails_typed(tmp_path):
    """A v3 frame inside an otherwise-valid mixed stream is a typed
    UnsupportedVersionError, not a crash."""
    frame = bytearray(v2_batch_frame())
    frame[4] = FPREC_VERSION_BINARY + 1
    path = tmp_path / "future.fprec"
    with open(path, "wb") as handle:
        handle.write(v2_job_frame())
        handle.write(encode_batch(make_batch()).encode() + b"\n")
        handle.write(bytes(frame))
    from repro.fleet import UnsupportedVersionError

    with pytest.raises(UnsupportedVersionError):
        read_fprec(path)


def test_undecodable_text_line_fails_typed():
    stream = io.BytesIO(b"\x80\x81\x82 not utf8\n")
    with pytest.raises(CodecError, match="undecodable"):
        read_fprec(stream)
