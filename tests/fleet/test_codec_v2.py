"""v2 binary wire format: round-trips, negotiation, peek, validation.

Also holds the regression tests for the v1 validation holes the v2 work
made urgent: the ``peek_batch`` fast path must check magic/version at
their fixed positions, ``_decode_record`` must validate timestamps, and
``decode_job`` must name unknown/missing fields instead of leaking a
bare ``TypeError``.
"""

from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentConfig
from repro.fleet import (
    BINARY_MAGIC,
    FPREC_VERSION,
    FPREC_VERSION_BINARY,
    CodecError,
    JobConfig,
    RecordBatch,
    UnsupportedVersionError,
    decode_batch,
    decode_batch_segment,
    decode_job,
    decode_line,
    encode_batch,
    encode_job,
    peek_batch,
    read_fprec,
    write_fprec,
)
from repro.simnet.counters import IterationRecord
from repro.simnet.packet import FlowTag

from .test_codec import job_config, make_batch, make_record


# ----------------------------------------------------------------------
# v2 round-trips
# ----------------------------------------------------------------------
def test_v2_batch_round_trip_exact():
    batch = make_batch()
    frame = encode_batch(batch, version=FPREC_VERSION_BINARY)
    assert isinstance(frame, bytes)
    assert frame.startswith(BINARY_MAGIC)
    decoded = decode_batch(frame)
    assert decoded == batch
    record = decoded.records[0]
    assert all(type(k) is int for k in record.port_bytes)
    assert all(type(k) is tuple for k in record.sender_bytes)


def test_v2_equals_v1_after_decode():
    """Both wire versions decode to the identical batch object."""
    batch = make_batch(n_leaves=4, job_id=9)
    via_v1 = decode_batch(encode_batch(batch, version=FPREC_VERSION))
    via_v2 = decode_batch(encode_batch(batch, version=FPREC_VERSION_BINARY))
    assert via_v1 == via_v2 == batch


def test_v2_job_round_trip():
    job = job_config(faulted=True, fault_link="down:S1->L2", base_seed=9, trial=3)
    frame = encode_job(job, version=FPREC_VERSION_BINARY)
    assert isinstance(frame, bytes)
    assert decode_job(frame) == job
    assert decode_line(frame) == ("j", job)


@settings(max_examples=25, deadline=None)
@given(
    job_id=st.integers(min_value=1, max_value=10**6),
    iteration=st.integers(min_value=0, max_value=10**6),
    n_leaves=st.integers(min_value=1, max_value=5),
    sizes=st.lists(st.integers(min_value=0, max_value=2**48), min_size=1, max_size=6),
    start_ns=st.integers(min_value=0, max_value=2**62),
)
def test_v2_round_trip_property(job_id, iteration, n_leaves, sizes, start_ns):
    tag = FlowTag(job_id=job_id, iteration=iteration)
    records = [
        IterationRecord(
            leaf=leaf,
            tag=tag,
            port_bytes={i: size for i, size in enumerate(sizes)},
            sender_bytes={(i, (i + 1) % 8): size for i, size in enumerate(sizes)},
            start_ns=start_ns,
            end_ns=start_ns + 1,
        )
        for leaf in range(n_leaves)
    ]
    batch = RecordBatch.from_records(records)
    frame = encode_batch(batch, version=FPREC_VERSION_BINARY)
    assert decode_batch(frame) == batch
    assert peek_batch(frame) == (job_id, n_leaves)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=0, max_value=1e15),
        min_size=1,
        max_size=4,
    )
)
def test_v2_float_sizes_round_trip_bit_exact(sizes):
    """v2 carries floats as raw IEEE-754 bits; the round-trip is exact."""
    batch = make_batch(port_bytes={i: s for i, s in enumerate(sizes)}, sender_bytes={})
    decoded = decode_batch(encode_batch(batch, version=FPREC_VERSION_BINARY))
    for original, roundtripped in zip(sizes, decoded.records[0].port_bytes.values()):
        assert roundtripped == original
        assert math.copysign(1, roundtripped) == math.copysign(1, original)


def test_v2_segment_decode_matches_records():
    batch = make_batch(n_leaves=3)
    segment = decode_batch_segment(encode_batch(batch, version=FPREC_VERSION_BINARY))
    assert segment.job_id == batch.job_id
    assert segment.n_records == 3
    assert segment.records() == list(batch.records)
    # the v1 line columnarizes to the same thing
    assert decode_batch_segment(encode_batch(batch)).records() == list(batch.records)


def test_v2_columns_are_read_only_and_never_alias_a_mutable_buffer():
    """Frame columns are read in place, as read-only views; a
    ``bytearray`` is copied once first, so writing to it afterwards
    cannot change a decoded segment."""
    batch = make_batch(n_leaves=3)
    frame = encode_batch(batch, version=FPREC_VERSION_BINARY)
    segment = decode_batch_segment(frame)
    assert not any(
        getattr(segment, name).flags.writeable
        for name in ("leaves", "start_ns", "end_ns", "port_keys", "port_raw", "port_flags")
    )
    mutable = bytearray(frame)
    from_mutable = decode_batch_segment(mutable)
    mutable[:] = bytes(len(mutable))
    assert from_mutable.records() == list(batch.records)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_v2_non_finite_rejected_on_encode(bad):
    batch = make_batch(port_bytes={0: bad})
    with pytest.raises(CodecError, match="non-finite"):
        encode_batch(batch, version=FPREC_VERSION_BINARY)


def test_unknown_write_version_rejected():
    with pytest.raises(UnsupportedVersionError, match="cannot encode"):
        encode_batch(make_batch(), version=3)
    with pytest.raises(UnsupportedVersionError):
        encode_job(job_config(), version=0)
    with pytest.raises(UnsupportedVersionError):
        write_fprec(io.StringIO(), [job_config()], [], version=5)


def test_future_binary_version_is_typed_error():
    frame = bytearray(encode_batch(make_batch(), version=FPREC_VERSION_BINARY))
    frame[4] = FPREC_VERSION_BINARY + 1
    with pytest.raises(UnsupportedVersionError, match="version"):
        decode_batch(bytes(frame))


# ----------------------------------------------------------------------
# peek_batch fast-path regressions (magic/version at fixed positions)
# ----------------------------------------------------------------------
def test_peek_rejects_wrong_magic_line():
    """A garbage-magic line with a batch-shaped prefix must not be
    routed; the old fast path returned (job_id, n_records) for it."""
    line = encode_batch(make_batch(job_id=17, n_leaves=4))
    doctored = line.replace('["fprec"', '["fprec2"', 1)
    with pytest.raises(CodecError, match="magic"):
        peek_batch(doctored)


def test_peek_rejects_future_version_line():
    payload = json.loads(encode_batch(make_batch(job_id=17)))
    payload[1] = FPREC_VERSION_BINARY + 7
    with pytest.raises(UnsupportedVersionError):
        peek_batch(json.dumps(payload, separators=(",", ":")))


def test_peek_rejects_v2_frame_with_wrong_magic():
    frame = bytearray(encode_batch(make_batch(), version=FPREC_VERSION_BINARY))
    frame[1] = ord("X")
    with pytest.raises(CodecError, match="magic"):
        peek_batch(bytes(frame))


def test_peek_rejects_future_version_frame():
    frame = bytearray(encode_batch(make_batch(), version=FPREC_VERSION_BINARY))
    frame[4] = 9
    with pytest.raises(UnsupportedVersionError):
        peek_batch(bytes(frame))


def test_peek_v2_uses_fixed_offsets():
    batch = make_batch(n_leaves=4, job_id=2**40 + 5)
    frame = encode_batch(batch, version=FPREC_VERSION_BINARY)
    assert peek_batch(frame) == (2**40 + 5, 4)


def test_peek_on_v2_job_frame_raises():
    with pytest.raises(CodecError):
        peek_batch(encode_job(job_config(), version=FPREC_VERSION_BINARY))


# ----------------------------------------------------------------------
# timestamp validation regressions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field_index, name", [(1, "start_ns"), (2, "end_ns")])
@pytest.mark.parametrize("bad", ['"0"', "1.5", "null"])
def test_stringly_timestamps_rejected_on_decode(field_index, name, bad):
    """start_ns/end_ns go through _int_key like every other field."""
    payload = json.loads(encode_batch(make_batch(n_leaves=1)))
    entry = payload[7][0]
    entry[field_index] = json.loads(bad)
    with pytest.raises(CodecError, match=name):
        decode_batch(json.dumps(payload, separators=(",", ":")))


def test_timestamps_round_trip_v1_and_v2():
    record = make_record()
    assert record.start_ns == 100 and record.end_ns == 5_000
    batch = RecordBatch.from_records([record])
    for version in (FPREC_VERSION, FPREC_VERSION_BINARY):
        decoded = decode_batch(encode_batch(batch, version=version))
        assert decoded.records[0].start_ns == 100
        assert decoded.records[0].end_ns == 5_000


def test_non_int_timestamp_rejected_on_encode():
    record = IterationRecord(
        leaf=0,
        tag=FlowTag(job_id=1, iteration=0),
        port_bytes={0: 10},
        sender_bytes={},
        start_ns=0.5,  # float timestamp: must not encode
        end_ns=1,
    )
    with pytest.raises(CodecError, match="start_ns"):
        encode_batch(RecordBatch.from_records([record]))


# ----------------------------------------------------------------------
# decode_job field validation regressions
# ----------------------------------------------------------------------
def _job_dict(**overrides):
    data = json.loads(encode_job(job_config()))[3]
    data.update(overrides)
    return data


def _job_line(data):
    return json.dumps(["fprec", 1, "j", data], separators=(",", ":"))


def test_unknown_job_field_named_in_error():
    line = _job_line(_job_dict(priority=3, owner="infra"))
    with pytest.raises(CodecError, match="'owner', 'priority'"):
        decode_job(line)
    with pytest.raises(CodecError, match="newer writer"):
        decode_job(line)


def test_unknown_experiment_field_named_in_error():
    data = _job_dict()
    data["experiment"]["oversubscription"] = 2
    with pytest.raises(CodecError, match="'oversubscription'"):
        decode_job(_job_line(data))


def test_unknown_job_field_not_a_bare_typeerror():
    line = _job_line(_job_dict(shiny_new_field=1))
    try:
        decode_job(line)
    except TypeError:  # pragma: no cover - the regression this guards
        pytest.fail("unknown job field must not surface as TypeError")
    except CodecError as exc:
        assert "shiny_new_field" in str(exc)


def test_missing_job_id_named_in_error():
    data = _job_dict()
    del data["job_id"]
    with pytest.raises(CodecError, match="job_id"):
        decode_job(_job_line(data))


def test_missing_experiment_named_in_error():
    data = _job_dict()
    del data["experiment"]
    with pytest.raises(CodecError, match="experiment"):
        decode_job(_job_line(data))


def test_job_payload_must_be_object():
    with pytest.raises(CodecError, match="JSON object"):
        decode_job('["fprec",1,"j",[1,2,3]]')


def test_v2_job_field_validation_applies():
    """The v2 job frame carries the same JSON document, so the same
    field validation fires."""
    frame = bytearray(encode_job(job_config(), version=FPREC_VERSION_BINARY))
    # splice an unknown key into the JSON payload and fix the length
    body = bytes(frame[12:]).replace(b'{"job_id"', b'{"bogus":1,"job_id"')
    import struct

    header = struct.pack("<4sBBHI", BINARY_MAGIC, FPREC_VERSION_BINARY, ord("j"), 0, len(body))
    with pytest.raises(CodecError, match="bogus"):
        decode_job(header + body)


# ----------------------------------------------------------------------
# mixed-version .fprec files
# ----------------------------------------------------------------------
def test_fprec_v2_file_round_trip(tmp_path):
    jobs = [job_config(job_id=1), job_config(job_id=2, faulted=False)]
    batches = [make_batch(job_id=1, iteration=i) for i in range(3)]
    path = tmp_path / "stream.fprec"
    n_units = write_fprec(path, jobs, batches, version=FPREC_VERSION_BINARY)
    assert n_units == 5
    content = read_fprec(path)
    assert content.jobs == jobs
    assert content.batches == batches


def test_fprec_mixed_version_file(tmp_path):
    """v1 lines and v2 frames interleave freely in one stream."""
    job = job_config(job_id=1)
    batches = [make_batch(job_id=1, iteration=i) for i in range(4)]
    path = tmp_path / "mixed.fprec"
    with open(path, "wb") as handle:
        write_fprec(handle, [job], batches[:1], version=FPREC_VERSION_BINARY)
        write_fprec(handle, [], batches[1:2], version=FPREC_VERSION)
        write_fprec(handle, [], batches[2:3], version=FPREC_VERSION_BINARY)
        write_fprec(handle, [], batches[3:], version=FPREC_VERSION)
    content = read_fprec(path)
    assert content.jobs == [job]
    assert content.batches == batches


def test_v2_to_text_stream_rejected():
    with pytest.raises(CodecError, match="binary"):
        write_fprec(io.StringIO(), [job_config()], [], version=FPREC_VERSION_BINARY)


def test_fprec_binary_stream_io():
    buffer = io.BytesIO()
    write_fprec(buffer, [job_config()], [make_batch(job_id=4)], version=FPREC_VERSION_BINARY)
    buffer.seek(0)
    content = read_fprec(buffer)
    assert content.job_ids() == [4]
    assert len(content.batches) == 1
