"""Wire-format tests: exact round-trips, typed failures, routing peek."""

from __future__ import annotations

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentConfig
from repro.core.blocks import SEGMENT_COLUMNS, BlockError, IterationSegment
from repro.fleet import (
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
    peek_batch_tag,
    read_fprec,
    write_fprec,
)
from repro.fleet.codec import FPREC_VERSION
from repro.simnet.counters import IterationRecord
from repro.simnet.packet import FlowTag


def make_record(leaf=0, job_id=3, iteration=2, port_bytes=None, sender_bytes=None):
    return IterationRecord(
        leaf=leaf,
        tag=FlowTag(job_id=job_id, iteration=iteration),
        port_bytes=port_bytes if port_bytes is not None else {0: 1000, 1: 2000},
        sender_bytes=sender_bytes
        if sender_bytes is not None
        else {(0, 1): 400, (0, 2): 600, (1, 2): 2000},
        start_ns=100,
        end_ns=5_000,
    )


def make_batch(n_leaves=3, **kwargs):
    return RecordBatch.from_records(
        [make_record(leaf=leaf, **kwargs) for leaf in range(n_leaves)]
    )


def assert_same_segment(got: IterationSegment, want: IterationSegment):
    """Column for column: dtype, shape and bytes."""
    assert got.tag == want.tag
    for name in SEGMENT_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def value_types(records):
    return [
        {key: type(value) for key, value in (r.port_bytes | r.sender_bytes).items()}
        for r in records
    ]


def assert_decoders_agree(line: str):
    """The columnar decode of a v1 line and the record decode accept the
    same lines and mean the same batch by them."""
    try:
        want = decode_batch(line)
    except CodecError:
        with pytest.raises(CodecError):
            decode_batch_segment(line)
        return
    try:
        reference = IterationSegment.from_records(list(want.records))
    except RuntimeError:  # empty batch, a field outside the 64-bit range
        with pytest.raises(CodecError):
            decode_batch_segment(line)
        return
    got = decode_batch_segment(line)
    assert_same_segment(got, reference)
    got._records = None  # read the columns, not a record-route cache
    assert got.records() == list(want.records)
    assert value_types(got.records()) == value_types(want.records)


# ----------------------------------------------------------------------
# Batch round-trips
# ----------------------------------------------------------------------
def test_batch_round_trip_exact():
    batch = make_batch()
    decoded = decode_batch(encode_batch(batch))
    assert decoded == batch
    # dict keys keep their types (ints and int-pairs, not strings)
    record = decoded.records[0]
    assert all(type(k) is int for k in record.port_bytes)
    assert all(type(k) is tuple for k in record.sender_bytes)


def test_batch_preserves_record_order():
    records = [make_record(leaf=leaf) for leaf in (2, 0, 1)]
    batch = RecordBatch.from_records(records)
    decoded = decode_batch(encode_batch(batch))
    assert [r.leaf for r in decoded.records] == [2, 0, 1]


def test_empty_batch_rejected():
    with pytest.raises(CodecError, match="empty"):
        RecordBatch.from_records([])


def test_mixed_tags_rejected():
    with pytest.raises(CodecError, match="mixed tags"):
        RecordBatch.from_records(
            [make_record(leaf=0, iteration=1), make_record(leaf=1, iteration=2)]
        )


@settings(max_examples=25, deadline=None)
@given(
    job_id=st.integers(min_value=1, max_value=10**6),
    iteration=st.integers(min_value=0, max_value=10**6),
    n_leaves=st.integers(min_value=1, max_value=5),
    sizes=st.lists(st.integers(min_value=0, max_value=2**48), min_size=1, max_size=6),
    start_ns=st.integers(min_value=0, max_value=2**62),
)
def test_batch_round_trip_property(job_id, iteration, n_leaves, sizes, start_ns):
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
    line = encode_batch(batch)
    assert decode_batch(line) == batch
    assert peek_batch(line) == (job_id, n_leaves)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=0, max_value=1e15),
        min_size=1,
        max_size=4,
    )
)
def test_float_sizes_round_trip_exact(sizes):
    """Finite float byte counts (fastsim emits float64) survive bit-exactly."""
    batch = make_batch(port_bytes={i: s for i, s in enumerate(sizes)}, sender_bytes={})
    decoded = decode_batch(encode_batch(batch))
    for original, roundtripped in zip(sizes, decoded.records[0].port_bytes.values()):
        assert roundtripped == original and math.copysign(1, roundtripped) == math.copysign(1, original)


# ----------------------------------------------------------------------
# Non-finite rejection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_port_bytes_rejected_on_encode(bad):
    batch = make_batch(port_bytes={0: bad})
    with pytest.raises(CodecError, match="non-finite"):
        encode_batch(batch)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_sender_bytes_rejected_on_encode(bad):
    batch = make_batch(sender_bytes={(0, 1): bad})
    with pytest.raises(CodecError, match="non-finite"):
        encode_batch(batch)


def test_non_finite_json_literal_rejected_on_decode():
    line = encode_batch(make_batch(port_bytes={0: 125.0}))
    doctored = line.replace("125.0", "NaN")
    assert "NaN" in doctored
    with pytest.raises(CodecError, match="non-finite"):
        decode_batch(doctored)


# ----------------------------------------------------------------------
# v1 lines straight into columns
# ----------------------------------------------------------------------
def doctored_line(batch, edit) -> str:
    payload = json.loads(encode_batch(batch))
    edit(payload[7])
    return json.dumps(payload, separators=(",", ":"))


def test_v1_segment_decode_equals_the_record_route():
    batch = RecordBatch.from_records(
        [
            make_record(leaf=0, port_bytes={0: 2**63 - 1, 1: -(2**63)}),
            make_record(leaf=1, port_bytes={0: 10.5, 2: 7}, sender_bytes={}),
            make_record(leaf=2, port_bytes={}, sender_bytes={(1, 1): 0.25}),
        ]
    )
    for candidate in (make_batch(), batch):
        line = encode_batch(candidate)
        assert_decoders_agree(line)
        assert decode_batch_segment(line).records() == list(candidate.records)
    # an all-int line goes to columns without a record ever being built
    assert decode_batch_segment(encode_batch(make_batch()))._records is None


def test_v1_unsorted_keys_decode_as_the_record_route_sorts_them():
    def shuffle(entries):
        entries[0][3].reverse()
        entries[1][4].reverse()

    line = doctored_line(make_batch(), shuffle)
    assert line != encode_batch(make_batch())
    assert_decoders_agree(line)
    assert_same_segment(
        decode_batch_segment(line), decode_batch_segment(encode_batch(make_batch()))
    )


#: Records whose port or sender table names a key twice, or out of order.
REPEATED_PORT = {"port_keys": [1, 1], "port_raw": [100, 200]}
REPEATED_SENDER = {"sender_spines": [0, 0], "sender_srcs": [1, 1], "sender_raw": [5, 6]}
UNSORTED_PORTS = {"port_keys": [2, 1], "port_raw": [100, 200]}


def doctored_segment(**columns) -> IterationSegment:
    """A one-record segment with the given columns replaced, as a v2
    writer that does not sort or deduplicate would frame it."""
    segment = IterationSegment.from_records([make_record(port_bytes={0: 1}, sender_bytes={})])
    for name, values in columns.items():
        setattr(segment, name, np.array(values, dtype=np.int64))
    n_ports, n_senders = len(segment.port_keys), len(segment.sender_spines)
    segment.port_offsets = np.array([0, n_ports])
    segment.port_flags = np.zeros(n_ports, dtype=np.uint8)
    segment.sender_offsets = np.array([0, n_senders])
    segment.sender_flags = np.zeros(n_senders, dtype=np.uint8)
    segment._records = None
    return segment


@pytest.mark.parametrize("column", [3, 4], ids=["port", "sender"])
def test_v1_repeated_keys_rejected_by_both_decoders(column):
    """A dict keeps the last of repeated keys, so ``[[1,100],[1,200]]``
    used to decode to ``{1: 200}``: a hundred bytes gone without a
    word.  Both decoders refuse the line instead."""

    def repeat(entries):
        table = entries[1][column]
        table.insert(1, list(table[0]))

    line = doctored_line(make_batch(), repeat)
    for decode in (decode_batch, decode_batch_segment):
        with pytest.raises(CodecError, match="repeated key"):
            decode(line)


@pytest.mark.parametrize(
    "columns",
    [REPEATED_PORT, REPEATED_SENDER, UNSORTED_PORTS],
    ids=["repeated-port", "repeated-sender", "unsorted-ports"],
)
def test_v2_keys_that_do_not_ascend_are_refused_where_records_are_built(columns):
    """A v2 frame's columns carry what the frame says (the dense path
    reads them as they are), but no record is built from keys that
    repeat or descend: ``decode_batch`` raises ``CodecError`` and a
    decoded segment's ``records()`` raises ``BlockError``."""
    frame = encode_batch(doctored_segment(**columns), version=2)
    segment = decode_batch_segment(frame)
    for name, values in columns.items():
        assert getattr(segment, name).tolist() == values
    with pytest.raises(BlockError, match="ascend"):
        segment.records()
    with pytest.raises(BlockError, match="ascend"):
        segment.record(0)
    for decode in (decode_batch, decode_line):
        with pytest.raises(CodecError, match="ascend"):
            decode(frame)


BAD_COUNTERS = ["null", '"abc"', "true", "[1]", "{}", "1e999"]


@pytest.mark.parametrize("decode", [decode_batch, decode_batch_segment])
@pytest.mark.parametrize("column", [3, 4])
@pytest.mark.parametrize("bad", BAD_COUNTERS)
def test_non_numeric_counter_rejected_on_decode(decode, column, bad):
    """A counter is exactly int or finite float: anything else used to
    reach the detector (``null``: uncaught TypeError; ``"abc"``: the
    job's whole flush dropped; ``true``: scored as 1)."""
    marker = 987654321
    line = doctored_line(
        make_batch(), lambda entries: entries[1][column][0].__setitem__(-1, marker)
    ).replace(str(marker), bad)
    with pytest.raises(CodecError, match="number|non-finite"):
        decode(line)


@pytest.mark.parametrize(
    "edit",
    [
        lambda e: e[0].append(0),  # entry arity 6
        lambda e: e[0].pop(),  # entry arity 4
        lambda e: e[1][3][0].append(1),  # port pair arity 3
        lambda e: e[1][4][0].pop(),  # sender triple arity 2
        lambda e: e[2][3].__setitem__(0, "ab"),  # a string posing as a pair
        lambda e: e[2][3].__setitem__(0, {"a": 1, "b": 2}),  # an object posing as one
        lambda e: e[0].__setitem__(0, True),  # bool leaf
        lambda e: e[0][3][0].__setitem__(0, True),  # bool port key
        lambda e: e[0][4][0].__setitem__(1, 1.0),  # float sender source
        lambda e: e[0].__setitem__(0, 2**63),  # leaf outside the 64-bit range
        lambda e: e[0][3][0].__setitem__(1, -(2**63) - 1),  # counter outside it
        lambda e: e.clear(),  # n_records lie
    ],
)
def test_malformed_v1_entries_fail_typed_in_the_columnar_decode(edit):
    line = doctored_line(make_batch(), edit)
    with pytest.raises(CodecError):
        decode_batch_segment(line)
    assert_decoders_agree(line)


def test_empty_v1_batch_is_no_segment():
    with pytest.raises(CodecError, match="empty"):
        decode_batch_segment('["fprec",1,"b",3,0,2,"allreduce",[]]')


# ----------------------------------------------------------------------
# Both writers accept the same batches, and only what decodes back
# ----------------------------------------------------------------------
def batch_with(job_id=3, iteration=2, **fields) -> RecordBatch:
    """A one-record batch with some fields replaced as given."""
    return RecordBatch.from_records(
        [replace(make_record(job_id=job_id, iteration=iteration), **fields)]
    )


REFUSED = {
    "bool counter": dict(port_bytes={0: True}),
    "counter 2**63": dict(port_bytes={0: 2**63}),
    "counter below int64": dict(sender_bytes={(0, 1): -(2**63) - 1}),
    "string counter": dict(port_bytes={0: "5"}),
    "nan counter": dict(sender_bytes={(0, 1): math.nan}),
    "float port key": dict(port_bytes={1.0: 5}),
    "bool port key": dict(port_bytes={True: 5}),
    "float sender key": dict(sender_bytes={(0, 1.0): 5}),
    "bool sender key": dict(sender_bytes={(True, 1): 5}),
    "sender key not a pair": dict(sender_bytes={(0, 1, 2): 5}),
    "float leaf": dict(leaf=1.0),
    "bool leaf": dict(leaf=True),
    "leaf 2**63": dict(leaf=2**63),
    "float start_ns": dict(start_ns=100.0),
    "bool end_ns": dict(end_ns=True),
    "float job_id": dict(job_id=3.0),
    "bool iteration": dict(iteration=True),
}


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("name", sorted(REFUSED))
def test_writers_refuse_what_the_decoders_refuse(name, version):
    """A value ``decode_batch_segment`` would refuse (or read back as
    something else) is a CodecError at encode, in both versions."""
    with pytest.raises(CodecError):
        encode_batch(batch_with(**REFUSED[name]), version=version)


NUMPY_FORMS = {
    "np.int64 counter": (dict(port_bytes={0: np.int64(7)}), dict(port_bytes={0: 7})),
    "np.uint8 counter": (dict(port_bytes={0: np.uint8(7)}), dict(port_bytes={0: 7})),
    "np.float64 counter": (dict(port_bytes={0: np.float64(7.5)}), dict(port_bytes={0: 7.5})),
    "np.int32 key": (dict(sender_bytes={(np.int32(0), 1): 4}), dict(sender_bytes={(0, 1): 4})),
    "np.int64 leaf": (dict(leaf=np.int64(5)), dict(leaf=5)),
    "np.int64 start_ns": (dict(start_ns=np.int64(9)), dict(start_ns=9)),
    "np.int64 job_id": (dict(job_id=np.int64(8)), dict(job_id=8)),
}


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("name", sorted(NUMPY_FORMS))
def test_numpy_scalars_encode_as_the_python_values(name, version):
    numpy_form, python_form = NUMPY_FORMS[name]
    unit = encode_batch(batch_with(**numpy_form), version=version)
    assert unit == encode_batch(batch_with(**python_form), version=version)
    assert decode_batch_segment(unit).records() == list(batch_with(**python_form).records)


_INT64_EDGES = [-(2**63), 2**63 - 1]
_GOOD_KEY = st.one_of(
    st.integers(0, 6), st.sampled_from(_INT64_EDGES), st.integers(0, 6).map(np.int64)
)
_GOOD_COUNTER = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 99).map(np.uint16),
)
_ANY = st.one_of(
    _GOOD_COUNTER,
    st.sampled_from([-(2**63) - 1, 2**63, 2**64, 1.0, math.inf, "7", None]),
    st.booleans(),
    st.floats(),
)


@st.composite
def _any_batch(draw):
    """A batch of anything a caller might hand the writers.  Half the
    batches hold only valid values (ints at the int64 edges, any finite
    float, numpy scalars); the other half draw every slot from a pool
    that adds out-of-range ints, bools, integral and non-finite floats,
    strings and ``None``."""
    clean = draw(st.booleans())
    key = _GOOD_KEY if clean else st.one_of(_GOOD_KEY, _ANY)
    counter = _GOOD_COUNTER if clean else _ANY
    sender_key = st.tuples(key, key) if clean else st.one_of(
        st.tuples(key, key), st.tuples(key, key, key)
    )
    ids = st.integers(0, 2**64 - 1)
    if not clean:
        ids = st.one_of(ids, st.booleans(), st.just(4.0))
    tag = FlowTag(job_id=draw(ids), iteration=draw(ids))
    records = [
        IterationRecord(
            leaf=draw(key),
            tag=tag,
            port_bytes=draw(st.dictionaries(key, counter, max_size=4)),
            sender_bytes=draw(st.dictionaries(sender_key, counter, max_size=4)),
            start_ns=draw(key),
            end_ns=draw(key),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return RecordBatch.from_records(records)


def value_kinds(records):
    return [
        {key: isinstance(value, float) for key, value in (r.port_bytes | r.sender_bytes).items()}
        for r in records
    ]


@settings(max_examples=200, deadline=None)
@given(batch=_any_batch())
def test_property_every_accepted_batch_decodes_to_its_records(batch):
    """What ``encode_batch`` writes, ``decode_batch_segment`` reads back
    as the records it was given — floats as floats, ints as ints — and
    the two versions accept exactly the same batches."""
    accepted = []
    for version in (1, 2):
        try:
            unit = encode_batch(batch, version=version)
        except CodecError:
            continue
        records = decode_batch_segment(unit).records()
        assert records == list(batch.records)
        assert value_kinds(records) == value_kinds(batch.records)
        accepted.append(version)
    assert accepted in ([], [1, 2])


# ----------------------------------------------------------------------
# Versioning and malformed lines
# ----------------------------------------------------------------------
def test_unknown_version_raises_typed_error():
    line = encode_batch(make_batch())
    payload = json.loads(line)
    payload[1] = FPREC_VERSION + 1
    with pytest.raises(UnsupportedVersionError, match="version"):
        decode_batch(json.dumps(payload))
    # and the typed error is still a CodecError for broad handlers
    with pytest.raises(CodecError):
        decode_batch(json.dumps(payload))


def test_unknown_version_not_a_keyerror():
    payload = json.loads(encode_batch(make_batch()))
    payload[1] = 99
    try:
        decode_batch(json.dumps(payload))
    except KeyError:  # pragma: no cover - the regression this guards
        pytest.fail("unknown version must not surface as KeyError")
    except UnsupportedVersionError:
        pass


@pytest.mark.parametrize(
    "line",
    [
        "",
        "not json",
        "{}",
        "[1,2]",
        '["wrong",1,"b"]',
        '["fprec","one","b"]',
        '["fprec",1,"x",1,2]',
    ],
)
def test_malformed_lines_raise_codec_error(line):
    with pytest.raises(CodecError):
        decode_line(line)


def test_record_count_mismatch_rejected():
    payload = json.loads(encode_batch(make_batch(n_leaves=3)))
    payload[4] = 2  # declared n_records
    with pytest.raises(CodecError, match="declares"):
        decode_batch(json.dumps(payload))


# ----------------------------------------------------------------------
# Job configs
# ----------------------------------------------------------------------
def job_config(job_id=4, **overrides):
    experiment = ExperimentConfig(n_leaves=6, n_spines=3, job_id=job_id)
    return JobConfig(job_id=job_id, experiment=experiment, **overrides)


def test_job_round_trip():
    job = job_config(faulted=True, fault_link="down:S1->L2", base_seed=9, trial=3)
    assert decode_job(encode_job(job)) == job


def test_job_round_trip_defaults():
    job = job_config()
    decoded = decode_job(encode_job(job))
    assert decoded == job
    assert decoded.faulted is None


def test_job_id_mismatch_rejected():
    experiment = ExperimentConfig(job_id=2)
    with pytest.raises(CodecError, match="does not match"):
        JobConfig(job_id=3, experiment=experiment)


def test_invalid_experiment_in_job_line_is_codec_error():
    line = encode_job(job_config())
    doctored = line.replace('"drop_rate":0.015', '"drop_rate":7.5')
    assert doctored != line
    with pytest.raises(CodecError, match="malformed job config"):
        decode_job(doctored)


# ----------------------------------------------------------------------
# peek / routing
# ----------------------------------------------------------------------
def test_peek_matches_decode():
    batch = make_batch(n_leaves=4, job_id=17)
    line = encode_batch(batch)
    assert peek_batch(line) == (17, 4)


def test_peek_on_job_line_raises():
    with pytest.raises(CodecError):
        peek_batch(encode_job(job_config()))


#: Routing fields the decoders refuse: four that ``int()`` reads (a
#: plus sign, an underscore, which makes ``1_0`` read as 10, an
#: Arabic-Indic 3, a leading zero) and one too long for ``int()`` or
#: ``json.loads``.
NON_JSON_INTS = {
    "plus": "+1",
    "underscore": "1_0",
    "arabic-indic": "\u0663",
    "leading-zero": "01",
    "5000-digits": "9" * 5000,
}


def with_head_field(line: str, position: int, field: str) -> str:
    """``line`` with its head field at comma position ``position``
    (3: job_id, 4: n_records, 5: iteration) replaced by ``field``."""
    parts = line.split(",", 6)
    parts[position] = field
    return ",".join(parts)


@pytest.mark.parametrize("position", [3, 4, 5])
@pytest.mark.parametrize("field", NON_JSON_INTS.values(), ids=NON_JSON_INTS)
def test_peek_refuses_head_fields_the_decoder_refuses(field, position):
    """The routing peek accepts exactly the heads the decoders accept:
    such a field is a typed error at the peek, not a unit routed to a
    worker that then refuses it."""
    line = with_head_field(encode_batch(make_batch(n_leaves=1)), position, field)
    for decode in (peek_batch_tag, decode_batch, decode_batch_segment):
        with pytest.raises(CodecError):
            decode(line)


# ----------------------------------------------------------------------
# .fprec files
# ----------------------------------------------------------------------
def test_fprec_file_round_trip(tmp_path):
    jobs = [job_config(job_id=1), job_config(job_id=2, faulted=False)]
    batches = [make_batch(job_id=1, iteration=i) for i in range(3)]
    path = tmp_path / "stream.fprec"
    n_lines = write_fprec(path, jobs, batches)
    assert n_lines == 5
    content = read_fprec(path)
    assert content.jobs == jobs
    assert content.batches == batches
    assert content.n_records == 9


def test_fprec_stream_io():
    buffer = io.StringIO()
    write_fprec(buffer, [job_config()], [make_batch(job_id=4)])
    buffer.seek(0)
    content = read_fprec(buffer)
    assert content.job_ids() == [4]
    assert len(content.batches) == 1
