import json

import pytest

from harness import Tracer, covered_length, digest, percentile, quartile_spread


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    assert percentile([7], 95) == 7
    # Never interpolates: the result is always a sample.
    assert percentile([1.0, 2.0], 50) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1.0]) == 0.0
    values = [90, 95, 100, 100, 100, 100, 100, 105, 110, 120]
    assert 0.0 < quartile_spread(values) < 0.15


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5)], 0, 10) == 4  # union, not 2 + 3
    assert covered_length([(-5, 2), (8, 20)], 0, 10) == 4  # clipped to parent
    assert covered_length([(1, 2), (1, 2)], 0, 10) == 1  # duplicates once
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_children_once():
    tracer = Tracer()
    # name, start, end, parent, group
    tracer.spans = [
        ["root", 0.0, 10.0, None, None],
        ["child", 1.0, 4.0, 0, None],
        ["child", 3.0, 6.0, 0, None],  # overlaps its sibling by 1
        ["leaf", 1.5, 2.5, 1, None],  # grandchild: only shortens "child"
        ["other", 20.0, 21.0, None, None],
    ]
    self_s = tracer.self_times()
    assert self_s["root"] == pytest.approx(10.0 - 5.0)
    assert self_s["child"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert self_s["leaf"] == pytest.approx(1.0)
    assert self_s["other"] == pytest.approx(1.0)
    assert tracer.counts() == {"root": 1, "child": 2, "leaf": 1, "other": 1}


def test_spans_nest_and_inherit_groups(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", group=7) as outer:
        with tracer.span("inner") as inner:
            pass
    assert tracer.spans[inner][3] == outer
    assert tracer.spans[inner][4] == 7
    assert tracer.spans[outer][2] >= tracer.spans[inner][2]
    path = tmp_path / "deep" / "t.trace.json"
    tracer.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == 0


def test_digest_is_order_stable_and_ignores_last_bits():
    assert digest({"a": 1, "b": [1.0, 2.0]}) == digest({"b": [1.0, 2.0], "a": 1})
    assert digest([0.1 + 0.2]) == digest([0.3])
    assert digest([0.3]) != digest([0.3001])
    assert digest({3, 1, 2}) == digest([1, 2, 3])
