"""Tests for the analytical d/(s-f) load model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import DemandMatrix, locality_optimized_ring, ring_demand
from repro.core import AnalyticalPredictor, PredictionError
from repro.topology import ClosSpec, ControlPlane, down_link, up_link


def ring_setup(n_leaves=4, n_spines=2, total=400_000):
    spec = ClosSpec(n_leaves=n_leaves, n_spines=n_spines, hosts_per_leaf=1)
    demand = ring_demand(locality_optimized_ring(spec.n_hosts), total)
    return spec, demand


def test_even_split_without_faults():
    spec, demand = ring_setup()
    prediction = AnalyticalPredictor(spec, demand).predict()
    inbound = 400_000 - 400_000 // 4
    for leaf in range(4):
        ports = prediction.for_leaf(leaf).port_bytes
        assert ports == {0: inbound / 2, 1: inbound / 2}


def test_d_over_s_minus_f_with_down_fault():
    spec, demand = ring_setup(n_spines=4)
    dead = down_link(0, 1)  # spine 0 cannot reach leaf 1
    prediction = AnalyticalPredictor(
        spec, demand, known_disabled=frozenset({dead})
    ).predict()
    inbound = 400_000 - 400_000 // 4
    leaf1 = prediction.for_leaf(1).port_bytes
    assert 0 not in leaf1
    for spine in (1, 2, 3):
        assert np.isclose(leaf1[spine], inbound / 3)  # d / (s - f)
    # Other leaves unaffected.
    assert np.isclose(prediction.for_leaf(2).port_bytes[0], inbound / 4)


def test_up_fault_affects_only_that_senders_flows():
    spec, demand = ring_setup(n_spines=4)
    dead = up_link(0, 2)  # leaf 0 cannot reach spine 2
    prediction = AnalyticalPredictor(
        spec, demand, known_disabled=frozenset({dead})
    ).predict()
    inbound = 400_000 - 400_000 // 4
    # Leaf 1 receives from leaf 0 only: its spine-2 port sees nothing.
    leaf1 = prediction.for_leaf(1).port_bytes
    assert 2 not in leaf1
    assert np.isclose(leaf1[0], inbound / 3)
    # Leaf 2 receives from leaf 1, which can still use spine 2.
    assert np.isclose(prediction.for_leaf(2).port_bytes[2], inbound / 4)


def test_sender_breakdown_matches_ports():
    spec, demand = ring_setup(n_spines=4)
    prediction = AnalyticalPredictor(spec, demand).predict()
    for leaf in range(spec.n_leaves):
        port = prediction.for_leaf(leaf)
        for spine, volume in port.port_bytes.items():
            senders = sum(
                v for (s, _src), v in port.sender_bytes.items() if s == spine
            )
            assert np.isclose(senders, volume)


def test_total_prediction_equals_nonlocal_demand():
    spec, demand = ring_setup(n_leaves=8, n_spines=4)
    prediction = AnalyticalPredictor(spec, demand).predict()
    assert np.isclose(prediction.total_bytes, demand.nonlocal_bytes(spec))


def test_local_traffic_excluded():
    spec = ClosSpec(n_leaves=2, n_spines=2, hosts_per_leaf=2)
    demand = DemandMatrix()
    demand.add(0, 1, 999)  # same leaf
    demand.add(0, 2, 100)  # crosses fabric
    prediction = AnalyticalPredictor(spec, demand).predict()
    assert np.isclose(prediction.total_bytes, 100)


def test_multi_sender_demand():
    spec = ClosSpec(n_leaves=4, n_spines=2, hosts_per_leaf=1)
    demand = DemandMatrix()
    demand.add(0, 3, 100)
    demand.add(1, 3, 300)
    prediction = AnalyticalPredictor(spec, demand).predict()
    leaf3 = prediction.for_leaf(3)
    assert np.isclose(leaf3.port_bytes[0], 200)
    assert np.isclose(leaf3.sender_bytes[(0, 0)], 50)
    assert np.isclose(leaf3.sender_bytes[(0, 1)], 150)


@pytest.mark.parametrize(
    "disabled", [frozenset(), frozenset({up_link(0, 1), down_link(2, 3), down_link(0, 5)})]
)
def test_prediction_is_the_pair_by_pair_sum_in_insertion_order(disabled):
    """Every leaf's port and sender tables equal a plain pair-by-pair
    accumulation: the same floats, keys in the same order (the localizer
    walks ``sender_bytes`` in insertion order).  Several leaves receive
    from more than one source leaf, over different spine sets."""
    spec = ClosSpec(n_leaves=6, n_spines=4, hosts_per_leaf=2)
    rng = np.random.default_rng(3)
    demand = DemandMatrix()
    for _ in range(40):
        src, dst = rng.choice(spec.n_hosts, size=2, replace=False)
        demand.add(int(src), int(dst), int(rng.integers(1, 10**7)))
    control = ControlPlane(spec, known_disabled=disabled)
    ports = [dict() for _ in range(spec.n_leaves)]
    senders = [dict() for _ in range(spec.n_leaves)]
    for (src, dst), size in sorted(demand.leaf_pairs(spec).items()):
        spines = control.valid_spines(src, dst)
        for spine in spines:
            share = size / len(spines)
            ports[dst][spine] = ports[dst].get(spine, 0.0) + share
            senders[dst][spine, src] = senders[dst].get((spine, src), 0.0) + share
    assert max(len({s for _spine, s in table}) for table in senders) > 1
    prediction = AnalyticalPredictor(spec, demand, known_disabled=disabled).predict()
    for leaf in range(spec.n_leaves):
        got = prediction.for_leaf(leaf)
        assert list(got.port_bytes.items()) == list(ports[leaf].items())
        assert list(got.sender_bytes.items()) == list(senders[leaf].items())


def test_expected_ports_reflect_faults():
    spec, demand = ring_setup(n_spines=3)
    prediction = AnalyticalPredictor(
        spec, demand, known_disabled=frozenset({down_link(1, 2)})
    ).predict()
    assert prediction.for_leaf(2).expected_ports() == frozenset({0, 2})


def test_prediction_misorder_detected():
    spec, demand = ring_setup()
    prediction = AnalyticalPredictor(spec, demand).predict()
    with pytest.raises(PredictionError):
        prediction.for_leaf(1).leaf == 1 and prediction.per_leaf[0].leaf == 0 and (
            type(prediction)(per_leaf=prediction.per_leaf[::-1]).for_leaf(0)
        )


def test_stateless_update_is_noop():
    spec, demand = ring_setup()
    predictor = AnalyticalPredictor(spec, demand)
    from repro.core import LearningEvent

    assert predictor.update([]) is LearningEvent.NONE
    assert predictor.ready


@settings(max_examples=30, deadline=None)
@given(
    st.integers(3, 10),
    st.integers(2, 6),
    st.integers(100, 10**6),
)
def test_property_prediction_conserves_demand(n_leaves, n_spines, total):
    spec = ClosSpec(n_leaves=n_leaves, n_spines=n_spines, hosts_per_leaf=1)
    if total < n_leaves:
        total = n_leaves
    demand = ring_demand(locality_optimized_ring(spec.n_hosts), total)
    prediction = AnalyticalPredictor(spec, demand).predict()
    assert np.isclose(prediction.total_bytes, demand.nonlocal_bytes(spec))
    # Per-leaf: prediction equals the leaf's inbound non-local demand.
    pair_bytes = demand.leaf_pairs(spec)
    for leaf in range(n_leaves):
        inbound = sum(v for (src, dst), v in pair_bytes.items() if dst == leaf)
        assert np.isclose(prediction.for_leaf(leaf).total_bytes, inbound)
