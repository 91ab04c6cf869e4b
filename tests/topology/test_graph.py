"""Tests for Clos specs, link naming, and the control plane."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.topology import (
    ClosSpec,
    ControlPlane,
    TopologyError,
    down_link,
    parse_fabric_link,
    up_link,
)


def test_link_names_roundtrip():
    assert parse_fabric_link(up_link(3, 7)) == ("up", 3, 7)
    assert parse_fabric_link(down_link(7, 3)) == ("down", 3, 7)


def test_parse_rejects_garbage():
    for bad in ("", "up:L1", "side:L1->S2", "up:S1->L2x", "hostup:H3"):
        with pytest.raises(TopologyError):
            parse_fabric_link(bad)


def test_spec_defaults_match_paper():
    spec = ClosSpec()
    assert spec.n_leaves == 32
    assert spec.n_spines == 16
    assert spec.hosts_per_leaf == 1
    assert spec.non_blocking


def test_spec_validation():
    with pytest.raises(TopologyError):
        ClosSpec(n_leaves=1)
    with pytest.raises(TopologyError):
        ClosSpec(n_spines=0)
    with pytest.raises(TopologyError):
        ClosSpec(hosts_per_leaf=0)
    with pytest.raises(TopologyError):
        ClosSpec(link_rate_bps=0)
    with pytest.raises(TopologyError):
        ClosSpec(prop_delay_ns=-1)


def test_host_leaf_mapping():
    spec = ClosSpec(n_leaves=4, n_spines=2, hosts_per_leaf=3)
    assert spec.n_hosts == 12
    assert spec.leaf_of_host(0) == 0
    assert spec.leaf_of_host(2) == 0
    assert spec.leaf_of_host(3) == 1
    assert spec.leaf_of_host(11) == 3
    assert list(spec.hosts_of_leaf(1)) == [3, 4, 5]


def test_host_out_of_range():
    spec = ClosSpec(n_leaves=2, n_spines=2)
    with pytest.raises(TopologyError):
        spec.leaf_of_host(2)
    with pytest.raises(TopologyError):
        spec.hosts_of_leaf(2)


def test_host_leaves_table_matches_leaf_of_host():
    spec = ClosSpec(n_leaves=4, n_spines=2, hosts_per_leaf=3)
    table = spec.host_leaves
    assert table is spec.host_leaves  # one table per spec
    assert [table[h] for h in range(12)] == [spec.leaf_of_host(h) for h in range(12)]
    for host in (-1, -12, 12):  # a negative index must not wrap around
        with pytest.raises(TopologyError, match="out of range"):
            table[host]


def test_non_blocking_condition():
    assert ClosSpec(n_leaves=4, n_spines=4, hosts_per_leaf=4).non_blocking
    assert not ClosSpec(n_leaves=4, n_spines=2, hosts_per_leaf=4).non_blocking


def test_fabric_links_enumeration():
    spec = ClosSpec(n_leaves=2, n_spines=2)
    links = set(spec.fabric_links())
    assert len(links) == spec.n_fabric_links == 8
    assert up_link(0, 0) in links
    assert down_link(1, 1) in links


def test_control_plane_valid_spines_all_healthy():
    spec = ClosSpec(n_leaves=4, n_spines=3)
    plane = ControlPlane(spec)
    assert plane.valid_spines(0, 1) == [0, 1, 2]


def test_control_plane_excludes_up_fault_for_source_only():
    spec = ClosSpec(n_leaves=4, n_spines=3)
    plane = ControlPlane(spec, known_disabled=frozenset({up_link(0, 1)}))
    assert plane.valid_spines(0, 2) == [0, 2]
    assert plane.valid_spines(1, 2) == [0, 1, 2]  # other sources unaffected


def test_control_plane_excludes_down_fault_for_destination_only():
    spec = ClosSpec(n_leaves=4, n_spines=3)
    plane = ControlPlane(spec, known_disabled=frozenset({down_link(2, 3)}))
    assert plane.valid_spines(0, 3) == [0, 1]
    assert plane.valid_spines(0, 1) == [0, 1, 2]


def test_control_plane_partition_raises():
    spec = ClosSpec(n_leaves=2, n_spines=1)
    plane = ControlPlane(spec, known_disabled=frozenset({up_link(0, 0)}))
    with pytest.raises(TopologyError):
        plane.valid_spines(0, 1)
    assert not plane.reachable(0, 1)
    assert plane.reachable(1, 0)


def test_disable_enable_cycle():
    spec = ClosSpec(n_leaves=2, n_spines=2)
    plane = ControlPlane(spec)
    plane.disable(up_link(0, 0))
    assert not plane.up_ok(0, 0)
    plane.enable(up_link(0, 0))
    assert plane.up_ok(0, 0)


def test_disable_validates_names():
    plane = ControlPlane(ClosSpec(n_leaves=2, n_spines=2))
    with pytest.raises(TopologyError):
        plane.disable("bogus-link")


def test_control_plane_rejects_bad_initial_names():
    with pytest.raises(TopologyError):
        ControlPlane(ClosSpec(n_leaves=2, n_spines=2), known_disabled=frozenset({"x"}))


def test_fully_connected():
    spec = ClosSpec(n_leaves=3, n_spines=2)
    assert ControlPlane(spec).fully_connected()
    broken = ControlPlane(
        spec, known_disabled=frozenset({up_link(0, 0), up_link(0, 1)})
    )
    assert not broken.fully_connected()


@given(st.integers(0, 63), st.integers(0, 63))
def test_property_link_name_roundtrip(leaf, spine):
    assert parse_fabric_link(up_link(leaf, spine)) == ("up", leaf, spine)
    assert parse_fabric_link(down_link(spine, leaf)) == ("down", leaf, spine)


@given(
    st.integers(2, 16),  # leaves
    st.integers(1, 8),  # spines
    st.integers(1, 4),  # hosts per leaf
)
def test_property_every_host_maps_to_a_valid_leaf(n_leaves, n_spines, hosts_per_leaf):
    spec = ClosSpec(n_leaves=n_leaves, n_spines=n_spines, hosts_per_leaf=hosts_per_leaf)
    for host in range(spec.n_hosts):
        leaf = spec.leaf_of_host(host)
        assert host in spec.hosts_of_leaf(leaf)


def test_spray_exclusion_narrows_spraying_but_not_forwarding():
    spec = ClosSpec(n_leaves=4, n_spines=3)
    plane = ControlPlane(spec)
    plane.exclude_from_spray(up_link(0, 1))
    # New traffic from leaf 0 avoids spine 1...
    assert plane.valid_spines(0, 3) == [0, 2]
    # ...but in-flight forwarding still works: the link is up.
    assert plane.up_ok(0, 1)
    assert plane.down_ok(1, 0)
    # Other leaves are unaffected.
    assert plane.valid_spines(2, 3) == [0, 1, 2]


def test_readmit_to_spray_restores_candidates():
    spec = ClosSpec(n_leaves=2, n_spines=3)
    plane = ControlPlane(spec)
    plane.exclude_from_spray(up_link(0, 0), down_link(1, 1))
    assert plane.valid_spines(0, 1) == [2]
    plane.readmit_to_spray(up_link(0, 0), down_link(1, 1))
    assert plane.valid_spines(0, 1) == [0, 1, 2]
    assert plane.spray_excluded == frozenset()


def test_routing_excluded_unions_disabled_and_spray_excluded():
    spec = ClosSpec(n_leaves=2, n_spines=3)
    plane = ControlPlane(spec, known_disabled=frozenset({up_link(0, 0)}))
    plane.exclude_from_spray(up_link(0, 1))
    assert plane.routing_excluded == frozenset({up_link(0, 0), up_link(0, 1)})
    # Disabled links stay excluded even if "readmitted" to spraying.
    plane.readmit_to_spray(up_link(0, 0))
    assert up_link(0, 0) in plane.routing_excluded


def test_exclude_from_spray_validates_names():
    plane = ControlPlane(ClosSpec(n_leaves=2, n_spines=2))
    with pytest.raises(TopologyError):
        plane.exclude_from_spray("bogus-link")


def test_spray_exclusion_partition_raises():
    spec = ClosSpec(n_leaves=2, n_spines=1)
    plane = ControlPlane(spec)
    plane.exclude_from_spray(up_link(0, 0))
    with pytest.raises(TopologyError):
        plane.valid_spines(0, 1)


# ----------------------------------------------------------------------
# valid_spines is memoized per (src, dst) under the current
# known_disabled / spray_excluded objects: every rebind must show up in
# the very next answer, and answers are the caller's to mutate.
# ----------------------------------------------------------------------
def test_valid_spines_follows_every_rebind_immediately():
    spec = ClosSpec(n_leaves=4, n_spines=3)
    plane = ControlPlane(spec)
    assert plane.valid_spines(0, 1) == [0, 1, 2]  # fills the memo
    plane.disable(up_link(0, 1))
    assert plane.valid_spines(0, 1) == [0, 2]
    plane.exclude_from_spray(down_link(2, 1))
    assert plane.valid_spines(0, 1) == [0]
    assert plane.valid_spines(0, 3) == [0, 2]
    plane.enable(up_link(0, 1))
    assert plane.valid_spines(0, 1) == [0, 1]
    plane.readmit_to_spray(down_link(2, 1))
    assert plane.valid_spines(0, 1) == [0, 1, 2]
    plane.known_disabled = frozenset({down_link(0, 1), down_link(1, 1)})
    assert plane.valid_spines(0, 1) == [2]
    plane.spray_excluded = frozenset({up_link(3, 0)})
    assert plane.valid_spines(3, 2) == [1, 2]
    plane.known_disabled = frozenset()
    plane.spray_excluded = frozenset()
    assert plane.valid_spines(0, 1) == [0, 1, 2]


def test_valid_spines_returns_a_caller_owned_list():
    spec = ClosSpec(n_leaves=4, n_spines=3)
    for plane in (
        ControlPlane(spec),
        ControlPlane(spec, known_disabled=frozenset({up_link(0, 1)})),
    ):
        first = plane.valid_spines(0, 2)
        expected = list(first)
        assert isinstance(first, list)
        first.clear()
        first.append(99)
        assert plane.valid_spines(0, 2) == expected
        assert plane.valid_spines(0, 2) is not plane.valid_spines(0, 2)


def test_spray_spines_shares_one_tuple_until_a_rebind():
    spec = ClosSpec(n_leaves=4, n_spines=3)
    plane = ControlPlane(spec, known_disabled=frozenset({up_link(0, 1)}))
    spines = plane.spray_spines(0, 2)
    assert spines == (0, 2)
    assert plane.spray_spines(0, 2) is spines
    plane.disable(up_link(0, 2))
    assert plane.spray_spines(0, 2) == (0,)


def test_partitioned_pair_raises_on_every_call():
    spec = ClosSpec(n_leaves=3, n_spines=2)
    plane = ControlPlane(spec)
    assert plane.valid_spines(0, 1) == [0, 1]
    plane.disable(up_link(0, 0), down_link(1, 1))
    for _ in range(3):
        with pytest.raises(TopologyError, match="no valid spine from leaf 0 to leaf 1"):
            plane.valid_spines(0, 1)
        assert not plane.reachable(0, 1)
    assert plane.valid_spines(0, 2) == [1]  # other pairs still answer
    plane.enable(up_link(0, 0))
    assert plane.valid_spines(0, 1) == [0]
