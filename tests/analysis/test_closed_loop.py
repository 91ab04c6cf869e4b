"""Tests for the closed-loop remediation runs."""

from __future__ import annotations

import pytest

from repro.analysis import run_closed_loop
from repro.collectives import locality_optimized_ring, ring_demand
from repro.core import ConfirmationPolicy
from repro.fastsim import FabricModel
from repro.topology import ClosSpec, down_link, up_link
from repro.units import MIB

SPEC = ClosSpec(n_leaves=8, n_spines=4, hosts_per_leaf=1)
DEMAND = ring_demand(locality_optimized_ring(SPEC.n_hosts), 512 * MIB)
MODEL = FabricModel(SPEC, mtu=1024)


def test_healthy_run_takes_no_action():
    result = run_closed_loop(MODEL, DEMAND, {}, n_iterations=5, seed=1)
    assert result.actions == []
    assert result.detection_iteration is None
    assert not result.recovered


def test_fault_detected_disabled_and_recovered():
    fault_link = down_link(1, 3)
    result = run_closed_loop(
        MODEL,
        DEMAND,
        {fault_link: 0.05},
        n_iterations=10,
        fault_start_iteration=2,
        policy=ConfirmationPolicy(confirm_after=2, window=4),
        seed=2,
    )
    assert result.detection_iteration == 2
    # Confirmation needs a second implicated iteration.
    assert result.remediation_iteration == 3
    # The faulty cable is among the disabled ones.
    disabled = result.actions[0].disabled_links
    assert fault_link in disabled
    # Post-remediation iterations are quiet: symmetry restored over the
    # surviving spines.
    assert result.recovered


def test_disabled_links_removed_from_routing():
    fault_link = down_link(0, 5)
    result = run_closed_loop(
        MODEL,
        DEMAND,
        {fault_link: 0.10},
        n_iterations=8,
        policy=ConfirmationPolicy(confirm_after=1, window=1),
        seed=3,
    )
    assert result.actions
    final = result.steps[-1]
    assert fault_link in final.disabled_so_far


def test_conservative_disable_includes_candidate_cable():
    """Single-sender rings cannot disambiguate local vs remote; the
    engine drains both candidate cables (at most one healthy cable
    sacrificed for a clean baseline)."""
    fault_link = up_link(2, 1)
    result = run_closed_loop(
        MODEL,
        DEMAND,
        {fault_link: 0.10},
        n_iterations=8,
        policy=ConfirmationPolicy(confirm_after=1, window=1),
        seed=4,
    )
    assert result.actions
    disabled = result.actions[0].disabled_links
    assert fault_link in disabled
    assert len(disabled) in (2, 4)  # one or two cables, both directions
    assert result.recovered


def test_immediate_fault_with_aggressive_policy():
    result = run_closed_loop(
        MODEL,
        DEMAND,
        {down_link(3, 6): 0.08},
        n_iterations=6,
        policy=ConfirmationPolicy(confirm_after=1, window=1),
        seed=5,
    )
    assert result.remediation_iteration == 0
    assert result.recovered


def test_steps_cover_every_iteration():
    result = run_closed_loop(MODEL, DEMAND, {}, n_iterations=4, seed=6)
    assert [s.iteration for s in result.steps] == [0, 1, 2, 3]


def test_partitioning_remediation_is_vetoed():
    """Confirming both cables that leave leaf 0 and leaf 1 on different
    spines would partition the pair: the loop withholds the action and
    keeps running on the unchanged topology instead of crashing."""
    spec = ClosSpec(n_leaves=4, n_spines=2, hosts_per_leaf=1)
    demand = ring_demand(locality_optimized_ring(spec.n_hosts), 64 * MIB)
    result = run_closed_loop(
        FabricModel(spec, mtu=1024),
        demand,
        {down_link(0, 1): 0.2, down_link(1, 0): 0.2},
        n_iterations=4,
        policy=ConfirmationPolicy(confirm_after=1, window=1),
        seed=1,
    )
    assert result.actions == []
    assert len(result.vetoed_actions) == 1
    assert result.steps[0].vetoed and result.steps[0].action is None
    assert all(step.disabled_so_far == frozenset() for step in result.steps)
    assert len(result.steps) == 4
