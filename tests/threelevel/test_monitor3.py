"""Tests for two-tier monitoring on three-level fabrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import locality_optimized_ring, ring_demand
from repro.core import DetectionConfig
from repro.threelevel import (
    ThreeLevelModel,
    ThreeLevelMonitor,
    ThreeLevelSpec,
    core_down_link,
    core_up_link,
    pod_down_link,
    pod_up_link,
    predict_three_level,
    run_iterations3,
)
from repro.units import GIB

SPEC = ThreeLevelSpec(
    n_pods=4, leaves_per_pod=4, spines_per_pod=2, cores_per_spine=2, hosts_per_leaf=1
)
DEMAND = ring_demand(locality_optimized_ring(SPEC.n_hosts), 4 * GIB)


def monitored_run(silent=None, n=3, seed=0, threshold=0.01, disabled=frozenset()):
    model = ThreeLevelModel(
        SPEC, known_disabled=disabled, silent=silent or {}, mtu=1024
    )
    runs = run_iterations3(model, DEMAND, n, seed=seed)
    monitor = ThreeLevelMonitor(
        model, DEMAND, DetectionConfig(threshold=threshold)
    )
    return monitor.process_run(runs)


def test_prediction_conserves_demand():
    model = ThreeLevelModel(SPEC, mtu=1024)
    leaf_pred, spine_preds = predict_three_level(model, DEMAND)
    from repro.threelevel import demand_by_leaf_pair

    pairs = demand_by_leaf_pair(SPEC, DEMAND)
    total = sum(pairs.values())
    assert np.isclose(leaf_pred.total_bytes, total)
    inter = sum(v for ((sp, _), (dp, _)), v in pairs.items() if sp != dp)
    assert np.isclose(sum(p.total_bytes for p in spine_preds.values()), inter)


def test_healthy_run_quiet_at_both_tiers():
    verdicts = monitored_run(seed=1)
    assert not any(v.triggered for v in verdicts)


def test_pod_down_fault_detected_and_localized():
    fault = pod_down_link(1, 0, 2)
    verdicts = monitored_run(silent={fault: 0.05}, seed=2)
    assert all(v.triggered for v in verdicts)
    suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
    assert fault in suspected
    # The core layer is quiet, so no core links are blamed.
    assert not any(link.startswith("cs") for link in suspected)


def test_pod_up_fault_detected():
    fault = pod_up_link(2, 1, 0)
    verdicts = monitored_run(silent={fault: 0.05}, seed=3)
    assert any(v.triggered for v in verdicts)
    suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
    assert fault in suspected


def test_core_down_fault_localized_at_spine_tier():
    fault = core_down_link(1, 2, 0)  # core 1 -> pod 2 spine 0
    verdicts = monitored_run(silent={fault: 0.05}, seed=4)
    assert any(v.triggered for v in verdicts)
    suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
    assert fault in suspected
    # The spine tier alarmed.
    assert any(
        r.triggered for v in verdicts for r in v.spine_results.values()
    )


def test_core_up_fault_localized_remote():
    fault = core_up_link(0, 0, 1)  # pod 0 spine 0 -> core 1
    verdicts = monitored_run(silent={fault: 0.05}, seed=5)
    suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
    assert fault in suspected
    # Sender-pod comparison at the spine tier should mark it remote.
    remote = [
        s
        for v in verdicts
        for s in v.suspicions
        if s.kind == "remote" and s.link == fault
    ]
    assert remote


def test_core_fault_not_blamed_on_pod_links():
    """Cross-tier suppression: a core-layer fault must not generate
    spurious pod-level (up/down) suspicions at the leaves below."""
    fault = core_down_link(3, 1, 1)
    verdicts = monitored_run(silent={fault: 0.08}, seed=6)
    suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
    assert fault in suspected
    pod_level = {l for l in suspected if l.startswith(("up:", "down:"))}
    assert not pod_level


def test_known_disabled_absorbed_by_model():
    disabled = frozenset({core_up_link(0, 1, 3), core_down_link(3, 0, 1)})
    verdicts = monitored_run(seed=7, disabled=disabled)
    assert not any(v.triggered for v in verdicts)


def test_detection_with_preexisting_core_fault_plus_new_pod_fault():
    disabled = frozenset({core_up_link(0, 1, 3), core_down_link(3, 0, 1)})
    fault = pod_down_link(2, 1, 1)
    verdicts = monitored_run(silent={fault: 0.05}, seed=8, disabled=disabled)
    assert any(v.triggered for v in verdicts)
    suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
    assert fault in suspected


def test_inter_pod_pod_up_fault_not_blamed_on_core():
    """L0.3 sends only to L1.0, through pod spine S0.0 and both cores of
    its group.  A loss on L0.3's up-link thins pod 0's traffic on every
    core port into S1.0 — no single core cable can do that — so the core
    layer is not blamed and the leaf tier names the pod link."""
    fault = pod_up_link(0, 3, 0)
    verdicts = monitored_run(silent={fault: 0.05}, seed=3)
    assert all(v.triggered for v in verdicts)
    suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
    assert fault in suspected
    assert not any(link.startswith("cs") for link in suspected)
