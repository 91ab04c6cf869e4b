"""Closed-loop remediation on three-level fabrics."""

from __future__ import annotations

import pytest

from repro.collectives import locality_optimized_ring, ring_demand
from repro.core import (
    ConfirmationPolicy,
    DetectionConfig,
    RemediationEngine,
    RemediationError,
    cable_links3,
    cable_of3,
)
from repro.threelevel import (
    ThreeLevelModel,
    ThreeLevelMonitor,
    ThreeLevelSpec,
    core_down_link,
    core_up_link,
    pod_down_link,
    pod_up_link,
    run_iterations3,
)
from repro.units import GIB

SPEC = ThreeLevelSpec(
    n_pods=4, leaves_per_pod=4, spines_per_pod=2, cores_per_spine=2, hosts_per_leaf=1
)
DEMAND = ring_demand(locality_optimized_ring(SPEC.n_hosts), 4 * GIB)


def test_cable_of3_pod_links():
    assert cable_of3(pod_up_link(1, 2, 0)) == ("pod", "L1.2", "S1.0")
    assert cable_of3(pod_down_link(1, 0, 2)) == ("pod", "L1.2", "S1.0")


def test_cable_of3_core_links():
    assert cable_of3(core_up_link(0, 1, 3)) == ("core", "S0.1", "C3")
    assert cable_of3(core_down_link(3, 0, 1)) == ("core", "S0.1", "C3")


def test_cable_links3_roundtrip():
    cable = cable_of3(core_up_link(2, 0, 1))
    links = cable_links3(cable)
    assert links == frozenset({core_up_link(2, 0, 1), core_down_link(1, 2, 0)})
    cable = cable_of3(pod_down_link(3, 1, 0))
    assert cable_links3(cable) == frozenset(
        {pod_up_link(3, 0, 1), pod_down_link(3, 1, 0)}
    )


def test_cable_of3_rejects_garbage():
    with pytest.raises((RemediationError, ValueError)):
        cable_of3("bogus")
    with pytest.raises(RemediationError):
        cable_links3(("warp", "a", "b"))


def _run_and_remediate(fault_link, rate=0.05, n=6):
    engine = RemediationEngine(
        policy=ConfirmationPolicy(confirm_after=2, window=4),
        cable_fn=cable_of3,
        links_fn=cable_links3,
    )
    known = ThreeLevelModel(SPEC, mtu=1024)
    actions = []
    quiet_after = []
    for iteration in range(n):
        active = (
            {fault_link: rate}
            if fault_link not in known.known_disabled
            else {}
        )
        truth = known.with_silent(active)
        records = run_iterations3(truth, DEMAND, 1, seed=100 + iteration)[0]
        monitor = ThreeLevelMonitor(known, DEMAND, DetectionConfig(threshold=0.01))
        verdict = monitor.process_iteration(records)
        action = engine.observe(verdict)
        if action is not None:
            from dataclasses import replace

            known = replace(
                known,
                known_disabled=known.known_disabled | action.disabled_links,
            )
            engine.reset_history()
            actions.append(action)
        elif actions:
            quiet_after.append(not verdict.triggered)
    return actions, quiet_after, known


def test_core_fault_drained_and_recovered():
    fault = core_down_link(1, 2, 0)
    actions, quiet_after, known = _run_and_remediate(fault)
    assert actions
    assert fault in actions[0].disabled_links
    assert quiet_after and all(quiet_after)


def test_pod_fault_drained_and_recovered():
    fault = pod_down_link(1, 0, 2)
    actions, quiet_after, known = _run_and_remediate(fault)
    assert actions
    assert fault in actions[0].disabled_links
    assert quiet_after and all(quiet_after)


def test_inter_pod_pod_up_fault_drains_its_own_cable():
    fault = pod_up_link(0, 3, 0)
    actions, quiet_after, known = _run_and_remediate(fault)
    assert actions
    assert fault in actions[0].disabled_links
    drained = {cable for action in actions for cable in action.cables}
    assert not any(kind == "core" for kind, _a, _b in drained)
    assert quiet_after and all(quiet_after)
