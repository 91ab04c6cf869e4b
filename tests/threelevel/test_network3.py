"""Tests for the packet-level three-level fabric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import (
    StagedCollectiveRunner,
    locality_optimized_ring,
    ring_reduce_scatter_stages,
)
from repro.core import DetectionConfig
from repro.simnet import DropFault, FlowTag, Tracer
from repro.threelevel import (
    ThreeLevelModel,
    ThreeLevelMonitor,
    ThreeLevelNetwork,
    ThreeLevelRecords,
    ThreeLevelSpec,
    core_down_link,
    core_up_link,
    pod_down_link,
    pod_up_link,
    run_iterations3,
)
from repro.collectives import ring_demand

SPEC = ThreeLevelSpec(
    n_pods=2, leaves_per_pod=2, spines_per_pod=2, cores_per_spine=2, hosts_per_leaf=1
)


def make_net(**kwargs):
    return ThreeLevelNetwork(SPEC, seed=3, mtu=512, **kwargs)


def test_builds_all_components():
    net = make_net()
    assert len(net.leaves) == 4
    assert len(net.spines) == 4
    assert len(net.cores) == 4
    assert len(net.hosts) == 4
    # Pod links: 2 pods * 2 leaves * 2 spines * 2 dirs = 16; core links:
    # 2 pods * 2 spines * 2 cores * 2 dirs = 16; host links: 8.
    assert len(net.links) == 40


def test_intra_pod_delivery_never_touches_cores():
    net = make_net()
    done = []
    net.host(1).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(1, 50_000)  # hosts 0,1 = pod 0 leaves 0,1
    net.run()
    assert done == [50_000]
    assert all(core.counters.totals() == (0, 0) for core in net.cores)


def test_inter_pod_delivery_crosses_exactly_one_core():
    net = make_net()
    done = []
    net.host(2).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(2, 512)  # single packet, pod 0 -> pod 1
    net.run()
    assert done == [512]
    cores_touched = [c for c in net.cores if sum(c.counters.rx_bytes.values())]
    assert len(cores_touched) == 1


def test_core_routing_respects_spine_groups():
    """A packet that chose pod spine s must traverse a core of s's
    group and arrive at the destination pod's spine s."""
    tracer = Tracer()
    net = ThreeLevelNetwork(SPEC, seed=5, mtu=512)
    for link in net.links.values():
        link.tracer = tracer
    net.host(2).on_message(lambda *a: None)
    net.host(0).send(2, 20_000)
    net.run()
    for event in tracer.events:
        if event.event == "rx" and event.link.startswith("csup:"):
            # csup:S{pod}.{s}->C{c}: c must be in group(s).
            left, right = event.link.split("->")
            s = int(left.split(".")[-1])
            c = int(right[1:])
            assert c in SPEC.cores_of_spine(s)


def test_collectors_at_both_tiers():
    net = make_net()
    leaf_collectors, spine_collectors = net.install_collectors(job_id=1)
    net.host(2).on_message(lambda *a: None)
    net.host(0).send(2, 40_000, tag=FlowTag(1, 0))
    net.run()
    net.finalize_collectors()
    dst_global = SPEC.global_leaf(1, 0)
    assert leaf_collectors[dst_global].records[0].total_bytes == 40_000
    spine_total = sum(
        r.total_bytes
        for (pod, s), c in spine_collectors.items()
        if pod == 1
        for r in c.records
    )
    assert spine_total == 40_000


def test_known_disabled_core_link_avoided():
    dead = core_up_link(0, 0, 0)
    net = ThreeLevelNetwork(SPEC, seed=7, mtu=512, known_disabled=frozenset({dead}))
    net.host(2).on_message(lambda *a: None)
    net.host(0).send(2, 40_000)
    net.run()
    assert net.link(dead).tx_packets == 0
    assert net.total_fault_drops() == 0


def test_silent_core_fault_recovered_by_retransmission():
    fault = core_down_link(0, 1, 0)
    net = make_net()
    net.inject_fault(fault, DropFault(0.4))
    done = []
    net.host(2).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(2, 60_000)
    net.run()
    assert done == [60_000]
    assert net.total_fault_drops() > 0


def test_ring_collective_runs_on_three_level_network():
    net = make_net()
    leaf_collectors, _ = net.install_collectors(job_id=1)
    ring = locality_optimized_ring(SPEC.n_hosts)
    stages = ring_reduce_scatter_stages(ring, 200_000)
    runner = StagedCollectiveRunner(net, 1, stages, iterations=2)
    times = runner.run()
    net.finalize_collectors()
    assert len(times) == 2
    expected = 200_000 - 200_000 // 4
    for g, collector in leaf_collectors.items():
        assert [r.total_bytes for r in collector.records] == [expected, expected]


def test_packet_sim_agrees_with_fastsim3():
    """Cross-validation: per-port mean volumes from the packet-level
    three-level fabric match the statistical model."""
    ring = locality_optimized_ring(SPEC.n_hosts)
    stages = ring_reduce_scatter_stages(ring, 400_000)
    demand = ring_demand(ring, 400_000)
    iterations = 4

    net = ThreeLevelNetwork(SPEC, seed=11, spray="random", mtu=512)
    leaf_collectors, spine_collectors = net.install_collectors(job_id=1)
    StagedCollectiveRunner(net, 1, stages, iterations=iterations).run()
    net.finalize_collectors()

    model = ThreeLevelModel(SPEC, spraying="random", mtu=512)
    fast_runs = run_iterations3(model, demand, iterations, seed=11)

    for g in range(SPEC.n_leaves):
        packet_mean = np.mean(
            [r.total_bytes for r in leaf_collectors[g].records]
        )
        fast_mean = np.mean([run.leaves[g].total_bytes for run in fast_runs])
        assert packet_mean == fast_mean  # exact: lossless volume per leaf
    # Spine-tier totals agree too (inter-pod volume only).
    packet_spine = sum(
        r.total_bytes for c in spine_collectors.values() for r in c.records
    )
    fast_spine = sum(
        r.total_bytes for run in fast_runs for r in run.spines.values()
    )
    assert packet_spine == fast_spine


def test_misroute_rejected():
    net = make_net()
    with pytest.raises(KeyError):
        net.inject_fault("up:L9.9->S9.9", DropFault(0.1))


def test_pod_up_fault_localized_on_packet_fabric():
    """The packet-level substrate agrees with the statistical one: L0.1
    sends only to L1.0, so a loss on its up-link to S0.0 thins pod 0's
    traffic on both core ports into S1.0.  The monitor names the pod
    link and blames no core cable."""
    fault = pod_up_link(0, 1, 0)
    size, iterations = 2_000_000, 2
    ring = locality_optimized_ring(SPEC.n_hosts)
    net = make_net()
    net.inject_fault(fault, DropFault(0.05))
    leaf_collectors, spine_collectors = net.install_collectors(job_id=1)
    StagedCollectiveRunner(
        net, 1, ring_reduce_scatter_stages(ring, size), iterations=iterations
    ).run()
    net.finalize_collectors()
    monitor = ThreeLevelMonitor(
        ThreeLevelModel(SPEC, mtu=512),
        ring_demand(ring, size),
        DetectionConfig(threshold=0.01),
    )
    verdicts = [
        monitor.process_iteration(
            ThreeLevelRecords(
                tag=FlowTag(1, i),
                leaves=tuple(leaf_collectors[g].records[i] for g in range(SPEC.n_leaves)),
                spines={key: c.records[i] for key, c in spine_collectors.items()},
            )
        )
        for i in range(iterations)
    ]
    suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
    assert fault in suspected
    assert not any(link.startswith("cs") for link in suspected)
