"""Tests for the network builder."""

from __future__ import annotations

import pytest

from repro.simnet import DisconnectFault, DropFault, Network
from repro.topology import ClosSpec, down_link, host_up_link, up_link


def test_builds_all_nodes_and_links():
    spec = ClosSpec(n_leaves=4, n_spines=2, hosts_per_leaf=2)
    net = Network(spec, seed=0)
    assert len(net.leaves) == 4
    assert len(net.spines) == 2
    assert len(net.hosts) == 8
    # 2 directions x leaves x spines fabric links + 2 per host.
    assert len(net.links) == 2 * 4 * 2 + 2 * 8


def test_link_lookup_by_canonical_name():
    net = Network(ClosSpec(n_leaves=2, n_spines=2), seed=0)
    assert net.link(up_link(0, 1)).name == "up:L0->S1"
    assert net.link(down_link(1, 0)).name == "down:S1->L0"
    assert net.link(host_up_link(1)).name == "hostup:H1"


def test_known_disabled_links_carry_disconnect_faults():
    dead = up_link(0, 0)
    net = Network(
        ClosSpec(n_leaves=2, n_spines=2), seed=0, known_disabled=frozenset({dead})
    )
    fault = net.injector.fault_on(dead)
    assert isinstance(fault, DisconnectFault)
    assert fault.known
    assert dead in net.control.known_disabled


def test_inject_silent_fault_does_not_touch_control_plane():
    net = Network(ClosSpec(n_leaves=2, n_spines=2), seed=0)
    net.inject_fault(down_link(0, 1), DropFault(0.1))
    assert down_link(0, 1) not in net.control.known_disabled


def test_inject_known_fault_updates_control_plane():
    net = Network(ClosSpec(n_leaves=2, n_spines=2), seed=0)
    net.inject_fault(down_link(0, 1), DisconnectFault(known=True))
    assert down_link(0, 1) in net.control.known_disabled


def test_heal_fault_restores_routing():
    net = Network(ClosSpec(n_leaves=2, n_spines=2), seed=0)
    net.inject_fault(down_link(0, 1), DisconnectFault(known=True))
    net.heal_fault(down_link(0, 1))
    assert down_link(0, 1) not in net.control.known_disabled
    assert net.injector.fault_on(down_link(0, 1)) is None


def test_same_seed_same_behaviour():
    outcomes = []
    for _ in range(2):
        net = Network(ClosSpec(n_leaves=4, n_spines=2), seed=123, mtu=1000)
        net.inject_fault(down_link(0, 3), DropFault(0.3))
        collectors = net.install_collectors(job_id=1)
        net.host(3).on_message(lambda *a: None)
        from repro.simnet import FlowTag

        net.host(0).send(3, 50_000, tag=FlowTag(1, 0))
        net.run()
        record = collectors[3].finalize(net.now)
        outcomes.append((net.now, record.port_bytes, net.total_fault_drops()))
    assert outcomes[0] == outcomes[1]


def test_different_seeds_differ():
    results = []
    for seed in (1, 2):
        net = Network(ClosSpec(n_leaves=4, n_spines=2), seed=seed, mtu=1000)
        collectors = net.install_collectors(job_id=1)
        net.host(3).on_message(lambda *a: None)
        from repro.simnet import FlowTag

        net.host(0).send(3, 50_000, tag=FlowTag(1, 0))
        net.run()
        record = collectors[3].finalize(net.now)
        results.append(tuple(sorted(record.port_bytes.items())))
    assert results[0] != results[1]


def test_pfc_requires_finite_queues():
    with pytest.raises(ValueError):
        Network(ClosSpec(n_leaves=2, n_spines=2), seed=0, enable_pfc=True)


def test_pfc_controllers_wired_per_fabric_link():
    spec = ClosSpec(n_leaves=2, n_spines=2)
    net = Network(spec, seed=0, queue_capacity=1 << 20, enable_pfc=True)
    assert len(net.pfc_controllers) == 2 * spec.n_leaves * spec.n_spines


def test_double_injection_rejected():
    net = Network(ClosSpec(n_leaves=2, n_spines=2), seed=0)
    net.inject_fault(down_link(0, 1), DropFault(0.1))
    with pytest.raises(ValueError):
        net.inject_fault(down_link(0, 1), DropFault(0.2))


def test_replace_known_fault_with_silent_reenables_routing():
    # The nastiest gray-failure shape: a cleanly failed (known, routed
    # around) cable comes back half-alive. Routing must re-admit it.
    net = Network(ClosSpec(n_leaves=2, n_spines=2), seed=0)
    link = up_link(0, 1)
    net.inject_fault(link, DisconnectFault(known=True))
    assert link in net.control.known_disabled
    net.inject_fault(link, DropFault(0.3), replace=True)
    assert link not in net.control.known_disabled
    assert isinstance(net.injector.fault_on(link), DropFault)


def test_mid_run_inject_then_heal_round_trip():
    from repro.simnet import FlowTag

    net = Network(
        ClosSpec(n_leaves=2, n_spines=2), seed=0, mtu=1000, spray="round_robin"
    )
    link = up_link(0, 0)
    done = []
    net.host(1).on_message(lambda *a: done.append(a))
    net.host(0).send(1, 200_000, tag=FlowTag(1, 0))
    # Fault appears while packets are in flight, heals later.
    net.sim.schedule_at(1_000, net.inject_fault, link, DropFault(1.0))
    net.sim.schedule_at(500_000, net.heal_fault, link)
    net.run()
    assert done, "message must complete despite the mid-run fault window"
    assert net.link(link).faulted_packets > 0
    assert net.injector.fault_on(link) is None
    assert net.host(0).transport.failed_messages == 0


def test_spraying_excludes_known_fault_until_heal():
    from repro.simnet import FlowTag

    net = Network(
        ClosSpec(n_leaves=2, n_spines=2), seed=0, mtu=1000, spray="round_robin"
    )
    link = up_link(0, 0)
    net.host(1).on_message(lambda *a: None)
    net.inject_fault(link, DisconnectFault(known=True))
    net.host(0).send(1, 50_000, tag=FlowTag(1, 0))
    net.run()
    # Known-disabled: the spray policy never offers this uplink.
    assert net.link(link).tx_packets == 0
    assert net.link(up_link(0, 1)).tx_packets > 0

    net.heal_fault(link)
    net.host(0).send(1, 50_000, tag=FlowTag(1, 1))
    net.run()
    assert net.link(link).tx_packets > 0


@pytest.mark.parametrize("enable_pfc", [False, True])
def test_small_switch_buffers_do_not_bound_the_nic_queue(enable_pfc):
    # A ring step hands each NIC 30 kB at once, far more than an 8 kB
    # switch buffer.  The NIC queue lives in host memory: were it
    # bounded, the refused packets would never reach the wire, where
    # their retransmission timers start, and the collective would stall.
    from repro.collectives import (
        StagedCollectiveRunner,
        locality_optimized_ring,
        ring_reduce_scatter_stages,
    )

    spec = ClosSpec(4, 2)
    net = Network(spec, seed=5, mtu=512, queue_capacity=8192, enable_pfc=enable_pfc)
    stages = ring_reduce_scatter_stages(locality_optimized_ring(spec.n_hosts), 120_000)
    StagedCollectiveRunner(net, 1, stages, iterations=2).run()
    assert all(net.host(h).transport.inflight_messages == 0 for h in range(4))
    assert all(link.overflow_packets == 0 for link in net.links.values())
    assert net.link(host_up_link(0)).queue.peak_bytes > 8192
    assert net.link(up_link(0, 0)).queue.capacity_bytes == 8192
