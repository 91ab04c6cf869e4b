"""Tests for leaf/spine switch routing over the network builder."""

from __future__ import annotations

import pytest

from repro.simnet import DisconnectFault, FlowTag, Network, Packet, Tracer
from repro.simnet.spraying import RandomSpray
from repro.simnet.switch import RoutingError
from repro.topology import ClosSpec, down_link, host_up_link, up_link


def make_net(n_leaves=4, n_spines=2, hosts_per_leaf=1, **kwargs):
    spec = ClosSpec(n_leaves=n_leaves, n_spines=n_spines, hosts_per_leaf=hosts_per_leaf)
    return Network(spec, seed=11, **kwargs)


def test_local_delivery_stays_under_leaf():
    tracer = Tracer()
    net = make_net(n_leaves=2, hosts_per_leaf=2, tracer=tracer)
    done = []
    net.host(1).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(1, 1000)  # hosts 0 and 1 share leaf 0
    net.run()
    assert done == [1000]
    fabric_hops = [
        e for e in tracer.events if e.link.startswith(("up:", "down:")) and e.event == "rx"
    ]
    assert fabric_hops == []  # never crossed the spine layer


def test_remote_delivery_crosses_exactly_one_spine():
    tracer = Tracer()
    net = make_net(tracer=tracer)
    done = []
    net.host(3).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(3, 1000)
    net.run()
    assert done == [1000]
    data_rx = [
        e
        for e in tracer.events
        if e.kind == "data" and e.event == "rx" and e.link.startswith("up:")
    ]
    assert len(data_rx) == 1  # one packet, one spine crossing


def test_spraying_uses_all_valid_spines():
    tracer = Tracer()
    net = make_net(n_spines=2, mtu=1000, tracer=tracer)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 100_000)
    net.run()
    spines_used = {
        e.link
        for e in tracer.events
        if e.kind == "data" and e.event == "rx" and e.link.startswith("up:")
    }
    assert spines_used == {up_link(0, 0), up_link(0, 1)}


def test_known_disabled_uplink_never_used():
    dead = up_link(0, 0)
    tracer = Tracer()
    net = make_net(known_disabled=frozenset({dead}), mtu=1000, tracer=tracer)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 50_000)
    net.run()
    used = {e.link for e in tracer.events if e.event == "tx" and e.link == dead}
    assert used == set()


def test_known_disabled_downlink_excludes_spine_for_that_leaf_only():
    dead = down_link(0, 3)  # spine 0 cannot reach leaf 3
    tracer = Tracer()
    net = make_net(known_disabled=frozenset({dead}), mtu=1000, tracer=tracer)
    for h in (2, 3):
        net.host(h).on_message(lambda *a: None)
    net.host(0).send(3, 30_000)  # must avoid spine 0
    net.host(0).send(2, 30_000)  # may still use spine 0
    net.run()
    to_l3_via_s0 = [
        e for e in tracer.events if e.event == "tx" and e.link == dead
    ]
    assert to_l3_via_s0 == []
    to_l2_via_s0 = [
        e
        for e in tracer.events
        if e.event == "tx" and e.link == down_link(0, 2) and e.kind == "data"
    ]
    assert to_l2_via_s0  # spine 0 still serves leaf 2


def test_leaf_ingress_counters_attribute_spine_and_sender():
    net = make_net()
    collectors = net.install_collectors(job_id=1)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 10_000, tag=FlowTag(1, 0))
    net.run()
    record = collectors[3].finalize(net.now)
    assert record.total_bytes == 10_000
    assert all(src == 0 for (_spine, src) in record.sender_bytes)


def test_collector_only_on_its_leaf():
    net = make_net()
    collectors = net.install_collectors(job_id=1)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 10_000, tag=FlowTag(1, 0))
    net.run()
    net.finalize_collectors()
    assert collectors[3].records and collectors[3].records[0].total_bytes == 10_000
    for leaf in (0, 1, 2):
        assert collectors[leaf].records == []


def test_rx_counters_on_spine_track_source_leaf():
    net = make_net()
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 10_000)
    net.run()
    total_spine_rx = sum(
        sum(s.counters.rx_bytes.values()) for s in net.spines
    )
    assert total_spine_rx >= 10_000  # data (plus maybe ACKs of data)


def test_misroute_counter_when_stray_packet_hits_disabled_downlink():
    # Force the condition by disabling the link *after* routing decided:
    # inject a disconnect without telling the control plane, then mark it
    # known on the spine's control only.
    net = make_net(mtu=1000)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 5_000)
    # Disable on the shared control plane mid-flight is racy by design;
    # here we disable before running so every sprayed packet to S0 is
    # counted as misrouted at the spine.
    net.control.disable(down_link(0, 3))
    net.run()
    # Leaf avoided S0 entirely (control plane is shared), so no misroutes.
    assert net.spine(0).misrouted_packets == 0


def test_spine_black_holes_packets_for_a_known_down_link_until_enabled():
    # The spine's down-link check follows every rebind of known_disabled.
    net = make_net()
    spine, ingress = net.spine(0), net.link(up_link(0, 0))
    downlink = net.link(down_link(0, 3))

    def send():
        spine.receive(Packet(src_host=0, dst_host=3, size=100), ingress)

    send()
    assert (spine.misrouted_packets, downlink.queue.peak_bytes) == (0, 100)
    net.control.disable(down_link(0, 3))
    send()
    net.control.disable(down_link(1, 2))
    send()
    assert spine.misrouted_packets == 2
    net.control.enable(down_link(0, 3))
    send()
    assert spine.misrouted_packets == 2
    assert spine.counters.tx_bytes[3] == 200


def test_unknown_link_fault_injection_rejected():
    net = make_net()
    with pytest.raises(KeyError):
        net.inject_fault("up:L99->S0", DisconnectFault())


class OfferRecorder(RandomSpray):
    """Random spraying that remembers the candidate set of every choice."""

    def __init__(self):
        self.offers = []  # (time_ns, [uplink names])

    def choose(self, candidates, packet, rng):
        self.offers.append((candidates[0].sim.now, [link.name for link in candidates]))
        return super().choose(candidates, packet, rng)


def test_first_packet_after_midrun_disable_sprays_only_on_valid_uplinks():
    policy = OfferRecorder()
    net = make_net(mtu=500, spray=policy)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 40_000)
    disable_at = 600  # leaf 0 is mid-message (it sprays from ~60 to ~1200 ns)
    net.sim.schedule_at(disable_at, net.control.disable, up_link(0, 1))
    net.run()
    both = [up_link(0, 0), up_link(0, 1)]
    from_leaf0 = [(t, names) for t, names in policy.offers if names[0] in both]
    before = [names for t, names in from_leaf0 if t < disable_at]
    after = [names for t, names in from_leaf0 if t >= disable_at]
    assert len(before) > 10 and len(after) > 10
    assert all(names == both for names in before)
    assert all(names == [up_link(0, 0)] for names in after)
    # Leaf 3 (the ACK path) lost nothing and keeps both uplinks.
    from_leaf3 = [names for _t, names in policy.offers if names[0] == up_link(3, 0)]
    assert from_leaf3 and all(len(names) == 2 for names in from_leaf3)


def test_candidates_follow_enable_exclude_and_readmit():
    policy = OfferRecorder()
    net = make_net(n_spines=3, spray=policy)
    leaf, ingress = net.leaf(0), net.link(host_up_link(0))

    def offered():
        leaf.receive(Packet(src_host=0, dst_host=3, size=100), ingress)
        return policy.offers[-1][1]

    everything = [up_link(0, s) for s in range(3)]
    assert offered() == everything
    net.control.disable(down_link(1, 3))
    assert offered() == [up_link(0, 0), up_link(0, 2)]
    net.control.exclude_from_spray(up_link(0, 0))
    assert offered() == [up_link(0, 2)]
    net.control.enable(down_link(1, 3))
    assert offered() == [up_link(0, 1), up_link(0, 2)]
    net.control.readmit_to_spray(up_link(0, 0))
    assert offered() == everything
    net.control.known_disabled = frozenset({up_link(0, 2)})
    assert offered() == [up_link(0, 0), up_link(0, 1)]


def test_partitioned_destination_raises_routing_error_for_every_packet():
    net = make_net()
    leaf, ingress = net.leaf(0), net.link(host_up_link(0))
    leaf.receive(Packet(src_host=0, dst_host=3, size=100), ingress)  # routable
    net.control.disable(down_link(0, 3), down_link(1, 3))
    for attempt in (1, 2, 3):
        with pytest.raises(RoutingError, match="no valid spine from leaf 0 to leaf 3"):
            leaf.receive(Packet(src_host=0, dst_host=3, size=100), ingress)
        assert leaf.misrouted_packets == attempt
    leaf.receive(Packet(src_host=0, dst_host=2, size=100), ingress)  # others fine
