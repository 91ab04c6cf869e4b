"""Tests for the reliable transport over a real (small) fabric."""

from __future__ import annotations

import pytest

from repro.simnet import DropFault, FlowTag, Network, Priority, TransportError
from repro.simnet.transport import DELIVERED
from repro.topology import ClosSpec


def make_net(**kwargs):
    spec = ClosSpec(n_leaves=2, n_spines=2, hosts_per_leaf=1)
    defaults = dict(seed=3, spray="adaptive")
    defaults.update(kwargs)
    return Network(spec, **defaults)


def test_single_packet_message_delivered():
    net = make_net()
    done = []
    net.host(1).on_message(lambda src, mid, tag, size: done.append((src, size)))
    net.host(0).send(1, 500)
    net.run()
    assert done == [(0, 500)]


def test_multi_packet_message_reassembled():
    net = make_net(mtu=1000)
    done = []
    net.host(1).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(1, 4500)  # 4 full packets + 500B tail
    net.run()
    assert done == [4500]


def test_sender_side_completion_callback():
    net = make_net()
    acked = []
    net.host(0).send(1, 2000, on_acked=lambda msg: acked.append(msg.msg_id))
    net.run()
    assert len(acked) == 1
    assert net.host(0).transport.completed_messages == 1


def test_message_tag_propagates_to_receiver():
    net = make_net()
    tags = []
    net.host(1).on_message(lambda src, mid, tag, size: tags.append(tag))
    tag = FlowTag(job_id=9, iteration=3)
    net.host(0).send(1, 100, tag=tag)
    net.run()
    assert tags == [tag]


def test_loss_recovered_by_retransmission():
    net = make_net(mtu=1000)
    # Half the packets through spine 0's downlink die silently.
    net.inject_fault("down:S0->L1", DropFault(0.5))
    done = []
    net.host(1).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(1, 50_000)
    net.run()
    assert done == [50_000]
    assert net.total_fault_drops() > 0
    assert net.host(0).transport.retransmitted_packets >= net.total_fault_drops()


def test_full_silent_path_failure_recovered_via_respray():
    net = make_net(mtu=1000)
    from repro.simnet import DisconnectFault

    net.inject_fault("down:S0->L1", DisconnectFault(known=False))
    done = []
    net.host(1).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(1, 20_000)
    net.run()
    # Every packet eventually found the healthy spine.
    assert done == [20_000]


def test_duplicates_from_lost_acks_are_deduped():
    net = make_net(mtu=1000)
    # Drop ACKs (and data) crossing back: the reverse direction of the
    # data path is up:L1->S*, used by ACKs from host 1.
    net.inject_fault("up:L1->S0", DropFault(0.4))
    net.inject_fault("up:L1->S1", DropFault(0.4))
    done = []
    net.host(1).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(1, 30_000)
    net.run()
    assert done == [30_000]  # delivered exactly once despite duplicates
    assert net.host(1).transport.duplicate_packets > 0


def test_delivered_messages_keep_no_sequence_state():
    # ACKs die on the way back, so the sender resends packets of
    # messages the receiver already delivered.  Those duplicates are
    # ACKed and counted without the message's sequence set, which is
    # released on delivery: receive state must not grow per packet.
    net = make_net(mtu=1000)
    net.inject_fault("up:L1->S0", DropFault(0.4))
    net.inject_fault("up:L1->S1", DropFault(0.4))
    receiver = net.host(1).transport
    delivered = []
    net.host(1).on_message(
        lambda src, mid, tag, size: delivered.append((size, receiver.duplicate_packets))
    )
    for size in (30_000, 20_000, 7_000):
        net.host(0).send(1, size)
    net.run()
    # Every duplicate (the count is pinned) arrived after its delivery.
    assert delivered == [(30_000, 0), (20_000, 0), (7_000, 0)]
    assert receiver.duplicate_packets == 33
    assert net.host(0).transport.inflight_messages == 0  # all re-ACKed
    assert list(receiver._rx.values()) == [DELIVERED] * 3


def test_message_size_must_be_positive():
    net = make_net()
    with pytest.raises(TransportError):
        net.host(0).send(1, 0)


def test_loopback_rejected():
    net = make_net()
    with pytest.raises(TransportError):
        net.host(0).send(0, 100)


def test_invalid_mtu_rejected():
    with pytest.raises(TransportError):
        make_net(mtu=0)


def black_holed_net(**kwargs):
    """Both spines dead toward host 1: messages can never get through."""
    from repro.simnet import DisconnectFault

    net = make_net(mtu=1000, max_retransmissions=5, **kwargs)
    net.inject_fault("down:S0->L1", DisconnectFault(known=False))
    net.inject_fault("down:S1->L1", DisconnectFault(known=False))
    return net


def test_retransmission_cap_fails_message_gracefully():
    """Regression for the run-aborting TransportError: a silent total
    failure (DisconnectFault(known=False) on every path) degrades into
    a failed message, not an exception through the event loop."""
    net = black_holed_net()
    failures = []
    net.host(0).on_send_failed(
        lambda dst, mid, tag, size: failures.append((dst, size))
    )
    net.host(0).send(1, 1000)
    net.run()  # completes without raising
    transport = net.host(0).transport
    assert failures == [(1, 1000)]
    assert transport.failed_messages == 1
    assert net.host(0).failed_sends == 1
    assert transport.inflight_messages == 0


def test_giveup_cancels_sibling_packet_timers():
    """Abandoning a message cancels the timers of its other pending
    packets: the event queue drains instead of retrying a dead message."""
    net = black_holed_net()
    net.host(0).send(1, 5000)  # five packets, all doomed
    net.run()
    assert net.host(0).transport.failed_messages == 1
    assert net.sim.pending_events == 0


def test_per_message_on_failed_callback():
    net = black_holed_net()
    failed = []
    net.host(0).send(1, 1000, on_failed=lambda msg: failed.append(msg.msg_id))
    net.run()
    assert len(failed) == 1


def test_failed_message_emits_transport_failed_telemetry():
    class Recorder:
        def __init__(self):
            self.events = []

        def emit(self, type_, **fields):
            self.events.append((type_, fields))

        def counter(self, name, **labels):
            return self

        def inc(self, n=1):
            pass

        def histogram(self, name, **kw):
            return self

        def observe(self, v):
            pass

    recorder = Recorder()
    net = black_holed_net(telemetry=recorder)
    net.host(0).send(1, 1000)
    net.run()
    failed = [f for t, f in recorder.events if t == "transport.failed"]
    assert len(failed) == 1
    assert failed[0]["dst_host"] == 1


def test_retransmission_cap_raise_policy_preserved():
    from repro.simnet import GiveupPolicy

    net = black_holed_net(giveup=GiveupPolicy(GiveupPolicy.RAISE))
    net.host(0).send(1, 1000)
    with pytest.raises(TransportError, match="exceeded"):
        net.run()


def test_giveup_policy_rejects_unknown_mode():
    from repro.simnet import GiveupPolicy

    with pytest.raises(TransportError):
        GiveupPolicy("explode")


def test_inflight_accounting():
    net = make_net()
    transport = net.host(0).transport
    net.host(0).send(1, 5000)
    assert transport.inflight_messages == 1
    net.run()
    assert transport.inflight_messages == 0


def test_concurrent_messages_to_different_hosts():
    spec = ClosSpec(n_leaves=4, n_spines=2, hosts_per_leaf=1)
    net = Network(spec, seed=5)
    done = []
    for h in (1, 2, 3):
        net.host(h).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(1, 1000)
    net.host(0).send(2, 2000)
    net.host(0).send(3, 3000)
    net.run()
    assert sorted(done) == [1000, 2000, 3000]


def test_priority_honoured_end_to_end():
    net = make_net()
    order = []
    net.host(1).on_message(lambda src, mid, tag, size: order.append(size))
    # Queue a large low-priority message first, then a small measured one;
    # the measured message overtakes it at the host uplink queue.
    net.host(0).send(1, 400_000, priority=Priority.BACKGROUND)
    net.host(0).send(1, 4_000, priority=Priority.MEASURED)
    net.run()
    assert order == [4_000, 400_000]
