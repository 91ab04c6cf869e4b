"""Tests for link serialization, delivery, faults, and pausing."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.simnet import (
    DropFault,
    FaultInjector,
    Link,
    Node,
    Packet,
    Priority,
    Simulator,
    Tracer,
)


class Sink(Node):
    """Records deliveries."""

    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet, link):
        self.received.append((packet, link.sim.now))


def make_link(
    rate_bps=8 * units.GBPS, prop=100, injector=None, capacity=None, tracer=None, ecn=None
):
    sim = Simulator()
    sink = Sink()
    rng = np.random.Generator(np.random.PCG64(0))
    link = Link(
        sim,
        "test-link",
        sink,
        rate_bps,
        prop,
        rng,
        injector=injector,
        queue_capacity=capacity,
        tracer=tracer,
        ecn_threshold_bytes=ecn,
    )
    return sim, link, sink


def _pkt(size=1000, priority=Priority.NORMAL):
    return Packet(src_host=0, dst_host=1, size=size, priority=priority)


def test_delivery_time_is_serialization_plus_propagation():
    sim, link, sink = make_link(rate_bps=8 * units.GBPS, prop=100)
    link.enqueue(_pkt(size=1000))  # 1000 B at 8 Gbps = 1000 ns
    sim.run()
    assert len(sink.received) == 1
    _, t = sink.received[0]
    assert t == 1000 + 100


def test_back_to_back_packets_serialize_sequentially():
    sim, link, sink = make_link(rate_bps=8 * units.GBPS, prop=0)
    link.enqueue(_pkt(size=1000))
    link.enqueue(_pkt(size=1000))
    sim.run()
    times = [t for _, t in sink.received]
    assert times == [1000, 2000]


def test_higher_priority_jumps_queue():
    sim, link, sink = make_link(prop=0)
    first = _pkt()
    low = _pkt(priority=Priority.BACKGROUND)
    high = _pkt(priority=Priority.MEASURED)
    link.enqueue(first)  # starts transmitting immediately
    link.enqueue(low)
    link.enqueue(high)
    sim.run()
    order = [p for p, _ in sink.received]
    assert order == [first, high, low]


def test_path_records_link_name():
    sim, link, sink = make_link()
    link.enqueue(_pkt())
    sim.run()
    packet, _ = sink.received[0]
    assert packet.path == ["test-link"]


def test_fault_drops_silently():
    injector = FaultInjector()
    injector.inject("test-link", DropFault(1.0))
    sim, link, sink = make_link(injector=injector)
    link.enqueue(_pkt())
    sim.run()
    assert sink.received == []
    assert link.faulted_packets == 1
    assert link.tx_packets == 1  # the sender-side counter still ticks


def test_fault_on_other_link_does_not_apply():
    injector = FaultInjector()
    injector.inject("other-link", DropFault(1.0))
    sim, link, sink = make_link(injector=injector)
    link.enqueue(_pkt())
    sim.run()
    assert len(sink.received) == 1


def test_partial_fault_drops_expected_fraction(rng):
    injector = FaultInjector()
    injector.inject("test-link", DropFault(0.3))
    sim, link, sink = make_link(injector=injector)
    n = 2000
    for _ in range(n):
        link.enqueue(_pkt(size=100))
    sim.run()
    dropped = link.faulted_packets
    assert dropped + len(sink.received) == n
    assert 0.25 * n < dropped < 0.35 * n


def test_statistics_accumulate():
    sim, link, sink = make_link()
    link.enqueue(_pkt(size=300))
    link.enqueue(_pkt(size=700))
    sim.run()
    assert link.tx_packets == 2
    assert link.tx_bytes == 1000
    assert link.delivered_packets == 2
    assert link.delivered_bytes == 1000


def test_queue_overflow_counts():
    sim, link, sink = make_link(capacity=1500)
    assert link.enqueue(_pkt(size=1000))  # immediately starts transmitting
    assert link.enqueue(_pkt(size=1000))  # queued
    # Queue holds 1000 (first left it); this one exceeds capacity.
    assert not link.enqueue(_pkt(size=1000))
    assert link.overflow_packets == 1


def test_pause_holds_priority():
    sim, link, sink = make_link(prop=0)
    link.pause(Priority.NORMAL)
    link.enqueue(_pkt())
    sim.run()
    assert sink.received == []
    link.resume(Priority.NORMAL)
    sim.run()
    assert len(sink.received) == 1


def test_pause_does_not_block_other_priorities():
    sim, link, sink = make_link(prop=0)
    link.pause(Priority.NORMAL)
    link.enqueue(_pkt(priority=Priority.NORMAL))
    link.enqueue(_pkt(priority=Priority.CONTROL))
    sim.run()
    assert [p.priority for p, _ in sink.received] == [Priority.CONTROL]


def test_pause_is_idempotent_and_tracked():
    _, link, _ = make_link()
    link.pause(Priority.NORMAL)
    link.pause(Priority.NORMAL)
    assert link.paused_priorities == frozenset({Priority.NORMAL})
    link.resume(Priority.NORMAL)
    assert link.paused_priorities == frozenset()


def test_on_tx_done_hook_fires_at_wire_time():
    sim, link, sink = make_link(rate_bps=8 * units.GBPS, prop=100)
    wire_times = []
    link.on_tx_done = lambda p: wire_times.append(sim.now)
    link.enqueue(_pkt(size=1000))
    sim.run()
    assert wire_times == [1000]  # before propagation completes


def test_tracer_records_tx_rx():
    tracer = Tracer()
    sim, link, sink = make_link(tracer=tracer)
    link.enqueue(_pkt())
    sim.run()
    assert tracer.counts["tx"] == 1
    assert tracer.counts["rx"] == 1


def test_tracer_records_drops():
    injector = FaultInjector()
    injector.inject("test-link", DropFault(1.0))
    tracer = Tracer()
    sim, link, sink = make_link(injector=injector, tracer=tracer)
    link.enqueue(_pkt())
    sim.run()
    assert tracer.counts["drop"] == 1
    assert len(tracer.drops()) == 1


def test_negative_propagation_rejected():
    sim = Simulator()
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError):
        Link(sim, "bad", Sink(), units.GBPS, -5, rng)


# ----------------------------------------------------------------------
# The idle bypass: a packet the empty queue would hand straight back
# starts at once — unless the push would refuse, mark or report it.
# ----------------------------------------------------------------------
def test_idle_link_starts_a_packet_without_queueing_it():
    sim, link, sink = make_link(prop=0)
    assert link.enqueue(_pkt(size=1000))
    assert link.busy and len(link.queue) == 0
    assert link.queue.peak_bytes == 1000  # as if it had been pushed
    sim.run()
    assert [t for _, t in sink.received] == [1000]


@pytest.mark.parametrize("capacity, accepted", [(999, False), (1000, True)])
def test_idle_link_still_refuses_what_its_queue_cannot_hold(capacity, accepted):
    sim, link, sink = make_link(capacity=capacity)
    assert link.enqueue(_pkt(size=1000)) is accepted
    assert link.overflow_packets == (0 if accepted else 1)
    sim.run()
    assert len(sink.received) == int(accepted)


@pytest.mark.parametrize("threshold, marked", [(1000, True), (1001, False)])
def test_idle_link_marks_a_packet_at_the_ecn_threshold(threshold, marked):
    sim, link, sink = make_link(ecn=threshold)
    packet = _pkt(size=1000)
    link.enqueue(packet)
    assert packet.ecn is marked
    assert link.ecn_marked_packets == int(marked)


def test_idle_link_reports_backlog_to_pfc():
    sim, link, sink = make_link()
    backlogs = []
    link.queue.on_backlog_change = backlogs.append
    link.enqueue(_pkt(size=1000))
    assert backlogs == [1000, 0]  # pushed, then popped onto the wire


def test_serialization_time_follows_packet_size():
    sim, link, sink = make_link(rate_bps=8 * units.GBPS, prop=0)
    for size in (1000, 64, 1000, 300):
        link.enqueue(_pkt(size=size))
    sim.run()
    assert [t for _, t in sink.received] == [1000, 1064, 2064, 2364]
