"""Unidirectional links.

A :class:`Link` models the egress port + wire between two adjacent
nodes: it owns the egress queue, serializes packets at line rate,
applies propagation delay, and consults the fault injector at delivery
time.  Silent faults drop packets here *without* touching any switch
counter — exactly the failure FlowPulse is designed to surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .engine import Simulator
from .faults import FaultInjector
from .packet import Packet, Priority
from .queues import PriorityByteQueue
from ..units import transmission_time_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .trace import Tracer


class Node:
    """Anything a link can deliver packets to (switch or host)."""

    name: str = "node"

    def receive(self, packet: Packet, link: "Link") -> None:
        raise NotImplementedError


class Link:
    """A unidirectional link with an output queue and optional fault.

    Packets are pushed with :meth:`enqueue`.  The link drains its queue
    in strict priority order at ``rate_bps``, delivers after
    ``prop_delay_ns``, and silently discards packets the injected fault
    decides to drop.  ``paused`` priorities (PFC) are held in the queue
    but not transmitted.

    An idle link starts a packet without pushing and popping it when
    that round trip would change nothing; see :meth:`enqueue`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dst: Node,
        rate_bps: int,
        prop_delay_ns: int,
        rng: np.random.Generator,
        injector: FaultInjector | None = None,
        queue_capacity: int | None = None,
        tracer: "Tracer | None" = None,
        telemetry=None,
        ecn_threshold_bytes: int | None = None,
    ) -> None:
        if prop_delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.name = name
        self.dst = dst
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.rng = rng
        self.tracer = tracer
        #: Optional telemetry session (duck-typed).  Only the *rare*
        #: outcomes — fault drops, queue overflows — emit inline; the
        #: per-packet tx/rx path stays a pointer comparison when off.
        self.telemetry = telemetry
        self.queue = PriorityByteQueue(
            capacity_bytes=queue_capacity,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
        #: The smallest packet a push onto the empty queue would refuse
        #: (capacity) or could mark (ECN): such packets never skip it.
        bypass_below = 1 << 62
        if queue_capacity is not None:
            bypass_below = queue_capacity + 1
        if ecn_threshold_bytes is not None:
            bypass_below = min(bypass_below, ecn_threshold_bytes)
        self._bypass_below = bypass_below
        #: Serialization time per packet size (a fabric sends few sizes).
        self._tx_ns: dict[int, int] = {}
        #: The injector's live link-name -> fault table.
        self._faults = injector.faults if injector is not None else {}
        self._busy = False
        self._paused: set[Priority] = set()
        #: Optional hook fired when a packet finishes serialization;
        #: the reliable transport uses it to start retransmission timers.
        self.on_tx_done: Callable[[Packet], None] | None = None

        # Statistics.
        self.tx_packets = 0
        self.tx_bytes = 0
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.faulted_packets = 0
        self.faulted_bytes = 0
        self.overflow_packets = 0

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission; False on queue overflow.

        On an idle link with an empty queue and no paused priority, a
        push would hand the packet straight back to the link.  Unless
        the push would also refuse it (capacity), mark it (ECN) or
        report the backlog (PFC), the packet starts serializing
        directly: the same event, scheduled at the same point, as after
        the round trip.
        """
        queue = self.queue
        if (
            not self._busy
            and not queue._packets
            and packet.size < self._bypass_below
            and not self._paused
            and queue.on_backlog_change is None
        ):
            if packet.size > queue.peak_bytes:
                queue.peak_bytes = packet.size
            self._start(packet)
            return True
        ecn_before = packet.ecn
        if not queue.push(packet):
            self.overflow_packets += 1
            if self.tracer is not None:
                self.tracer.record("overflow", self, packet)
            if self.telemetry is not None:
                self.telemetry.emit(
                    "link.overflow",
                    time_ns=self.sim.now,
                    link=self.name,
                    pid=packet.pid,
                    size=packet.size,
                    queue_bytes=queue.bytes_used,
                    queue_packets=len(queue),
                )
                self.telemetry.counter("link.overflows", link=self.name).inc()
            return False
        if packet.ecn and not ecn_before and self.telemetry is not None:
            self.telemetry.counter("link.ecn_marks", link=self.name).inc()
        if not self._busy:
            self._try_transmit()
        return True

    def _try_transmit(self) -> None:
        if self._busy:
            return
        packet = self.queue.pop(skip_priorities=self._paused)
        if packet is not None:
            self._start(packet)

    def _start(self, packet: Packet) -> None:
        """Begin serializing ``packet``: the one place a link goes busy."""
        self._busy = True
        size = packet.size
        tx_ns = self._tx_ns.get(size)
        if tx_ns is None:
            tx_ns = self._tx_ns[size] = transmission_time_ns(size, self.rate_bps)
        self.sim.schedule(tx_ns, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        self._busy = False
        self.tx_packets += 1
        self.tx_bytes += packet.size
        packet.path.append(self.name)
        if self.tracer is not None:
            self.tracer.record("tx", self, packet)
        if self.on_tx_done is not None:
            self.on_tx_done(packet)
        self.sim.schedule(self.prop_delay_ns, self._deliver, packet)
        if self.queue._packets:
            self._try_transmit()

    def _deliver(self, packet: Packet) -> None:
        fault = self._faults.get(self.name)
        if fault is not None and fault.drops_on(self, packet, self.sim.now, self.rng):
            self.faulted_packets += 1
            self.faulted_bytes += packet.size
            if self.tracer is not None:
                self.tracer.record("drop", self, packet)
            if self.telemetry is not None:
                self.telemetry.emit(
                    "link.drop",
                    time_ns=self.sim.now,
                    link=self.name,
                    pid=packet.pid,
                    src_host=packet.src_host,
                    dst_host=packet.dst_host,
                    size=packet.size,
                    kind=packet.kind.value,
                    seq=packet.seq,
                )
                self.telemetry.counter("link.fault_drops", link=self.name).inc()
            return
        self.delivered_packets += 1
        self.delivered_bytes += packet.size
        if self.tracer is not None:
            self.tracer.record("rx", self, packet)
        self.dst.receive(packet, self)

    # ------------------------------------------------------------------
    # PFC control
    # ------------------------------------------------------------------
    def pause(self, priority: Priority) -> None:
        """PFC pause: stop transmitting packets of ``priority``."""
        self._paused.add(priority)

    def resume(self, priority: Priority) -> None:
        """PFC resume: allow ``priority`` to transmit again."""
        self._paused.discard(priority)
        self._try_transmit()

    @property
    def paused_priorities(self) -> frozenset[Priority]:
        return frozenset(self._paused)

    @property
    def ecn_marked_packets(self) -> int:
        """Packets this link's egress queue marked congestion-experienced."""
        return self.queue.ecn_marked

    @property
    def busy(self) -> bool:
        return self._busy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} q={len(self.queue)}p/{self.queue.bytes_used}B>"
