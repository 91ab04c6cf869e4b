"""Reordering-tolerant reliable transport.

Mimics the paper's evaluation transport (§6): a RoCE-like NIC with
out-of-order writes, no congestion control, and loss recovery through a
retransmission timeout (5 us in the paper).  Packets of one message may
arrive in any order and along any spine; the receiver tracks a sequence
set, acknowledges every packet, and considers the message complete once
every sequence number has landed (the set is then released: any later
packet of the message is a duplicate).

Retransmitted packets re-enter the fabric and are sprayed afresh — the
mechanism behind FlowPulse's observed-volume signature: a drop at rate
*p* on one spine port shows up as a ``p * (1 - 1/s)`` volume deficit on
that port and a small surplus everywhere else.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from .congestion import CongestionConfig, CongestionWindow
from .engine import EventHandle, Simulator
from .packet import FlowTag, Packet, PacketKind, Priority
from ..units import DEFAULT_MTU, MICROSECOND

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host


class TransportError(RuntimeError):
    """Raised on transport misconfiguration or unrecoverable loss."""


@dataclass(frozen=True)
class GiveupPolicy:
    """What happens when a packet exhausts ``max_retransmissions``.

    ``fail_message`` (the default) marks the whole message failed,
    cancels its remaining timers, notifies the host's failure callbacks,
    and keeps the simulation consistent — a black-holed destination
    degrades into reportable failed messages instead of an exception
    unwinding through the event loop (the R2CCL stance: collectives
    must survive link loss via graceful degradation, not crash).

    ``raise_error`` restores the legacy behaviour of raising
    :class:`TransportError` out of the event loop; useful in tests that
    want unrecoverable loss to be impossible to miss.
    """

    mode: str = "fail_message"

    FAIL_MESSAGE = "fail_message"
    RAISE = "raise_error"

    def __post_init__(self) -> None:
        if self.mode not in (self.FAIL_MESSAGE, self.RAISE):
            raise TransportError(f"unknown giveup mode {self.mode!r}")

    @property
    def raises(self) -> bool:
        return self.mode == self.RAISE


@dataclass
class _TxPacketState:
    """Sender-side state for one in-flight sequence number."""

    size: int
    retransmissions: int = 0
    timer: EventHandle | None = None
    #: Whether the packet entered the fabric (congestion window only;
    #: un-emitted packets wait in the transport's send queue).
    emitted: bool = False


@dataclass
class _TxMessage:
    """Sender-side state for one message."""

    msg_id: int
    dst_host: int
    total_bytes: int
    n_packets: int
    tag: FlowTag | None
    priority: Priority
    on_acked: Callable[["_TxMessage"], None] | None = None
    on_failed: Callable[["_TxMessage"], None] | None = None
    pending: dict[int, _TxPacketState] = field(default_factory=dict)
    failed: bool = False
    retransmissions: int = 0

    @property
    def fully_acked(self) -> bool:
        return not self.pending and not self.failed


@dataclass
class _RxMessage:
    """Receiver-side reassembly state for one undelivered message."""

    src_host: int
    msg_id: int
    n_packets: int
    tag: FlowTag | None
    seen: set[int] = field(default_factory=set)
    received_bytes: int = 0

    @property
    def complete(self) -> bool:
        return len(self.seen) >= self.n_packets


#: What a message's receive state collapses to once it is delivered:
#: every sequence number has landed, so any later packet of the message
#: is a duplicate by construction and no per-packet state is kept.
DELIVERED = "delivered"


class ReliableTransport:
    """Per-host reliable message transport over the sprayed fabric.

    One instance is attached to each :class:`~repro.simnet.host.Host`.
    Messages are segmented at ``mtu``; each packet is independently
    acknowledged and independently retransmitted after ``rto_ns``
    (measured from the moment the packet leaves the NIC wire, so host
    queueing does not cause spurious timeouts).
    """

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        mtu: int = DEFAULT_MTU,
        rto_ns: int = 5 * MICROSECOND,
        max_retransmissions: int = 64,
        giveup: GiveupPolicy | None = None,
        telemetry=None,
        congestion: CongestionConfig | None = None,
        *,
        packet_ids: Iterator[int],
    ) -> None:
        if mtu <= 0:
            raise TransportError("mtu must be positive")
        if rto_ns <= 0:
            raise TransportError("rto must be positive")
        self.sim = sim
        self.host = host
        self.mtu = mtu
        self.rto_ns = rto_ns
        self.max_retransmissions = max_retransmissions
        self.giveup = giveup or GiveupPolicy()
        #: Optional telemetry session (duck-typed).  Only loss recovery
        #: emits — RTO firings and message failures — so the lossless
        #: send/ack path carries one pointer comparison per timeout.
        self.telemetry = telemetry
        #: DCQCN-style sender reaction (see
        #: :mod:`repro.simnet.congestion`); ``None`` — the default —
        #: keeps the paper's no-congestion-control transport untouched.
        self.congestion = CongestionWindow(congestion) if congestion else None
        self._send_queue: deque[tuple[int, int]] = deque()
        #: Message ids are per-transport so routing that hashes the flow
        #: key (ECMP, flowlets) is a pure function of the run, not of
        #: how many transports the process created before this one.
        self._msg_ids = itertools.count(1)
        #: Packet ids, for traces and telemetry: a network hands all its
        #: transports one counter, so ids are unique within a run and do
        #: not depend on what the process simulated before it.
        self._next_pid = packet_ids.__next__
        self._tx: dict[int, _TxMessage] = {}
        self._rx: dict[tuple[int, int], _RxMessage | str] = {}
        # Aggregate statistics.
        self.sent_messages = 0
        self.completed_messages = 0
        self.failed_messages = 0
        self.retransmitted_packets = 0
        self.duplicate_packets = 0
        self.ecn_echoed_acks = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_message(
        self,
        dst_host: int,
        size_bytes: int,
        tag: FlowTag | None = None,
        priority: Priority = Priority.NORMAL,
        on_acked: Callable[[_TxMessage], None] | None = None,
        on_failed: Callable[[_TxMessage], None] | None = None,
    ) -> int:
        """Send ``size_bytes`` to ``dst_host``; returns the message id.

        ``on_acked`` fires once every packet has been acknowledged
        (sender-side completion).  ``on_failed`` fires if the message is
        abandoned under the ``fail_message`` giveup policy.
        Receiver-side delivery is reported through the destination
        host's message callbacks.
        """
        if size_bytes <= 0:
            raise TransportError("message size must be positive")
        if dst_host == self.host.index:
            raise TransportError("loopback messages never enter the fabric")
        msg_id = next(self._msg_ids)
        sizes = self._segment(size_bytes)
        message = _TxMessage(
            msg_id=msg_id,
            dst_host=dst_host,
            total_bytes=size_bytes,
            n_packets=len(sizes),
            tag=tag,
            priority=priority,
            on_acked=on_acked,
            on_failed=on_failed,
        )
        self._tx[msg_id] = message
        self.sent_messages += 1
        if self.congestion is None:
            for seq, size in enumerate(sizes):
                message.pending[seq] = _TxPacketState(size=size)
                self._emit(message, seq)
        else:
            for seq, size in enumerate(sizes):
                message.pending[seq] = _TxPacketState(size=size)
                self._queue_emit(message, seq)
        return msg_id

    def _segment(self, size_bytes: int) -> list[int]:
        full, rem = divmod(size_bytes, self.mtu)
        sizes = [self.mtu] * full
        if rem:
            sizes.append(rem)
        return sizes

    def _emit(self, message: _TxMessage, seq: int) -> None:
        state = message.pending[seq]
        packet = Packet(
            src_host=self.host.index,
            dst_host=message.dst_host,
            size=state.size,
            kind=PacketKind.DATA,
            priority=message.priority,
            tag=message.tag,
            msg_id=message.msg_id,
            seq=seq,
            msg_packets=message.n_packets,
            retransmission=state.retransmissions,
            pid=self._next_pid(),
        )
        self.host.uplink.enqueue(packet)

    # ------------------------------------------------------------------
    # Congestion window (only active with a CongestionConfig)
    # ------------------------------------------------------------------
    def _queue_emit(self, message: _TxMessage, seq: int) -> None:
        """Emit now if the window allows, else park in the send queue."""
        if self.congestion.can_send:
            self.congestion.on_send()
            message.pending[seq].emitted = True
            self._emit(message, seq)
        else:
            self._send_queue.append((message.msg_id, seq))

    def _drain_window(self) -> None:
        """Release parked packets into whatever window space opened up.

        Entries whose message was acked or abandoned in the meantime are
        discarded — they never held a window slot.
        """
        congestion = self.congestion
        while self._send_queue and congestion.can_send:
            msg_id, seq = self._send_queue.popleft()
            message = self._tx.get(msg_id)
            if message is None:
                continue
            state = message.pending.get(seq)
            if state is None or state.emitted:
                continue
            congestion.on_send()
            state.emitted = True
            self._emit(message, seq)

    def _release_window_slots(self, message: _TxMessage) -> None:
        """Free the window slots of a failed message's in-flight packets."""
        for state in message.pending.values():
            if state.emitted:
                self.congestion.on_done()
        self._drain_window()

    def on_wire(self, packet: Packet) -> None:
        """NIC callback: a locally-originated packet hit the wire.

        Starts (or restarts) the retransmission timer for DATA packets.
        """
        if packet.kind is not PacketKind.DATA:
            return
        message = self._tx.get(packet.msg_id)
        if message is None:
            return
        state = message.pending.get(packet.seq)
        if state is None:  # acked while queued; timer not needed
            return
        if state.timer is not None:
            state.timer.cancel()
        backoff = self.rto_ns << min(state.retransmissions, 8)
        state.timer = self.sim.schedule(
            backoff, self._on_timeout, message.msg_id, packet.seq
        )

    def _on_timeout(self, msg_id: int, seq: int) -> None:
        message = self._tx.get(msg_id)
        if message is None:
            return
        state = message.pending.get(seq)
        if state is None:
            return  # acked in the meantime
        if state.retransmissions >= self.max_retransmissions:
            self._give_up(message, seq, state)
            return
        state.retransmissions += 1
        state.timer = None
        message.retransmissions += 1
        self.retransmitted_packets += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "transport.rto",
                time_ns=self.sim.now,
                host=self.host.index,
                dst_host=message.dst_host,
                msg_id=msg_id,
                seq=seq,
                retransmission=state.retransmissions,
            )
            self.telemetry.counter(
                "transport.retransmissions", host=str(self.host.index)
            ).inc()
        self._emit(message, seq)

    def _give_up(
        self, message: _TxMessage, seq: int, state: _TxPacketState
    ) -> None:
        """A packet exhausted its retransmission budget: abandon the
        whole message per the configured giveup policy."""
        message.failed = True
        self.failed_messages += 1
        # Cancel every outstanding timer: the message will never
        # complete, and stray timeouts must not keep the event loop (or
        # the fault's link) busy with retransmissions of a dead message.
        for pending_state in message.pending.values():
            if pending_state.timer is not None:
                pending_state.timer.cancel()
                pending_state.timer = None
        del self._tx[message.msg_id]
        if self.congestion is not None:
            # The dead message's in-flight packets vacate the window
            # (its un-emitted ones never held a slot and are discarded
            # lazily by the drain).
            self._release_window_slots(message)
        if self.telemetry is not None:
            self.telemetry.emit(
                "transport.failed",
                time_ns=self.sim.now,
                host=self.host.index,
                dst_host=message.dst_host,
                msg_id=message.msg_id,
                seq=seq,
                retransmissions=state.retransmissions,
                pending_packets=len(message.pending),
            )
            self.telemetry.counter(
                "transport.failures", host=str(self.host.index)
            ).inc()
        if self.giveup.raises:
            raise TransportError(
                f"host {self.host.index}: msg {message.msg_id} seq {seq} "
                f"exceeded {self.max_retransmissions} retransmissions"
            )
        if message.on_failed is not None:
            message.on_failed(message)
        self.host.deliver_failure(
            dst_host=message.dst_host,
            msg_id=message.msg_id,
            tag=message.tag,
            size_bytes=message.total_bytes,
        )

    def on_ack(self, packet: Packet) -> None:
        """Handle an acknowledgement arriving from the fabric."""
        message = self._tx.get(packet.msg_id)
        if message is None:
            return
        state = message.pending.pop(packet.seq, None)
        if state is None:
            return  # duplicate ACK
        if state.timer is not None:
            state.timer.cancel()
        if self.congestion is not None:
            if packet.ecn:
                self.ecn_echoed_acks += 1
                if self.telemetry is not None:
                    self.telemetry.counter(
                        "transport.ecn_echoes", host=str(self.host.index)
                    ).inc()
            if state.emitted:
                self.congestion.on_done()
            self.congestion.on_ack(packet.ecn)
            self._drain_window()
        if message.fully_acked:
            del self._tx[message.msg_id]
            self.completed_messages += 1
            if message.on_acked is not None:
                message.on_acked(message)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_data(self, packet: Packet) -> None:
        """Handle a DATA packet addressed to this host."""
        key = (packet.src_host, packet.msg_id)
        rx = self._rx.get(key)
        if rx is None:
            rx = _RxMessage(
                src_host=packet.src_host,
                msg_id=packet.msg_id,
                n_packets=packet.msg_packets,
                tag=packet.tag,
            )
            self._rx[key] = rx
        if rx is DELIVERED or packet.seq in rx.seen:
            self.duplicate_packets += 1
        else:
            rx.seen.add(packet.seq)
            rx.received_bytes += packet.size
        self.host.uplink.enqueue(packet.make_ack(self._next_pid()))
        if rx is not DELIVERED and rx.complete:
            self._rx[key] = DELIVERED
            self.host.deliver_message(
                src_host=rx.src_host,
                msg_id=rx.msg_id,
                tag=rx.tag,
                size_bytes=rx.received_bytes,
            )

    # ------------------------------------------------------------------
    @property
    def inflight_messages(self) -> int:
        """Messages sent but not yet fully acknowledged."""
        return len(self._tx)
