"""Packet and flow-tag definitions.

FlowPulse proposes tagging the packets of the monitored collective with
a ``flow_id`` that combines a sentinel value with the iteration number
(paper §5.1).  :class:`FlowTag` is that identifier; switches use it to
decide which packets to count and to delimit iteration windows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum


class PacketKind(Enum):
    """What a packet carries; only DATA contributes to measured volume."""

    DATA = "data"
    ACK = "ack"
    PROBE = "probe"
    PAUSE = "pause"
    RESUME = "resume"


class Priority(Enum):
    """Traffic priority classes (paper §5.1: the measured collective is
    prioritized to isolate it from background traffic)."""

    BACKGROUND = 0
    NORMAL = 1
    MEASURED = 2  # the tagged, prioritized collective
    CONTROL = 3  # ACKs / PFC frames

    def __lt__(self, other: "Priority") -> bool:
        if not isinstance(other, Priority):
            return NotImplemented
        return self.value < other.value


@dataclass(frozen=True, order=True)
class FlowTag:
    """Identifier carried by every packet of a monitored collective.

    ``job_id`` plays the role of the paper's sentinel value: switches
    are configured to measure flows of a given job, and ``iteration``
    lets them detect when one instance of the collective ends and the
    next begins.
    """

    job_id: int
    iteration: int
    collective: str = "allreduce"

    def next_iteration(self) -> "FlowTag":
        """Tag for the following training iteration of the same job."""
        return FlowTag(self.job_id, self.iteration + 1, self.collective)


#: Size of an acknowledgement packet in bytes.
ACK_SIZE = 64


#: Ids of packets built without one (tests, examples).  A network
#: numbers its own packets from a counter its transports share, so a
#: run's ids do not depend on what else the process simulated before.
_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """A simulated packet.

    ``src_host``/``dst_host`` are global host indices.  ``seq`` is the
    per-message sequence number used by the reliable transport, and
    ``msg_id`` identifies the message the packet belongs to.
    """

    src_host: int
    dst_host: int
    size: int
    kind: PacketKind = PacketKind.DATA
    priority: Priority = Priority.NORMAL
    tag: FlowTag | None = None
    msg_id: int = 0
    seq: int = 0
    msg_packets: int = 1  # packets in the message this one belongs to
    retransmission: int = 0  # how many times this seq was re-sent
    #: ECN congestion-experienced mark, set by a queue above its marking
    #: threshold; echoed back to the sender in the ACK.
    ecn: bool = False
    pid: int = field(default_factory=_packet_ids.__next__)
    path: list[str] = field(default_factory=list)

    def hop(self, link_name: str) -> None:
        """Record traversal of a link (used by traces and tests)."""
        self.path.append(link_name)

    @property
    def is_data(self) -> bool:
        return self.kind is PacketKind.DATA

    def make_ack(self, pid: int | None = None) -> "Packet":
        """Build the acknowledgement for this data packet.

        The ACK echoes the data packet's ECN mark (the congestion
        notification of :mod:`repro.simnet.congestion`).  ``pid`` is
        the ACK's id; without one it is drawn like a directly built
        packet's.
        """
        return Packet(
            src_host=self.dst_host,
            dst_host=self.src_host,
            size=ACK_SIZE,
            kind=PacketKind.ACK,
            priority=Priority.CONTROL,
            tag=self.tag,
            msg_id=self.msg_id,
            seq=self.seq,
            ecn=self.ecn,
            pid=next(_packet_ids) if pid is None else pid,
        )

    def flow_key(self) -> tuple:
        """Key used by hash-based (ECMP) load balancing."""
        return (self.src_host, self.dst_host, self.msg_id)
