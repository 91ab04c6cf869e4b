"""Egress queues.

Switches in the modelled fabric are output-queued: each egress port owns
a priority-aware byte queue drained by its link at line rate.  The
fabric is lossless (paper §2) — queues never drop; backpressure is
exerted through PFC (see :mod:`repro.simnet.pfc`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Collection

from .packet import Packet, PacketKind, Priority

#: Priorities from most to least urgent, the drain order of the queue.
_DRAIN_ORDER = sorted(Priority, key=lambda p: p.value, reverse=True)
#: Their integer values, the keys lanes are stored under (see ``push``).
_DRAIN_VALUES = [p.value for p in _DRAIN_ORDER]


class PriorityByteQueue:
    """A strict-priority queue of packets with byte accounting.

    ``on_backlog_change(bytes_used)`` fires after every push/pop so PFC
    watermarks can react.

    With ``ecn_threshold_bytes`` set, DATA packets enqueued while the
    backlog (including the new packet) is at or above the threshold are
    marked congestion-experienced — the switch side of the ECN loop in
    :mod:`repro.simnet.congestion`.  ``None`` (the default) disables
    marking entirely; the push path is then identical to a queue built
    before ECN existed.
    """

    def __init__(
        self,
        capacity_bytes: int | None = None,
        on_backlog_change: Callable[[int], None] | None = None,
        ecn_threshold_bytes: int | None = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive or None")
        if ecn_threshold_bytes is not None and ecn_threshold_bytes <= 0:
            raise ValueError("ECN threshold must be positive or None")
        self.capacity_bytes = capacity_bytes
        self.on_backlog_change = on_backlog_change
        self.ecn_threshold_bytes = ecn_threshold_bytes
        # Lanes are keyed by the priority's integer value and walked
        # through ``_drain``: ``Enum.__hash__`` is a Python-level call,
        # and push and pop run once per packet per hop.
        lanes: list[deque[Packet]] = [deque() for _ in _DRAIN_ORDER]
        self._lanes = dict(zip(_DRAIN_VALUES, lanes))
        self._drain = tuple(zip(_DRAIN_ORDER, lanes))
        self._bytes = 0
        self._packets = 0
        self.peak_bytes = 0
        self.ecn_marked = 0

    # ------------------------------------------------------------------
    def push(self, packet: Packet) -> bool:
        """Enqueue; returns False if the queue is at capacity."""
        if (
            self.capacity_bytes is not None
            and self._bytes + packet.size > self.capacity_bytes
        ):
            return False
        self._lanes[packet.priority._value_].append(packet)
        self._bytes += packet.size
        self._packets += 1
        if self._bytes > self.peak_bytes:
            self.peak_bytes = self._bytes
        if (
            self.ecn_threshold_bytes is not None
            and self._bytes >= self.ecn_threshold_bytes
            and packet.kind is PacketKind.DATA
            and not packet.ecn
        ):
            packet.ecn = True
            self.ecn_marked += 1
        if self.on_backlog_change is not None:
            self.on_backlog_change(self._bytes)
        return True

    def pop(self, skip_priorities: Collection[Priority] = ()) -> Packet | None:
        """Dequeue the head packet of the highest non-skipped priority."""
        if not self._packets:  # a link polls its queue after every packet
            return None
        for priority, lane in self._drain:
            # An empty skip collection (no PFC pause in force) must not
            # cost a membership test, which would hash the enum.
            if lane and not (skip_priorities and priority in skip_priorities):
                packet = lane.popleft()
                self._bytes -= packet.size
                self._packets -= 1
                if self.on_backlog_change is not None:
                    self.on_backlog_change(self._bytes)
                return packet
        return None

    def peek_priority(self, skip_priorities: Collection[Priority] = ()) -> Priority | None:
        """Priority of the packet :meth:`pop` would return, or None."""
        for priority, lane in self._drain:
            if lane and not (skip_priorities and priority in skip_priorities):
                return priority
        return None

    # ------------------------------------------------------------------
    @property
    def bytes_used(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return self._packets

    def __bool__(self) -> bool:
        return self._packets > 0
