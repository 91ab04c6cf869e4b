"""Switch-side telemetry counters.

This is the data-plane primitive FlowPulse needs (paper §5.1/§5.3):
per-ingress-port byte counters for packets carrying the monitored
flow tag, broken down by sending leaf so the localizer (Fig. 4) can
compare senders.  Iteration boundaries are detected exactly as the
paper prescribes — a collective is considered finished when the first
packet of the next iteration arrives.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from .packet import FlowTag, Packet


@dataclass(frozen=True)
class IterationRecord:
    """Measured volumes for one collective iteration at one leaf switch.

    ``port_bytes`` maps spine index -> bytes received on the ingress
    port from that spine.  ``sender_bytes`` maps (spine index, sending
    leaf index) -> bytes, the breakdown localization needs.
    """

    leaf: int
    tag: FlowTag
    port_bytes: dict[int, int]
    sender_bytes: dict[tuple[int, int], int]
    start_ns: int
    end_ns: int

    @property
    def total_bytes(self) -> int:
        return sum(self.port_bytes.values())

    def volume_vector(self, n_spines: int) -> list[int]:
        """Per-spine volumes as a dense list of length ``n_spines``."""
        return [self.port_bytes.get(s, 0) for s in range(n_spines)]


class CollectiveCollector:
    """Per-leaf collector of tagged ingress volume (paper §5.1).

    The collector watches DATA packets arriving from spines.  Packets of
    the currently-measured iteration accumulate into counters; the first
    packet of a *later* iteration finalizes the current window and emits
    an :class:`IterationRecord` through ``on_record``.

    The collector is oblivious to stragglers by construction: all
    communication of iteration *k* completes before iteration *k+1*
    starts (synchronous data-parallel training), so closing the window
    at the first *k+1* packet never truncates a measurement.
    """

    def __init__(
        self,
        leaf: int,
        job_id: int,
        on_record: Callable[[IterationRecord], None] | None = None,
    ) -> None:
        self.leaf = leaf
        self.job_id = job_id
        self.on_record = on_record
        self.records: list[IterationRecord] = []
        self._current: FlowTag | None = None
        self._port_bytes: dict[int, int] = defaultdict(int)
        self._sender_bytes: dict[tuple[int, int], int] = defaultdict(int)
        self._window_start = 0
        self._last_arrival = 0

    def observe(self, packet: Packet, spine: int, src_leaf: int, now: int) -> None:
        """Record a tagged DATA packet arriving from ``spine``."""
        if not packet.is_data or packet.tag is None:
            return
        if packet.tag.job_id != self.job_id:
            return
        if self._current is None:
            self._start_window(packet.tag, now)
        elif packet.tag.iteration > self._current.iteration:
            self.finalize(now)
            self._start_window(packet.tag, now)
        elif packet.tag.iteration < self._current.iteration:
            # A straggler packet from an already-closed window; the
            # hardware would miscount it into the current window, and so
            # do we — the detector's threshold absorbs this.
            pass
        self._port_bytes[spine] += packet.size
        self._sender_bytes[(spine, src_leaf)] += packet.size
        self._last_arrival = now

    def finalize(self, now: int) -> IterationRecord | None:
        """Close the current window and emit its record."""
        if self._current is None:
            return None
        record = IterationRecord(
            leaf=self.leaf,
            tag=self._current,
            port_bytes=dict(self._port_bytes),
            sender_bytes=dict(self._sender_bytes),
            start_ns=self._window_start,
            end_ns=now,
        )
        self.records.append(record)
        self._current = None
        self._port_bytes = defaultdict(int)
        self._sender_bytes = defaultdict(int)
        if self.on_record is not None:
            self.on_record(record)
        return record

    def _start_window(self, tag: FlowTag, now: int) -> None:
        self._current = tag
        self._window_start = now

    @property
    def current_iteration(self) -> int | None:
        return None if self._current is None else self._current.iteration


def finalize_iteration(
    collectors: list[CollectiveCollector], iteration: int, start_ns: int, now: int
) -> list[IterationRecord]:
    """Close every leaf's measurement window for ``iteration``.

    Leaves that saw no tagged traffic (all their senders gave up) yield
    an explicit empty record so the detector can flag the missing volume
    instead of never being consulted.
    """
    records = []
    for leaf, collector in enumerate(collectors):
        record = collector.finalize(now)
        if record is None or record.tag.iteration != iteration:
            record = IterationRecord(
                leaf=leaf,
                tag=FlowTag(collector.job_id, iteration),
                port_bytes={},
                sender_bytes={},
                start_ns=start_ns,
                end_ns=now,
            )
        records.append(record)
    return records


@dataclass
class PortCounters:
    """Plain per-port byte/packet counters, as a real switch ASIC keeps.

    These are the counters that *silent* faults do not perturb in a
    telltale way; FlowPulse's collectors above add the tagged-flow
    dimension that makes temporal symmetry checkable.
    """

    rx_bytes: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    rx_packets: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    tx_bytes: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    tx_packets: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def count_rx(self, port: int, size: int) -> None:
        self.rx_bytes[port] += size
        self.rx_packets[port] += 1

    def count_tx(self, port: int, size: int) -> None:
        self.tx_bytes[port] += size
        self.tx_packets[port] += 1

    def totals(self) -> tuple[int, int]:
        """(total rx bytes, total tx bytes) across all ports."""
        return sum(self.rx_bytes.values()), sum(self.tx_bytes.values())
