"""Leaf and spine switches.

Leaves spray upstream traffic per-packet across the control plane's
valid spines; spines forward downstream on the unique link toward the
destination leaf (downstream paths are never sprayed, paper §2).
Leaves also host the FlowPulse collectors, counting tagged ingress
volume per spine port and per sending leaf.
"""

from __future__ import annotations

import numpy as np

from ..topology.graph import ControlPlane, TopologyError
from .counters import CollectiveCollector, PortCounters
from .link import Link, Node
from .packet import Packet
from .spraying import SprayPolicy


class RoutingError(RuntimeError):
    """Raised when a packet cannot be forwarded."""


class LeafSwitch(Node):
    """A leaf (top-of-rack) switch.

    Ports: one downlink per attached host, one uplink per spine.  The
    ingress ports *from* spines are where FlowPulse measures (paper §5:
    they are late in the path and uniquely identify the spine hop).
    """

    def __init__(
        self,
        leaf: int,
        control: ControlPlane,
        policy: SprayPolicy,
        rng: np.random.Generator,
    ) -> None:
        self.leaf = leaf
        self.name = f"leaf{leaf}"
        self.control = control
        self._leaf_of_host = control.spec.host_leaves
        self.policy = policy
        self.rng = rng
        self.uplinks: dict[int, Link] = {}
        #: dst leaf -> (spine tuple, candidate uplinks), valid while the
        #: control plane still hands out that very tuple for the pair.
        self._spray_candidates: dict[int, tuple[tuple[int, ...], list[Link]]] = {}
        self.downlinks: dict[int, Link] = {}
        #: ingress link name -> spine index, for counter attribution
        self._spine_of_link: dict[str, int] = {}
        self.counters = PortCounters()
        self.collectors: list[CollectiveCollector] = []
        self.misrouted_packets = 0

    # ------------------------------------------------------------------
    # Wiring (done by the network builder)
    # ------------------------------------------------------------------
    def attach_uplink(self, spine: int, link: Link) -> None:
        self.uplinks[spine] = link
        self._spray_candidates.clear()

    def attach_downlink(self, host: int, link: Link) -> None:
        self.downlinks[host] = link

    def register_spine_ingress(self, spine: int, link_name: str) -> None:
        """Tell the leaf which ingress link comes from which spine."""
        self._spine_of_link[link_name] = spine

    def add_collector(self, collector: CollectiveCollector) -> None:
        """Install a FlowPulse collector on this switch."""
        self.collectors.append(collector)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Link) -> None:
        spine = self._spine_of_link.get(link.name)
        if spine is not None:
            self.counters.count_rx(spine, packet.size)
            src_leaf = self._leaf_of_host[packet.src_host]
            now = link.sim.now
            for collector in self.collectors:
                collector.observe(packet, spine, src_leaf, now)
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        dst_leaf = self._leaf_of_host[packet.dst_host]
        if dst_leaf == self.leaf:
            downlink = self.downlinks.get(packet.dst_host)
            if downlink is None:
                self.misrouted_packets += 1
                raise RoutingError(
                    f"{self.name}: no downlink for host {packet.dst_host}"
                )
            downlink.enqueue(packet)
            return
        try:
            spines = self.control.spray_spines(self.leaf, dst_leaf)
        except TopologyError as exc:
            self.misrouted_packets += 1
            raise RoutingError(str(exc)) from exc
        cached = self._spray_candidates.get(dst_leaf)
        if cached is None or cached[0] is not spines:
            cached = (spines, [self.uplinks[s] for s in spines])
            self._spray_candidates[dst_leaf] = cached
        chosen = self.policy.choose(cached[1], packet, self.rng)
        chosen.enqueue(packet)


class SpineSwitch(Node):
    """A spine switch: deterministic downstream forwarding."""

    def __init__(self, spine: int, control: ControlPlane) -> None:
        self.spine = spine
        self.name = f"spine{spine}"
        self.control = control
        self._leaf_of_host = control.spec.host_leaves
        self.downlinks: dict[int, Link] = {}
        self.counters = PortCounters()
        self.misrouted_packets = 0
        #: ``(known_disabled, leaves whose downlink from this spine it
        #: holds)``: the control plane only ever rebinds that immutable
        #: set, so the leaves are recomputed only when its identity moves.
        self._down_memo: tuple = (None, frozenset())

    def attach_downlink(self, leaf: int, link: Link) -> None:
        self.downlinks[leaf] = link

    def _refresh_down_memo(self) -> tuple:
        control = self.control
        leaves = range(control.spec.n_leaves)
        self._down_memo = (
            control.known_disabled,
            frozenset(leaf for leaf in leaves if not control.down_ok(self.spine, leaf)),
        )
        return self._down_memo

    def receive(self, packet: Packet, link: Link) -> None:
        src_leaf = self._leaf_of_host[packet.src_host]
        self.counters.count_rx(src_leaf, packet.size)
        dst_leaf = self._leaf_of_host[packet.dst_host]
        downlink = self.downlinks.get(dst_leaf)
        if downlink is None:
            self.misrouted_packets += 1
            raise RoutingError(f"{self.name}: no downlink for leaf {dst_leaf}")
        # A leaf should never spray onto a spine whose downstream link to
        # the destination is known-down; if it happens the packet is
        # black-holed, which the misroute counter makes visible in tests.
        memo = self._down_memo
        if memo[0] is not self.control.known_disabled:
            memo = self._refresh_down_memo()
        if dst_leaf in memo[1]:
            self.misrouted_packets += 1
            return
        self.counters.count_tx(dst_leaf, packet.size)
        downlink.enqueue(packet)
