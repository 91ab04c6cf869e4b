"""Packet-level three-level fabric.

Builds a runnable pod-based fat tree from the same simnet components as
the two-level :class:`~repro.simnet.network.Network` — links, hosts,
RoCE-like transport, tagged-flow collectors — with three switch roles:

- :class:`PodLeafSwitch` sprays upstream traffic over the control
  plane's valid pod spines and hosts the leaf-tier collectors;
- :class:`PodSpineSwitch` forwards intra-pod traffic down, sprays
  inter-pod traffic over its valid core group, and hosts the spine-tier
  collectors (ingress ports from cores, attributed to the sending pod);
- :class:`CoreSwitch` forwards down to the destination pod's same-index
  spine (deterministic fat-tree down-routing).

The collective runners in :mod:`repro.collectives.schedule` work on
this network unchanged.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..simnet.counters import CollectiveCollector, PortCounters
from ..simnet.engine import Simulator
from ..simnet.faults import DisconnectFault, FaultInjector, LinkFault
from ..simnet.host import Host
from ..simnet.link import Link, Node
from ..simnet.packet import Packet
from ..simnet.spraying import SprayPolicy, make_policy
from ..simnet.transport import ReliableTransport
from ..topology.graph import host_down_link, host_up_link
from ..units import DEFAULT_MTU, GBPS, MICROSECOND
from .topology import (
    ThreeLevelControlPlane,
    ThreeLevelError,
    ThreeLevelSpec,
    core_down_link,
    core_up_link,
    pod_down_link,
    pod_up_link,
)


class PodLeafSwitch(Node):
    """Leaf switch of one pod."""

    def __init__(self, pod, leaf, control, policy, rng):
        self.pod = pod
        self.leaf = leaf
        self.name = f"leaf{pod}.{leaf}"
        self.control = control
        self.policy = policy
        self.rng = rng
        self.uplinks: dict[int, Link] = {}
        self.downlinks: dict[int, Link] = {}
        self._spine_of_link: dict[str, int] = {}
        self.counters = PortCounters()
        self.collectors: list[CollectiveCollector] = []
        self.misrouted_packets = 0

    def attach_uplink(self, spine, link):
        self.uplinks[spine] = link

    def attach_downlink(self, host, link):
        self.downlinks[host] = link

    def register_spine_ingress(self, spine, link_name):
        self._spine_of_link[link_name] = spine

    def add_collector(self, collector):
        self.collectors.append(collector)

    def receive(self, packet: Packet, link: Link) -> None:
        spine = self._spine_of_link.get(link.name)
        if spine is not None:
            self.counters.count_rx(spine, packet.size)
            spec = self.control.spec
            src_pod, src_leaf = spec.leaf_of_host(packet.src_host)
            src_global = spec.global_leaf(src_pod, src_leaf)
            for collector in self.collectors:
                collector.observe(packet, spine, src_global, link.sim.now)
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        spec = self.control.spec
        dst_pod, dst_leaf = spec.leaf_of_host(packet.dst_host)
        if (dst_pod, dst_leaf) == (self.pod, self.leaf):
            downlink = self.downlinks.get(packet.dst_host)
            if downlink is None:
                self.misrouted_packets += 1
                raise ThreeLevelError(
                    f"{self.name}: no downlink for host {packet.dst_host}"
                )
            downlink.enqueue(packet)
            return
        spines = self.control.leaf_spray_spines(
            self.pod, self.leaf, dst_pod, dst_leaf
        )
        candidates = [self.uplinks[s] for s in spines]
        self.policy.choose(candidates, packet, self.rng).enqueue(packet)


class PodSpineSwitch(Node):
    """Pod-spine switch: down-forwards intra-pod, core-sprays inter-pod."""

    def __init__(self, pod, spine, control, policy, rng):
        self.pod = pod
        self.spine = spine
        self.name = f"spine{pod}.{spine}"
        self.control = control
        self.policy = policy
        self.rng = rng
        self.downlinks: dict[int, Link] = {}  # leaf-in-pod -> link
        self.core_uplinks: dict[int, Link] = {}  # core -> link
        self._core_of_link: dict[str, int] = {}
        self.counters = PortCounters()
        self.collectors: list[CollectiveCollector] = []
        self.misrouted_packets = 0

    def attach_downlink(self, leaf, link):
        self.downlinks[leaf] = link

    def attach_core_uplink(self, core, link):
        self.core_uplinks[core] = link

    def register_core_ingress(self, core, link_name):
        self._core_of_link[link_name] = core

    def add_collector(self, collector):
        self.collectors.append(collector)

    def receive(self, packet: Packet, link: Link) -> None:
        core = self._core_of_link.get(link.name)
        spec = self.control.spec
        src_pod, _src_leaf = spec.leaf_of_host(packet.src_host)
        if core is not None:
            self.counters.count_rx(core, packet.size)
            for collector in self.collectors:
                collector.observe(packet, core, src_pod, link.sim.now)
            self._forward_down(packet)
            return
        dst_pod, _dst_leaf = spec.leaf_of_host(packet.dst_host)
        if dst_pod == self.pod:
            self._forward_down(packet)
            return
        cores = self.control.spine_spray_cores(self.pod, self.spine, dst_pod)
        candidates = [self.core_uplinks[c] for c in cores]
        self.policy.choose(candidates, packet, self.rng).enqueue(packet)

    def _forward_down(self, packet: Packet) -> None:
        dst_pod, dst_leaf = self.control.spec.leaf_of_host(packet.dst_host)
        if dst_pod != self.pod:
            self.misrouted_packets += 1
            raise ThreeLevelError(
                f"{self.name}: packet for pod {dst_pod} cannot go down here"
            )
        downlink = self.downlinks.get(dst_leaf)
        if downlink is None:
            self.misrouted_packets += 1
            raise ThreeLevelError(f"{self.name}: no downlink for leaf {dst_leaf}")
        downlink.enqueue(packet)


class CoreSwitch(Node):
    """Core switch: deterministic down-routing to the destination pod's
    same-index spine."""

    def __init__(self, core, control):
        self.core = core
        self.name = f"core{core}"
        self.control = control
        self.downlinks: dict[int, Link] = {}  # pod -> link
        self.counters = PortCounters()
        self.misrouted_packets = 0

    def attach_downlink(self, pod, link):
        self.downlinks[pod] = link

    def receive(self, packet: Packet, link: Link) -> None:
        spec = self.control.spec
        dst_pod, _dst_leaf = spec.leaf_of_host(packet.dst_host)
        src_pod, _src_leaf = spec.leaf_of_host(packet.src_host)
        self.counters.count_rx(src_pod, packet.size)
        downlink = self.downlinks.get(dst_pod)
        if downlink is None:
            self.misrouted_packets += 1
            raise ThreeLevelError(f"{self.name}: no downlink for pod {dst_pod}")
        downlink.enqueue(packet)


class ThreeLevelNetwork:
    """A fully wired packet-level three-level fabric."""

    def __init__(
        self,
        spec: ThreeLevelSpec,
        seed: int = 0,
        spray: str | SprayPolicy = "round_robin",
        known_disabled: frozenset[str] = frozenset(),
        link_rate_bps: int = 400 * GBPS,
        prop_delay_ns: int = 100,
        mtu: int = DEFAULT_MTU,
        rto_ns: int = 5 * MICROSECOND,
    ) -> None:
        self.spec = spec
        self.sim = Simulator()
        self.injector = FaultInjector()
        self.control = ThreeLevelControlPlane(
            spec, known_disabled=frozenset(known_disabled)
        )
        self.mtu = mtu
        self.link_rate_bps = link_rate_bps
        self.prop_delay_ns = prop_delay_ns

        seq = np.random.SeedSequence(seed)
        fault_seed, *switch_seeds = seq.spawn(
            1 + spec.n_pods * (spec.leaves_per_pod + spec.spines_per_pod)
        )
        self._fault_rng = np.random.Generator(np.random.PCG64(fault_seed))
        policy = make_policy(spray) if isinstance(spray, str) else spray
        seed_iter = iter(switch_seeds)

        self.leaves: dict[tuple[int, int], PodLeafSwitch] = {}
        self.spines: dict[tuple[int, int], PodSpineSwitch] = {}
        self.cores: list[CoreSwitch] = [
            CoreSwitch(c, self.control) for c in range(spec.n_cores)
        ]
        self.hosts: list[Host] = [Host(self.sim, h) for h in range(spec.n_hosts)]
        self.links: dict[str, Link] = {}

        for pod in range(spec.n_pods):
            for leaf in range(spec.leaves_per_pod):
                self.leaves[(pod, leaf)] = PodLeafSwitch(
                    pod,
                    leaf,
                    self.control,
                    policy,
                    np.random.Generator(np.random.PCG64(next(seed_iter))),
                )
            for spine in range(spec.spines_per_pod):
                self.spines[(pod, spine)] = PodSpineSwitch(
                    pod,
                    spine,
                    self.control,
                    policy,
                    np.random.Generator(np.random.PCG64(next(seed_iter))),
                )

        # Pod-internal links.
        for (pod, leaf), leaf_switch in self.leaves.items():
            for spine in range(spec.spines_per_pod):
                spine_switch = self.spines[(pod, spine)]
                up_name = pod_up_link(pod, leaf, spine)
                self._add_link(up_name, spine_switch)
                leaf_switch.attach_uplink(spine, self.links[up_name])
                down_name = pod_down_link(pod, spine, leaf)
                self._add_link(down_name, leaf_switch)
                spine_switch.attach_downlink(leaf, self.links[down_name])
                leaf_switch.register_spine_ingress(spine, down_name)

        # Spine-core links.
        for (pod, spine), spine_switch in self.spines.items():
            for core in spec.cores_of_spine(spine):
                core_switch = self.cores[core]
                up_name = core_up_link(pod, spine, core)
                self._add_link(up_name, core_switch)
                spine_switch.attach_core_uplink(core, self.links[up_name])
                down_name = core_down_link(core, pod, spine)
                self._add_link(down_name, spine_switch)
                core_switch.attach_downlink(pod, self.links[down_name])
                spine_switch.register_core_ingress(core, down_name)

        # Host links + transports (numbering packets from one counter).
        packet_ids = itertools.count()
        for host in self.hosts:
            pod, leaf = spec.leaf_of_host(host.index)
            leaf_switch = self.leaves[(pod, leaf)]
            up_name = host_up_link(host.index)
            self._add_link(up_name, leaf_switch)
            host.attach_uplink(self.links[up_name])
            down_name = host_down_link(host.index)
            self._add_link(down_name, host)
            leaf_switch.attach_downlink(host.index, self.links[down_name])
            host.attach_transport(
                ReliableTransport(
                    self.sim, host, mtu=mtu, rto_ns=rto_ns, packet_ids=packet_ids
                )
            )

        for name in self.control.known_disabled:
            self.injector.inject(name, DisconnectFault(known=True))

    # ------------------------------------------------------------------
    def _add_link(self, name: str, dst: Node) -> None:
        self.links[name] = Link(
            sim=self.sim,
            name=name,
            dst=dst,
            rate_bps=self.link_rate_bps,
            prop_delay_ns=self.prop_delay_ns,
            rng=self._fault_rng,
            injector=self.injector,
        )

    def host(self, index: int) -> Host:
        return self.hosts[index]

    def link(self, name: str) -> Link:
        return self.links[name]

    # ------------------------------------------------------------------
    def inject_fault(self, link_name: str, fault: LinkFault) -> None:
        """Inject a fault; known faults also update the control plane."""
        if link_name not in self.links:
            raise KeyError(f"unknown link {link_name!r}")
        self.injector.inject(link_name, fault)
        if fault.known:
            self.control.known_disabled = self.control.known_disabled | {link_name}

    def install_collectors(
        self, job_id: int
    ) -> tuple[dict[int, CollectiveCollector], dict[tuple[int, int], CollectiveCollector]]:
        """Install tagged-volume collectors at both tiers.

        Returns ``(leaf_collectors, spine_collectors)``: leaf collectors
        are keyed by *global* leaf index, spine collectors by
        ``(pod, spine)``.
        """
        leaf_collectors = {}
        for (pod, leaf), switch in sorted(self.leaves.items()):
            g = self.spec.global_leaf(pod, leaf)
            collector = CollectiveCollector(g, job_id)
            switch.add_collector(collector)
            leaf_collectors[g] = collector
        spine_collectors = {}
        for (pod, spine), switch in sorted(self.spines.items()):
            collector = CollectiveCollector(
                pod * self.spec.spines_per_pod + spine, job_id
            )
            switch.add_collector(collector)
            spine_collectors[(pod, spine)] = collector
        return leaf_collectors, spine_collectors

    def finalize_collectors(self) -> None:
        for switch in list(self.leaves.values()) + list(self.spines.values()):
            for collector in switch.collectors:
                collector.finalize(self.sim.now)

    def run(self, until: int | None = None) -> int:
        return self.sim.run(until=until)

    @property
    def now(self) -> int:
        return self.sim.now

    def total_fault_drops(self) -> int:
        return sum(link.faulted_packets for link in self.links.values())
