"""Network builder: assembles a runnable fabric from a ClosSpec.

This is the top of the simulator substrate: given a topology spec, a
spraying policy, known (pre-existing) faults, and a seed, it wires up
hosts, leaf and spine switches, links, transports, and (optionally) PFC
controllers into a single :class:`Network` object the collective
schedulers and FlowPulse monitors operate on.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..topology.graph import (
    ClosSpec,
    ControlPlane,
    down_link,
    host_down_link,
    host_up_link,
    up_link,
)
from .congestion import CongestionConfig
from .counters import CollectiveCollector, IterationRecord
from .engine import Simulator
from .faults import DisconnectFault, FaultInjector, LinkFault
from .host import Host
from .link import Link
from .pfc import PfcConfig, PfcController
from .spraying import SprayPolicy, make_policy
from .switch import LeafSwitch, SpineSwitch
from .trace import Tracer
from .transport import GiveupPolicy, ReliableTransport
from ..units import DEFAULT_MTU, MICROSECOND


class Network:
    """A fully wired two-level Clos fabric.

    Parameters
    ----------
    spec:
        Fabric dimensions and link characteristics.
    seed:
        Master seed; every random stream (spraying per leaf, fault
        coin-flips per link) derives from it, so runs are reproducible.
    spray:
        Spray policy name (see :func:`repro.simnet.spraying.make_policy`)
        or a policy instance shared by all leaves.
    known_disabled:
        Pre-existing faults: link names removed from routing *and*
        physically disconnected.
    queue_capacity:
        Egress buffer of every switch port, in bytes (``None``:
        unbounded).  A host's send queue lives in host memory and is
        never bounded by it: a packet the NIC refused would never reach
        the wire, where its retransmission timer starts, and so would
        never be resent.
    enable_pfc:
        Attach PFC controllers to fabric links (needs finite
        ``queue_capacity`` to ever trigger).
    telemetry:
        Optional telemetry session (duck-typed; see
        :mod:`repro.telemetry.session`).  Wired into the engine, every
        link, every transport, and every PFC controller; ``None``
        (the default) keeps all of them on their no-op fast path.
    ecn_threshold_bytes:
        Egress queues mark DATA packets congestion-experienced at or
        above this backlog (see :mod:`repro.simnet.congestion`).
        ``None`` (the default) disables marking — the legacy data path,
        bit-identical to networks built before ECN existed.
    congestion:
        DCQCN-style sender reaction wired into every transport; only
        meaningful together with ``ecn_threshold_bytes``.  ``None``
        (the default) keeps the paper's no-congestion-control
        transport.
    """

    def __init__(
        self,
        spec: ClosSpec,
        seed: int = 0,
        spray: str | SprayPolicy = "adaptive",
        known_disabled: frozenset[str] = frozenset(),
        mtu: int = DEFAULT_MTU,
        rto_ns: int = 5 * MICROSECOND,
        max_retransmissions: int = 64,
        giveup: GiveupPolicy | None = None,
        queue_capacity: int | None = None,
        enable_pfc: bool = False,
        tracer: Tracer | None = None,
        telemetry=None,
        ecn_threshold_bytes: int | None = None,
        congestion: CongestionConfig | None = None,
    ) -> None:
        self.spec = spec
        self.sim = Simulator()
        self.tracer = tracer
        self.telemetry = telemetry
        self.sim.telemetry = telemetry
        self.injector = FaultInjector()
        self.control = ControlPlane(spec, known_disabled=frozenset(known_disabled))
        self.mtu = mtu
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.congestion = congestion

        seq = np.random.SeedSequence(seed)
        fault_seed, *leaf_seeds = seq.spawn(1 + spec.n_leaves)
        self._fault_rng = np.random.Generator(np.random.PCG64(fault_seed))

        policy = make_policy(spray) if isinstance(spray, str) else spray

        # Nodes.
        self.spines = [SpineSwitch(s, self.control) for s in range(spec.n_spines)]
        self.leaves = [
            LeafSwitch(
                leaf,
                self.control,
                policy,
                np.random.Generator(np.random.PCG64(leaf_seeds[leaf])),
            )
            for leaf in range(spec.n_leaves)
        ]
        self.hosts = [Host(self.sim, h) for h in range(spec.n_hosts)]
        self.links: dict[str, Link] = {}

        # Fabric links (leaf <-> spine, both directions).
        for leaf in self.leaves:
            for spine in self.spines:
                up_name = up_link(leaf.leaf, spine.spine)
                self._add_link(up_name, spine, queue_capacity)
                leaf.attach_uplink(spine.spine, self.links[up_name])
                down_name = down_link(spine.spine, leaf.leaf)
                self._add_link(down_name, leaf, queue_capacity)
                spine.attach_downlink(leaf.leaf, self.links[down_name])
                leaf.register_spine_ingress(spine.spine, down_name)

        # Host links.  All transports number packets from one counter.
        packet_ids = itertools.count()
        for host in self.hosts:
            leaf = self.leaves[spec.leaf_of_host(host.index)]
            up_name = host_up_link(host.index)
            self._add_link(up_name, leaf, None, rate=spec.host_rate_bps)
            host.attach_uplink(self.links[up_name])
            down_name = host_down_link(host.index)
            self._add_link(down_name, host, queue_capacity, rate=spec.host_rate_bps)
            leaf.attach_downlink(host.index, self.links[down_name])
            host.attach_transport(
                ReliableTransport(
                    self.sim,
                    host,
                    mtu=mtu,
                    rto_ns=rto_ns,
                    max_retransmissions=max_retransmissions,
                    giveup=giveup,
                    telemetry=telemetry,
                    congestion=congestion,
                    packet_ids=packet_ids,
                )
            )

        # Physically disconnect pre-existing faults: routing already
        # avoids them; any stray packet must die on the wire.
        for name in self.control.known_disabled:
            self.injector.inject(name, DisconnectFault(known=True))

        self.pfc_controllers: list[PfcController] = []
        if enable_pfc:
            if queue_capacity is None:
                raise ValueError("PFC requires a finite queue_capacity")
            self._wire_pfc()

    # ------------------------------------------------------------------
    def _add_link(
        self, name: str, dst, queue_capacity: int | None, rate: int | None = None
    ) -> None:
        self.links[name] = Link(
            sim=self.sim,
            name=name,
            dst=dst,
            rate_bps=rate or self.spec.link_rate_bps,
            prop_delay_ns=self.spec.prop_delay_ns,
            rng=self._fault_rng,
            injector=self.injector,
            queue_capacity=queue_capacity,
            tracer=self.tracer,
            telemetry=self.telemetry,
            ecn_threshold_bytes=self.ecn_threshold_bytes,
        )

    def _wire_pfc(self) -> None:
        """Attach a PFC controller to every fabric link's egress queue."""
        config = PfcConfig()
        for leaf in self.leaves:
            feeders_into_leaf = [
                self.links[host_up_link(h)] for h in self.spec.hosts_of_leaf(leaf.leaf)
            ] + [
                self.links[down_link(s, leaf.leaf)] for s in range(self.spec.n_spines)
            ]
            for spine_idx, uplink in leaf.uplinks.items():
                self.pfc_controllers.append(
                    PfcController(
                        uplink, feeders_into_leaf, config, telemetry=self.telemetry
                    )
                )
        for spine in self.spines:
            feeders_into_spine = [
                self.links[up_link(l, spine.spine)] for l in range(self.spec.n_leaves)
            ]
            for leaf_idx, downlink in spine.downlinks.items():
                self.pfc_controllers.append(
                    PfcController(
                        downlink, feeders_into_spine, config, telemetry=self.telemetry
                    )
                )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def host(self, index: int) -> Host:
        return self.hosts[index]

    def leaf(self, index: int) -> LeafSwitch:
        return self.leaves[index]

    def spine(self, index: int) -> SpineSwitch:
        return self.spines[index]

    def link(self, name: str) -> Link:
        return self.links[name]

    # ------------------------------------------------------------------
    # Faults and monitoring
    # ------------------------------------------------------------------
    def inject_fault(
        self, link_name: str, fault: LinkFault, replace: bool = False
    ) -> None:
        """Inject a fault on a link.

        Silent faults (``fault.known == False``) do *not* touch the
        control plane — routing keeps using the link, which is exactly
        the condition FlowPulse must detect.

        With ``replace=True`` an existing fault on the link is
        superseded (a fault lifecycle escalating in place); the control
        plane tracks the transition, so replacing a known fault with a
        silent one silently re-enables routing over the still-broken
        link — the nastiest gray-failure shape.
        """
        if link_name not in self.links:
            raise KeyError(f"unknown link {link_name!r}")
        displaced = self.injector.inject(link_name, fault, replace=replace)
        if displaced is not None and displaced.known and not fault.known:
            self.control.enable(link_name)
        if fault.known:
            self.control.disable(link_name)

    def heal_fault(self, link_name: str) -> None:
        """Remove a fault (and re-enable routing if it was known).

        Healing a link that carries no fault raises
        :class:`~repro.simnet.faults.FaultInjectorError`.
        """
        fault = self.injector.clear(link_name)
        if fault.known:
            self.control.enable(link_name)

    def install_collectors(self, job_id: int, on_record=None) -> list[CollectiveCollector]:
        """Install a FlowPulse collector on every leaf for ``job_id``.

        Returns the collectors in leaf order.
        """
        collectors = []
        for leaf in self.leaves:
            collector = CollectiveCollector(leaf.leaf, job_id, on_record=on_record)
            leaf.add_collector(collector)
            collectors.append(collector)
        return collectors

    def finalize_collectors(self) -> list[IterationRecord | None]:
        """Close all open measurement windows (end of the run)."""
        records = []
        for leaf in self.leaves:
            for collector in leaf.collectors:
                records.append(collector.finalize(self.sim.now))
        return records

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run the event loop; returns the number of events executed."""
        return self.sim.run(until=until, max_events=max_events)

    @property
    def now(self) -> int:
        return self.sim.now

    def total_fault_drops(self) -> int:
        """Packets silently dropped by injected faults, fabric-wide."""
        return sum(link.faulted_packets for link in self.links.values())

    def total_ecn_marks(self) -> int:
        """Packets marked congestion-experienced, fabric-wide."""
        return sum(link.ecn_marked_packets for link in self.links.values())
