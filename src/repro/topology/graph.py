"""Two-level Clos fabric description and control plane.

The paper's setting is a non-blocking two-level fat tree: ``n_leaves``
leaf switches, each connected to every one of ``n_spines`` spine
switches, with hosts attached only to leaves.  Upstream traffic is
sprayed per-packet across spines; downstream paths are unique.

:class:`ControlPlane` is the shared routing state: which leaf each host
hangs off, and which leaf-spine links are *known* to be down
(pre-existing faults).  Known-down links are excluded from spraying;
silent faults, by definition, are absent from this state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from ..units import GBPS


class TopologyError(ValueError):
    """Raised for malformed fabric descriptions or unroutable pairs."""


# ----------------------------------------------------------------------
# Canonical link names.  Links are unidirectional; one physical cable is
# two named links.
# ----------------------------------------------------------------------
def up_link(leaf: int, spine: int) -> str:
    """Name of the leaf->spine (upstream) link."""
    return f"up:L{leaf}->S{spine}"


def down_link(spine: int, leaf: int) -> str:
    """Name of the spine->leaf (downstream) link."""
    return f"down:S{spine}->L{leaf}"


def host_up_link(host: int) -> str:
    """Name of the host->leaf link."""
    return f"hostup:H{host}"


def host_down_link(host: int) -> str:
    """Name of the leaf->host link."""
    return f"hostdown:H{host}"


def parse_fabric_link(name: str) -> tuple[str, int, int]:
    """Parse an up/down fabric link name to (direction, leaf, spine)."""
    try:
        direction, rest = name.split(":", 1)
        a, b = rest.split("->")
        if direction == "up":
            leaf, spine = int(a[1:]), int(b[1:])
        elif direction == "down":
            spine, leaf = int(a[1:]), int(b[1:])
        else:
            raise ValueError(name)
        return direction, leaf, spine
    except (ValueError, IndexError) as exc:
        raise TopologyError(f"not a fabric link name: {name!r}") from exc


class _HostLeaves(dict):
    """``host -> leaf`` for every host of a fabric; any other key (a
    negative index included) raises :class:`TopologyError` as
    :meth:`ClosSpec.leaf_of_host` does."""

    __slots__ = ()

    def __missing__(self, host):
        raise TopologyError(f"host {host} out of range (n={len(self)})")


@dataclass(frozen=True)
class ClosSpec:
    """Parameters of a two-level Clos fabric.

    ``hosts_per_leaf`` defaults to 1, matching the paper's evaluation
    ("each leaf is connected to a single end-host").  The fabric is
    non-blocking when every leaf has at least as much uplink as downlink
    capacity, i.e. ``n_spines >= hosts_per_leaf`` at equal link rates.
    """

    n_leaves: int = 32
    n_spines: int = 16
    hosts_per_leaf: int = 1
    link_rate_bps: int = 400 * GBPS
    host_link_rate_bps: int | None = None
    #: ~20 m of fiber per hop; keeps the 8-hop request/ACK RTT around
    #: 1-2 us, consistent with the paper's 5 us retransmission timeout.
    prop_delay_ns: int = 100

    def __post_init__(self) -> None:
        if self.n_leaves < 2:
            raise TopologyError("need at least two leaves")
        if self.n_spines < 1:
            raise TopologyError("need at least one spine")
        if self.hosts_per_leaf < 1:
            raise TopologyError("need at least one host per leaf")
        if self.link_rate_bps <= 0:
            raise TopologyError("link rate must be positive")
        if self.prop_delay_ns < 0:
            raise TopologyError("propagation delay cannot be negative")

    # ------------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        return self.n_leaves * self.hosts_per_leaf

    @property
    def host_rate_bps(self) -> int:
        return self.host_link_rate_bps or self.link_rate_bps

    @property
    def non_blocking(self) -> bool:
        """True if uplink capacity covers worst-case host demand."""
        up = self.n_spines * self.link_rate_bps
        down = self.hosts_per_leaf * self.host_rate_bps
        return up >= down

    @property
    def n_fabric_links(self) -> int:
        """Number of unidirectional leaf-spine links."""
        return 2 * self.n_leaves * self.n_spines

    def leaf_of_host(self, host: int) -> int:
        """Leaf switch index the host is attached to."""
        per_leaf = self.hosts_per_leaf
        if not 0 <= host < self.n_leaves * per_leaf:
            raise TopologyError(f"host {host} out of range (n={self.n_hosts})")
        return host // per_leaf

    @cached_property
    def host_leaves(self) -> dict[int, int]:
        """:meth:`leaf_of_host` as one table per spec, for the per-packet
        lookups of the packet simulator's switches."""
        per_leaf = self.hosts_per_leaf
        return _HostLeaves({host: host // per_leaf for host in range(self.n_hosts)})

    def hosts_of_leaf(self, leaf: int) -> range:
        """Hosts attached to ``leaf``."""
        if not 0 <= leaf < self.n_leaves:
            raise TopologyError(f"leaf {leaf} out of range (n={self.n_leaves})")
        return range(leaf * self.hosts_per_leaf, (leaf + 1) * self.hosts_per_leaf)

    def fabric_links(self) -> Iterator[str]:
        """Every unidirectional leaf-spine link name."""
        for leaf in range(self.n_leaves):
            for spine in range(self.n_spines):
                yield up_link(leaf, spine)
                yield down_link(spine, leaf)


@dataclass
class ControlPlane:
    """Routing state shared by all switches.

    ``known_disabled`` holds link names the switch OS has removed from
    routing (pre-existing faults).  :meth:`valid_spines` is the spray
    candidate set — the analytical load model (paper §5.2) is built on
    exactly this set.

    ``spray_excluded`` is the *reroute-only* remediation state (the
    R2CCL stance: route the collective around a suspect path instead of
    taking the cable out of service): excluded links are removed from
    the spray candidate set but remain administratively up, so packets
    already in flight are still forwarded and the link can be readmitted
    without a maintenance action.
    """

    spec: ClosSpec
    known_disabled: frozenset[str] = field(default_factory=frozenset)
    spray_excluded: frozenset[str] = field(default_factory=frozenset)
    #: ``(known_disabled, spray_excluded, all spines or None, {(src
    #: leaf, dst leaf): spines})`` — spray sets memoized for the two
    #: frozensets they were computed under.  Both are immutable and
    #: only ever *rebound* (by the four methods below or by direct
    #: assignment), so comparing identities is enough to notice any
    #: change, and holding the objects here keeps either identity from
    #: being recycled.  Filled lazily by :meth:`spray_spines`.
    _spray_memo: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in self.known_disabled | self.spray_excluded:
            parse_fabric_link(name)  # validates

    def disable(self, *links: str) -> None:
        """Mark links as known-down (e.g. after fault confirmation)."""
        for name in links:
            parse_fabric_link(name)
        self.known_disabled = self.known_disabled | frozenset(links)

    def enable(self, *links: str) -> None:
        """Return links to service (maintenance completed)."""
        self.known_disabled = self.known_disabled - frozenset(links)

    def exclude_from_spray(self, *links: str) -> None:
        """Remove links from spraying without disabling them."""
        for name in links:
            parse_fabric_link(name)
        self.spray_excluded = self.spray_excluded | frozenset(links)

    def readmit_to_spray(self, *links: str) -> None:
        """Undo :meth:`exclude_from_spray` (suspect cleared)."""
        self.spray_excluded = self.spray_excluded - frozenset(links)

    @property
    def routing_excluded(self) -> frozenset[str]:
        """Links absent from the spray candidate set, for any reason.

        This — not ``known_disabled`` alone — is the set the analytical
        load model must be built on: the even-split prediction follows
        where new traffic can go, regardless of whether the excluded
        cable is administratively down or merely routed around.
        """
        return self.known_disabled | self.spray_excluded

    def up_ok(self, leaf: int, spine: int) -> bool:
        return up_link(leaf, spine) not in self.known_disabled

    def down_ok(self, spine: int, leaf: int) -> bool:
        return down_link(spine, leaf) not in self.known_disabled

    def _sprayable(self, name: str) -> bool:
        return name not in self.known_disabled and name not in self.spray_excluded

    def valid_spines(self, src_leaf: int, dst_leaf: int) -> list[int]:
        """Spines usable for *new* traffic from ``src_leaf`` to
        ``dst_leaf``.

        A spine is valid when both the upstream link from the source
        leaf and the downstream link to the destination leaf are in
        service and not excluded from spraying.  Raises
        :class:`TopologyError` if the pair is partitioned (no valid
        spine remains).  The list is the caller's to keep or mutate.
        """
        return list(self.spray_spines(src_leaf, dst_leaf))

    def spray_spines(self, src_leaf: int, dst_leaf: int) -> tuple[int, ...]:
        """:meth:`valid_spines` as a shared, immutable tuple.

        The per-packet form: the same tuple object is returned for a
        pair until ``known_disabled`` or ``spray_excluded`` is rebound,
        so callers can key their own per-spine-set state on its
        identity.
        """
        disabled, excluded = self.known_disabled, self.spray_excluded
        memo = self._spray_memo
        if memo is None or memo[0] is not disabled or memo[1] is not excluded:
            all_spines = (
                None if disabled or excluded else tuple(range(self.spec.n_spines))
            )
            memo = self._spray_memo = (disabled, excluded, all_spines, {})
        _, _, all_spines, pairs = memo
        if all_spines is not None:
            return all_spines
        spines = pairs.get((src_leaf, dst_leaf))
        if spines is None:
            spines = tuple(
                s
                for s in range(self.spec.n_spines)
                if self._sprayable(up_link(src_leaf, s))
                and self._sprayable(down_link(s, dst_leaf))
            )
            if not spines:
                raise TopologyError(
                    f"no valid spine from leaf {src_leaf} to leaf {dst_leaf}"
                )
            pairs[(src_leaf, dst_leaf)] = spines
        return spines

    def reachable(self, src_leaf: int, dst_leaf: int) -> bool:
        """Whether any spine path exists between the two leaves."""
        try:
            self.valid_spines(src_leaf, dst_leaf)
            return True
        except TopologyError:
            return False

    def fully_connected(self) -> bool:
        """True if every ordered leaf pair still has a path."""
        pairs = (
            (a, b)
            for a in range(self.spec.n_leaves)
            for b in range(self.spec.n_leaves)
            if a != b
        )
        return all(self.reachable(a, b) for a, b in pairs)
