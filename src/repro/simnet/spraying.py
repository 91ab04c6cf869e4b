"""Per-packet load-balancing policies.

The fabric sprays upstream traffic across all valid spines (paper §2).
Policies here range from plain random spraying [Dixit et al.] through
adaptive least-queue selection (DRILL-style, the "select the least
congested port" strategy of §1), to classical ECMP flow hashing — the
strawman whose flow collisions motivated APS in the first place.

A policy sees the candidate uplinks (already filtered by the control
plane to exclude known-down paths) and picks one per packet.
"""

from __future__ import annotations

import zlib

import numpy as np

from .link import Link
from .packet import Packet


class SprayPolicy:
    """Interface for upstream port selection."""

    name = "base"

    def choose(
        self, candidates: list[Link], packet: Packet, rng: np.random.Generator
    ) -> Link:
        """Pick the uplink this packet departs on."""
        raise NotImplementedError


class RandomSpray(SprayPolicy):
    """Uniform random spraying: each packet picks an independent,
    uniformly random valid uplink."""

    name = "random"

    def choose(
        self, candidates: list[Link], packet: Packet, rng: np.random.Generator
    ) -> Link:
        return candidates[int(rng.integers(len(candidates)))]


class LeastQueueSpray(SprayPolicy):
    """Adaptive spraying: pick the valid uplink with the smallest queue
    backlog, breaking ties uniformly at random.

    This approximates the least-congested-port adaptive strategies
    deployed in Spectrum-X / Tomahawk fabrics; under symmetric demand it
    converges to a near-even split with only quantization noise.
    """

    name = "adaptive"

    def choose(
        self, candidates: list[Link], packet: Packet, rng: np.random.Generator
    ) -> Link:
        best = min(link.queue.bytes_used for link in candidates)
        ties = [link for link in candidates if link.queue.bytes_used == best]
        if len(ties) == 1:
            return ties[0]
        return ties[int(rng.integers(len(ties)))]


class PowerOfTwoSpray(SprayPolicy):
    """Power-of-two-choices spraying [Mitzenmacher]: sample two valid
    uplinks, send on the less loaded one.  Cheaper than scanning all
    queues, nearly as balanced."""

    name = "po2"

    def choose(
        self, candidates: list[Link], packet: Packet, rng: np.random.Generator
    ) -> Link:
        if len(candidates) == 1:
            return candidates[0]
        i, j = rng.choice(len(candidates), size=2, replace=False)
        a, b = candidates[int(i)], candidates[int(j)]
        if a.queue.bytes_used == b.queue.bytes_used:
            return a if rng.random() < 0.5 else b
        return a if a.queue.bytes_used < b.queue.bytes_used else b


class EcmpHash(SprayPolicy):
    """Flow-level ECMP: every packet of a flow takes the same uplink,
    chosen by hashing the flow's endpoints.  Included as the
    traditional baseline that APS replaces (§1).

    The hash covers ``(salt, src_host, dst_host)`` — the simulator's
    analog of the 5-tuple — and deliberately *not* the per-message id:
    a real switch pins every packet between two endpoints to one path
    for the lifetime of the routing epoch, which is exactly what makes
    ECMP both collision-prone and sticky (a gray path keeps eating the
    same victim flows run after run).  ``salt`` models the switch's
    hash seed: re-salting re-rolls which flows collide, the knob
    operators actually turn when an ECMP polarization bites.
    """

    name = "ecmp"

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt

    def choose(
        self, candidates: list[Link], packet: Packet, rng: np.random.Generator
    ) -> Link:
        digest = zlib.crc32(
            repr((self.salt, packet.src_host, packet.dst_host)).encode()
        )
        return candidates[digest % len(candidates)]


#: Candidate lists :class:`RoundRobinSpray` remembers before starting
#: over: switches reuse one list per spray set, but a caller that builds
#: a fresh list per packet must not grow the memo without bound.
_ROTATION_KEYS_KEPT = 4096


class RoundRobinSpray(SprayPolicy):
    """Deterministic round-robin over valid uplinks, per destination.

    The rotation state is kept per (candidate set, destination host):
    different flows sharing the uplinks (e.g. ACKs heading the other way
    around a ring) must not consume each other's rotation slots, or a
    periodic interleaving would systematically skew the split.  The most
    even split possible; useful in tests as a zero-noise reference for
    temporal symmetry.

    A candidate set is named by its links' sorted ids, computed once per
    candidate list (which callers must not mutate) and remembered with
    the list itself, so its ``id`` cannot be reused by another list.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._next: dict[tuple, int] = {}
        self._link_ids: dict[int, tuple[list[Link], tuple[int, ...]]] = {}

    def choose(
        self, candidates: list[Link], packet: Packet, rng: np.random.Generator
    ) -> Link:
        entry = self._link_ids.get(id(candidates))
        if entry is None:
            if len(self._link_ids) >= _ROTATION_KEYS_KEPT:
                self._link_ids.clear()
            entry = (candidates, tuple(sorted(id(link) for link in candidates)))
            self._link_ids[id(candidates)] = entry
        key = (entry[1], packet.dst_host)
        idx = self._next.get(key, 0)
        self._next[key] = (idx + 1) % len(candidates)
        return candidates[idx % len(candidates)]


class FlowletSpray(SprayPolicy):
    """Flowlet switching [Vanini et al., "Let It Flow"].

    A flow keeps its current uplink while packets arrive back-to-back;
    a gap longer than ``gap_ns`` ends the flowlet and the next packet
    re-picks a uniformly random valid uplink.  Sits between ECMP (one
    path per flow) and per-packet spraying (one path per packet) —
    the intermediate point in the load-balancing design space the
    paper's §1 discussion walks through.
    """

    name = "flowlet"

    def __init__(self, gap_ns: int = 50_000) -> None:
        if gap_ns <= 0:
            raise ValueError("flowlet gap must be positive")
        self.gap_ns = gap_ns
        self._state: dict[tuple, tuple[Link, int]] = {}

    def choose(
        self, candidates: list[Link], packet: Packet, rng: np.random.Generator
    ) -> Link:
        now = candidates[0].sim.now
        key = packet.flow_key()
        state = self._state.get(key)
        if state is not None:
            link, last_seen = state
            if now - last_seen <= self.gap_ns and link in candidates:
                self._state[key] = (link, now)
                return link
        link = candidates[int(rng.integers(len(candidates)))]
        self._state[key] = (link, now)
        return link


_POLICIES = {
    cls.name: cls
    for cls in (
        RandomSpray,
        LeastQueueSpray,
        PowerOfTwoSpray,
        EcmpHash,
        RoundRobinSpray,
        FlowletSpray,
    )
}


def make_policy(name: str) -> SprayPolicy:
    """Instantiate a spray policy by name.

    Known names: ``random``, ``adaptive``, ``po2``, ``ecmp``,
    ``round_robin``, ``flowlet``.
    """
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown spray policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None
