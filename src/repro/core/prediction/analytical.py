"""Analytical per-link load model (paper §5.2, Fig. 2).

For every source-destination pair expected to send *d* bytes: if *f* of
the *s* spines have a known-failed link to either the source or the
destination leaf, each remaining spine carries ``d / (s - f)`` bytes,
which then crosses that spine's downstream link into the destination
leaf.  Summing over all pairs whose destination sits under a given leaf
yields the expected load on each of that leaf's ingress ports.

The model needs only application-level knowledge (the demand matrix)
and the control plane's known-fault set — both available before the
first training iteration.
"""

from __future__ import annotations

from itertools import repeat

from ...collectives.demand import DemandMatrix
from ...topology.graph import ClosSpec, ControlPlane
from .base import LoadPrediction, LoadPredictor, PortPrediction


class AnalyticalPredictor(LoadPredictor):
    """Closed-form even-split prediction over valid spines."""

    name = "analytical"

    def __init__(
        self,
        spec: ClosSpec,
        demand: DemandMatrix,
        known_disabled: frozenset[str] = frozenset(),
    ) -> None:
        self.spec = spec
        self.demand = demand
        self.control = ControlPlane(spec, known_disabled=frozenset(known_disabled))
        self._prediction = self._build()

    def _build(self) -> LoadPrediction:
        spec = self.spec
        port_bytes: list[dict[int, float]] = [dict() for _ in range(spec.n_leaves)]
        sender_bytes: list[dict[tuple[int, int], float]] = [
            dict() for _ in range(spec.n_leaves)
        ]
        for (src_leaf, dst_leaf), size in sorted(
            self.demand.leaf_pairs(spec).items()
        ):
            spines = self.control.spray_spines(src_leaf, dst_leaf)
            share = size / len(spines)
            ports = port_bytes[dst_leaf]
            if not ports:
                # The leaf's first pair: ``0.0 + share`` is ``share``, so
                # setting is accumulating, insertion order included.
                port_bytes[dst_leaf] = dict.fromkeys(spines, share)
                sender_bytes[dst_leaf] = dict(
                    zip(zip(spines, repeat(src_leaf)), repeat(share))
                )
                continue
            senders = sender_bytes[dst_leaf]
            for spine in spines:
                ports[spine] = ports.get(spine, 0.0) + share
                key = (spine, src_leaf)
                senders[key] = senders.get(key, 0.0) + share
        return LoadPrediction(
            per_leaf=tuple(
                PortPrediction(
                    leaf=leaf,
                    port_bytes=port_bytes[leaf],
                    sender_bytes=sender_bytes[leaf],
                )
                for leaf in range(spec.n_leaves)
            )
        )

    def predict(self) -> LoadPrediction:
        return self._prediction
