"""Two-tier FlowPulse monitoring on three-level fabrics (paper §7).

Each tier is a plain :class:`~repro.core.monitor.FlowPulseMonitor`
against a fixed fault-aware analytical prediction: the leaf tier over
every leaf's ingress ports from its pod spines, as in the two-level
design; the spine tier over every pod spine's ingress ports from its
core group, with source pods as senders.  Both localize with Fig. 4's
rule and differ only in link names.  :class:`ThreeLevelMonitor`
combines them:

- a leaf-tier deficit at a spine the core layer explains produces no
  extra suspicion;
- a sending pod short on every one of two or more core ports into a
  spine lost its traffic inside its own pod, upstream of the core
  layer: no core cable is blamed for it and the leaf tier is heard.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.detection import DetectionConfig, DetectionResult
from ..core.localization import LinkSuspicion, Localizer
from ..core.monitor import FlowPulseMonitor
from ..core.prediction.base import LoadPrediction, LoadPredictor, PortPrediction
from ..collectives.demand import DemandMatrix
from .model import ThreeLevelModel, ThreeLevelRecords, demand_by_leaf_pair
from .topology import (
    ThreeLevelSpec,
    core_down_link,
    core_up_link,
    pod_down_link,
    pod_up_link,
)


# ----------------------------------------------------------------------
# Analytical predictions for both tiers
# ----------------------------------------------------------------------
def predict_three_level(
    model: ThreeLevelModel, demand: DemandMatrix
) -> tuple[LoadPrediction, dict[tuple[int, int], PortPrediction]]:
    """Expected volumes at every leaf and every pod spine.

    Returns ``(leaf_prediction, spine_predictions)`` where the leaf
    prediction is indexed by global leaf and spine predictions by
    ``(pod, spine)``.
    """
    spec = model.spec
    control = model.control()
    leaf_ports: list[dict[int, float]] = [dict() for _ in range(spec.n_leaves)]
    leaf_senders: list[dict[tuple[int, int], float]] = [
        dict() for _ in range(spec.n_leaves)
    ]
    spine_ports: dict[tuple[int, int], dict[int, float]] = {}
    spine_senders: dict[tuple[int, int], dict[tuple[int, int], float]] = {}

    for (src, dst), size in sorted(demand_by_leaf_pair(spec, demand).items()):
        (src_pod, src_leaf), (dst_pod, dst_leaf) = src, dst
        src_global = spec.global_leaf(src_pod, src_leaf)
        dst_global = spec.global_leaf(dst_pod, dst_leaf)
        if src_pod == dst_pod:
            spines = control.valid_intra_pod_spines(src_pod, src_leaf, dst_leaf)
            paths = []  # never reaches the core layer
        else:
            paths = control.valid_inter_pod_paths(src_pod, src_leaf, dst_pod, dst_leaf)
            spines = sorted({s for s, _c in paths})
        spine_share = size / len(spines)
        ports = leaf_ports[dst_global]
        senders = leaf_senders[dst_global]
        for s in spines:
            ports[s] = ports.get(s, 0.0) + spine_share
            key = (s, src_global)
            senders[key] = senders.get(key, 0.0) + spine_share
            cores = sorted(c for ss, c in paths if ss == s)
            if not cores:
                continue
            core_share = spine_share / len(cores)
            skey = (dst_pod, s)
            sports = spine_ports.setdefault(skey, {})
            ssenders = spine_senders.setdefault(skey, {})
            for c in cores:
                sports[c] = sports.get(c, 0.0) + core_share
                pkey = (c, src_pod)
                ssenders[pkey] = ssenders.get(pkey, 0.0) + core_share

    leaf_prediction = LoadPrediction(
        per_leaf=tuple(
            PortPrediction(
                leaf=g, port_bytes=leaf_ports[g], sender_bytes=leaf_senders[g]
            )
            for g in range(spec.n_leaves)
        )
    )
    spine_predictions = {}
    for pod in range(spec.n_pods):
        for s in range(spec.spines_per_pod):
            key = (pod, s)
            spine_predictions[key] = PortPrediction(
                leaf=pod * spec.spines_per_pod + s,
                port_bytes=spine_ports.get(key, {}),
                sender_bytes=spine_senders.get(key, {}),
            )
    return leaf_prediction, spine_predictions


# ----------------------------------------------------------------------
# Two-tier monitoring
# ----------------------------------------------------------------------
class _FixedPredictor(LoadPredictor):
    """A stateless predictor handing out one precomputed prediction."""

    name = "three-level analytical"

    def __init__(self, prediction: LoadPrediction) -> None:
        self._prediction = prediction

    def predict(self) -> LoadPrediction:
        return self._prediction


class _TierLocalizer(Localizer):
    """Fig. 4's rule at one tier of a three-level fabric."""

    def __init__(self, spec: ThreeLevelSpec, sender_threshold: float) -> None:
        super().__init__(sender_threshold)
        self.spec = spec


class _LeafTierLocalizer(_TierLocalizer):
    """Ports are pod spines; observers and senders are global leaves."""

    def local_link(self, spine: int, leaf: int) -> str:
        pod, leaf_in_pod = divmod(leaf, self.spec.leaves_per_pod)
        return pod_down_link(pod, spine, leaf_in_pod)

    def remote_link(self, src: int, spine: int) -> str:
        src_pod, src_leaf = divmod(src, self.spec.leaves_per_pod)
        return pod_up_link(src_pod, src_leaf, spine)


class _SpineTierLocalizer(_TierLocalizer):
    """Ports are cores; observers are global spine ids, senders pods."""

    def local_link(self, core: int, spine: int) -> str:
        return core_down_link(core, *divmod(spine, self.spec.spines_per_pod))

    def remote_link(self, src_pod: int, core: int) -> str:
        return core_up_link(src_pod, self.spec.spine_of_core(core), core)


@dataclass(frozen=True)
class ThreeLevelVerdict:
    """Outcome of monitoring one iteration at both tiers."""

    iteration: int
    leaf_results: tuple[DetectionResult, ...]
    spine_results: dict[tuple[int, int], DetectionResult]
    suspicions: tuple[LinkSuspicion, ...]

    @property
    def triggered(self) -> bool:
        return any(r.triggered for r in self.leaf_results) or any(
            r.triggered for r in self.spine_results.values()
        )

    def suspected_links(self) -> frozenset[str]:
        return frozenset(s.link for s in self.suspicions)


class ThreeLevelMonitor:
    """FlowPulse deployed at both the leaf and spine tiers."""

    def __init__(
        self,
        model: ThreeLevelModel,
        demand: DemandMatrix,
        config: DetectionConfig | None = None,
    ) -> None:
        # The monitor's model must not know the silent faults.
        self.model = model.healthy_view()
        self.spec = model.spec
        self.config = config or DetectionConfig()
        self.leaf_prediction, self.spine_predictions = predict_three_level(
            self.model, demand
        )
        threshold = self.config.threshold
        self.leaf_tier = FlowPulseMonitor(
            _FixedPredictor(self.leaf_prediction),
            self.config,
            _LeafTierLocalizer(self.spec, threshold),
        )
        self.spine_tier = FlowPulseMonitor(
            _FixedPredictor(LoadPrediction(tuple(self.spine_predictions.values()))),
            self.config,
            _SpineTierLocalizer(self.spec, threshold),
        )

    # ------------------------------------------------------------------
    def process_iteration(self, records: ThreeLevelRecords) -> ThreeLevelVerdict:
        spine_keys = sorted(records.spines)
        leaf_verdict = self.leaf_tier.process_iteration(records.leaves)
        spine_verdict = self.spine_tier.process_iteration(
            [records.spines[key] for key in spine_keys]
        )
        # Spine tier first: core-layer faults.  A spine is core-implicated
        # (and its leaf-tier alarms explained) by any suspicion kept.
        suspicions: list[LinkSuspicion] = []
        core_implicated: set[tuple[int, int]] = set()
        for localization in spine_verdict.localizations:
            key = divmod(localization.leaf, self.spec.spines_per_pod)
            upstream = self._upstream_losses(records.spines[key], key)
            for suspicion in localization.suspicions:
                if not upstream.issuperset(suspicion.affected_senders):
                    suspicions.append(suspicion)
                    core_implicated.add(key)
        lpp = self.spec.leaves_per_pod
        suspicions.extend(
            suspicion
            for localization in leaf_verdict.localizations
            for suspicion in localization.suspicions
            if (localization.leaf // lpp, suspicion.spine) not in core_implicated
        )
        return ThreeLevelVerdict(
            iteration=records.tag.iteration,
            leaf_results=leaf_verdict.results,
            spine_results=dict(zip(spine_keys, spine_verdict.results)),
            suspicions=tuple(suspicions),
        )

    def process_run(self, runs: list[ThreeLevelRecords]) -> list[ThreeLevelVerdict]:
        return [self.process_iteration(records) for records in runs]

    # ------------------------------------------------------------------
    def _upstream_losses(self, record, key: tuple[int, int]) -> set[int]:
        """Sending pods short on every one of two or more core ports into
        spine ``key``.  A loss inside the sending pod thins its traffic on
        every core port; no single core cable can.  With one port the two
        causes look alike, so such a pod is never listed."""
        threshold = self.config.threshold
        short: dict[int, list[bool]] = {}
        for (core, src_pod), size in self.spine_predictions[key].sender_bytes.items():
            if size > 0:
                observed = record.sender_bytes.get((core, src_pod), 0)
                short.setdefault(src_pod, []).append((observed - size) / size < -threshold)
        return {pod for pod, ports in short.items() if len(ports) >= 2 and all(ports)}
