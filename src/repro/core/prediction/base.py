"""Predictor interface and prediction containers.

A *load prediction* is FlowPulse's model of temporal symmetry: the
byte volume expected to cross each leaf's ingress port from each spine
during one instance of the monitored collective (paper §5.2), with a
per-sender breakdown used by the localizer (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class PredictionError(RuntimeError):
    """Raised when a predictor cannot produce a prediction."""


@dataclass(frozen=True)
class PortPrediction:
    """Expected ingress volumes at one leaf switch.

    ``port_bytes`` maps spine index -> expected bytes over the
    collective; ``sender_bytes`` maps (spine, sending leaf) -> expected
    bytes.
    """

    leaf: int
    port_bytes: dict[int, float] = field(default_factory=dict)
    sender_bytes: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        return sum(self.port_bytes.values())

    def expected_ports(self) -> frozenset[int]:
        """Spine ports predicted to carry any traffic."""
        return frozenset(p for p, v in self.port_bytes.items() if v > 0)


@dataclass(frozen=True)
class LoadPrediction:
    """Fabric-wide prediction: one :class:`PortPrediction` per leaf."""

    per_leaf: tuple[PortPrediction, ...]

    def for_leaf(self, leaf: int) -> PortPrediction:
        if not 0 <= leaf < len(self.per_leaf):
            raise PredictionError(
                f"leaf {leaf} outside the {len(self.per_leaf)}-leaf prediction"
            )
        prediction = self.per_leaf[leaf]
        if prediction.leaf != leaf:
            raise PredictionError(f"prediction misordered at leaf {leaf}")
        return prediction

    @property
    def n_leaves(self) -> int:
        return len(self.per_leaf)

    @property
    def total_bytes(self) -> float:
        return sum(p.total_bytes for p in self.per_leaf)


class LoadPredictor:
    """Interface for per-link load models (paper §5.2).

    Stateless predictors (analytical, simulation) compute their
    prediction up front; the learning predictor builds it from observed
    iterations and must be fed through :meth:`update`.
    """

    name = "base"

    @property
    def ready(self) -> bool:
        """Whether :meth:`predict` can be called."""
        return True

    def predict(self) -> LoadPrediction:
        """The expected per-port volumes for one collective iteration."""
        raise NotImplementedError

    def update(self, records) -> "LearningEvent":
        """Feed one iteration's observed records (no-op for stateless
        predictors); returns what the predictor did with them."""
        from .learning import LearningEvent

        return LearningEvent.NONE
