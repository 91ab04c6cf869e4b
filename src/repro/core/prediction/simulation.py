"""Simulation-based per-link load model (paper §5.2).

Higher-fidelity than the analytical model: it runs the fabric model
with *everything the operator knows* — disabled links **and** known
gray (partial-drop) faults — and takes the resulting per-port volumes
as the prediction.  Two backends:

- ``expected``: the closed-form mean of the statistical simulator
  (deterministic, instant);
- ``sampled``: average of ``n_runs`` sampled iterations (captures the
  spraying policy's bias exactly, at Monte-Carlo cost).

The paper notes that simulation costs "significant time and
computation... before every training job"; the ``sampled`` backend is
the honest stand-in for that cost, ``expected`` the cheap default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...collectives.demand import DemandMatrix
from .base import LoadPrediction, LoadPredictor, PortPrediction, PredictionError

if TYPE_CHECKING:
    from ...fastsim.model import FabricModel


class SimulationPredictor(LoadPredictor):
    """Prediction taken from simulating the known network state."""

    name = "simulation"

    def __init__(
        self,
        model: FabricModel,
        demand: DemandMatrix,
        backend: str = "expected",
        n_runs: int = 8,
        seed: int = 0,
    ) -> None:
        if backend not in ("expected", "sampled"):
            raise PredictionError(f"unknown backend {backend!r}")
        if n_runs < 1:
            raise PredictionError("need at least one simulation run")
        # The predictor must not know silent faults: use the healthy view.
        self.model = model.healthy_view()
        self.demand = demand
        self.backend = backend
        self.n_runs = n_runs
        self.seed = seed
        self._prediction = self._build()

    def _build(self) -> LoadPrediction:
        # Imported here: the simulator emits ``repro.core.blocks``
        # segments, so importing it while ``repro.core`` initializes
        # would be circular.
        from ...fastsim.model import expected_iteration, simulate_iteration

        if self.backend == "expected":
            records = expected_iteration(self.model, self.demand)
            return _records_to_prediction(records)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        accumulated: list[dict[int, float]] = [
            dict() for _ in range(self.model.spec.n_leaves)
        ]
        accumulated_senders: list[dict[tuple[int, int], float]] = [
            dict() for _ in range(self.model.spec.n_leaves)
        ]
        for _run in range(self.n_runs):
            records = simulate_iteration(self.model, self.demand, rng)
            for record in records:
                ports = accumulated[record.leaf]
                senders = accumulated_senders[record.leaf]
                for spine, size in record.port_bytes.items():
                    ports[spine] = ports.get(spine, 0.0) + size / self.n_runs
                for key, size in record.sender_bytes.items():
                    senders[key] = senders.get(key, 0.0) + size / self.n_runs
        return LoadPrediction(
            per_leaf=tuple(
                PortPrediction(
                    leaf=leaf,
                    port_bytes=accumulated[leaf],
                    sender_bytes=accumulated_senders[leaf],
                )
                for leaf in range(self.model.spec.n_leaves)
            )
        )

    def predict(self) -> LoadPrediction:
        return self._prediction


def _records_to_prediction(records) -> LoadPrediction:
    """Convert iteration records (observed or expected) to a prediction."""
    per_leaf = tuple(
        PortPrediction(
            leaf=record.leaf,
            port_bytes={p: float(v) for p, v in record.port_bytes.items()},
            sender_bytes={k: float(v) for k, v in record.sender_bytes.items()},
        )
        for record in sorted(records, key=lambda r: r.leaf)
    )
    return LoadPrediction(per_leaf=per_leaf)
