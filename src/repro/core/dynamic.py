"""Dynamic-demand monitoring (paper §7, "Beyond reduction collectives").

Reduction collectives repeat the same demand matrix every iteration, so
one prediction serves the whole job.  Expert-parallel AllToAll traffic
changes its demand matrix per iteration; the paper's proposed extension
is to extract the demand each iteration, recompute the expected load,
and push updated expectations to the switches.

:class:`DynamicDemandMonitor` implements that loop: callers provide the
iteration's demand matrix alongside the measured records, the monitor
rebuilds the per-link load model (analytical, fault-aware) for exactly
that demand and hands it to an ordinary :class:`FlowPulseMonitor`, so
detection and localization are the static case's.  The cost the paper
worries about — recomputing and redistributing the expectations — is
surfaced via :attr:`predictions_computed`.
"""

from __future__ import annotations

from ..collectives.demand import DemandMatrix
from ..simnet.counters import IterationRecord
from ..topology.graph import ClosSpec
from .detection import DetectionConfig
from .monitor import FlowPulseMonitor, IterationVerdict
from .prediction import AnalyticalPredictor


class DynamicDemandMonitor:
    """FlowPulse for collectives whose demand changes every iteration."""

    def __init__(
        self,
        spec: ClosSpec,
        known_disabled: frozenset[str] = frozenset(),
        config: DetectionConfig | None = None,
    ) -> None:
        self.spec = spec
        self.known_disabled = frozenset(known_disabled)
        self.config = config or DetectionConfig()
        #: Scores every iteration; its predictor is replaced by that
        #: iteration's before each call.
        self.monitor = FlowPulseMonitor(None, self.config)
        #: How many per-iteration predictions were computed — the
        #: recurring control-plane cost unique to the dynamic case.
        self.predictions_computed = 0

    def process_iteration(
        self, demand: DemandMatrix, records: list[IterationRecord]
    ) -> IterationVerdict:
        """Monitor one iteration against its own demand matrix."""
        self.monitor.predictor = AnalyticalPredictor(
            self.spec, demand, known_disabled=self.known_disabled
        )
        self.predictions_computed += 1
        return self.monitor.process_iteration(records)

    def process_run(self, iterations) -> list[IterationVerdict]:
        """Monitor a sequence of (demand, records) pairs."""
        return [
            self.process_iteration(demand, records)
            for demand, records in iterations
        ]
