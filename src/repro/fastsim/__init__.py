"""Fast statistical volume simulator (sweep-scale substitute for ns-3)."""

from .model import (
    FabricModel,
    expected_iteration,
    run_iterations,
    run_segments,
    simulate_iteration,
    simulate_iteration_with_spines,
    simulate_segment,
)
from .sampling import (
    FastSimError,
    deliver_packets,
    deliver_transfer_bytes,
    expected_arrival_bytes,
    spray_counts,
)

__all__ = [
    "FabricModel",
    "FastSimError",
    "deliver_packets",
    "deliver_transfer_bytes",
    "expected_arrival_bytes",
    "expected_iteration",
    "run_iterations",
    "run_segments",
    "simulate_iteration",
    "simulate_iteration_with_spines",
    "simulate_segment",
    "spray_counts",
]
