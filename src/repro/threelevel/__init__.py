"""Three-level fabric extension (paper §7): FlowPulse at leaf + spine
tiers of a pod-based fat tree."""

from .model import (
    ThreeLevelModel,
    ThreeLevelRecords,
    demand_by_leaf_pair,
    run_iterations3,
    simulate_iteration3,
)
from .monitor import ThreeLevelMonitor, ThreeLevelVerdict, predict_three_level
from .network import (
    CoreSwitch,
    PodLeafSwitch,
    PodSpineSwitch,
    ThreeLevelNetwork,
)
from .topology import (
    ThreeLevelControlPlane,
    ThreeLevelError,
    ThreeLevelSpec,
    core_down_link,
    core_up_link,
    pod_down_link,
    pod_up_link,
)

__all__ = [
    "CoreSwitch",
    "PodLeafSwitch",
    "PodSpineSwitch",
    "ThreeLevelControlPlane",
    "ThreeLevelNetwork",
    "ThreeLevelError",
    "ThreeLevelModel",
    "ThreeLevelMonitor",
    "ThreeLevelRecords",
    "ThreeLevelSpec",
    "ThreeLevelVerdict",
    "core_down_link",
    "core_up_link",
    "demand_by_leaf_pair",
    "pod_down_link",
    "pod_up_link",
    "predict_three_level",
    "run_iterations3",
    "simulate_iteration3",
]
