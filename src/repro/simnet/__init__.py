"""Packet-level discrete-event network simulator.

This package is the repo's substitute for the paper's ns-3 setup: a
deterministic event engine, two-level Clos fabrics with per-packet
spraying, lossless queues with PFC, a RoCE-like reordering-tolerant
reliable transport, silent-fault injection, and the switch-side
counters FlowPulse reads.
"""

from .congestion import CongestionConfig, CongestionError, CongestionWindow
from .counters import CollectiveCollector, IterationRecord, PortCounters
from .engine import EventHandle, SimulationError, Simulator
from .faults import (
    BlackHoleFault,
    ConditionalFault,
    CorruptionFault,
    DisconnectFault,
    DropFault,
    FaultInjector,
    FaultInjectorError,
    FlowSubsetFault,
    IngressConditionedFault,
    IntermittentDropFault,
    LinkFault,
    LoadDependentFault,
    TransientDropFault,
)
from .host import Host
from .link import Link, Node
from .network import Network
from .packet import ACK_SIZE, FlowTag, Packet, PacketKind, Priority
from .pfc import PfcConfig, PfcController
from .queues import PriorityByteQueue
from .spraying import (
    EcmpHash,
    FlowletSpray,
    LeastQueueSpray,
    PowerOfTwoSpray,
    RandomSpray,
    RoundRobinSpray,
    SprayPolicy,
    make_policy,
)
from .stats import FctSummary, FctTracker, FlowRecord
from .switch import LeafSwitch, RoutingError, SpineSwitch
from .trace import TraceEvent, Tracer
from .transport import GiveupPolicy, ReliableTransport, TransportError

__all__ = [
    "ACK_SIZE",
    "BlackHoleFault",
    "CollectiveCollector",
    "ConditionalFault",
    "CongestionConfig",
    "CongestionError",
    "CongestionWindow",
    "CorruptionFault",
    "DisconnectFault",
    "DropFault",
    "EcmpHash",
    "EventHandle",
    "FaultInjector",
    "FaultInjectorError",
    "FctSummary",
    "FctTracker",
    "FlowRecord",
    "FlowSubsetFault",
    "FlowTag",
    "FlowletSpray",
    "GiveupPolicy",
    "Host",
    "IngressConditionedFault",
    "IntermittentDropFault",
    "IterationRecord",
    "LeafSwitch",
    "LeastQueueSpray",
    "Link",
    "LinkFault",
    "LoadDependentFault",
    "Network",
    "Node",
    "Packet",
    "PacketKind",
    "PfcConfig",
    "PfcController",
    "PortCounters",
    "PowerOfTwoSpray",
    "Priority",
    "PriorityByteQueue",
    "RandomSpray",
    "ReliableTransport",
    "RoundRobinSpray",
    "RoutingError",
    "SimulationError",
    "Simulator",
    "SprayPolicy",
    "SpineSwitch",
    "TraceEvent",
    "Tracer",
    "TransientDropFault",
    "TransportError",
    "make_policy",
]
