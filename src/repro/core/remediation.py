"""Operator remediation loop: detect -> localize -> confirm -> disable.

The paper's opening argument (§1) is that faulty components must be
quickly *detected, localized, and disabled* — excluded from routing so
the fabric's resilience can route around them until the next
maintenance window.  This module closes that loop on top of the
monitor:

1. :class:`ConfirmationPolicy` turns raw per-iteration suspicions into
   confirmed faults (a cable must be implicated in ``confirm_after`` of
   the last ``window`` monitored iterations — one noisy iteration never
   takes a link out of service).
2. :class:`RemediationEngine` turns a confirmed cable into an action
   covering both directions of the cable, as a switch OS would.
3. :class:`ClosedLoop` runs the whole loop for one monitored job on any
   substrate: it monitors each finished iteration, vetoes an action
   that would partition the fabric, applies the rest to the control
   plane, and rebuilds the load model so temporal symmetry is
   re-established over the surviving links.  The fast simulator and
   the packet-level simulator both drive this one class.

Disabling on suspicion is deliberately conservative: when localization
narrows a deficit to two candidate cables (the single-sender ring case,
see :mod:`repro.core.localization`), the engine takes both out of
service — the fabric loses one healthy cable but regains a clean
symmetry baseline, which mirrors operator practice of erring toward
draining hardware.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from ..collectives.demand import DemandMatrix
from ..simnet.counters import IterationRecord
from ..topology.graph import ControlPlane, down_link, parse_fabric_link, up_link
from .detection import DetectionConfig
from .monitor import FlowPulseMonitor, IterationVerdict
from .prediction import AnalyticalPredictor, LearnedPredictor

if TYPE_CHECKING:
    from ..collectives.schedule import StallReport


class RemediationError(RuntimeError):
    """Raised on inconsistent remediation configuration."""


@dataclass(frozen=True)
class ConfirmationPolicy:
    """How much evidence is needed before a cable is disabled.

    A cable is confirmed when it is implicated in at least
    ``confirm_after`` of the last ``window`` monitored iterations.
    """

    confirm_after: int = 2
    window: int = 4

    def __post_init__(self) -> None:
        if self.confirm_after < 1:
            raise RemediationError("confirm_after must be at least 1")
        if self.window < self.confirm_after:
            raise RemediationError("window must cover confirm_after iterations")


def cable_of(link: str) -> tuple[int, int]:
    """Normalize a directional link name to its physical cable
    (leaf, spine)."""
    _direction, leaf, spine = parse_fabric_link(link)
    return leaf, spine


def cable_links(cable: tuple[int, int]) -> frozenset[str]:
    """Both directional link names of a physical cable."""
    leaf, spine = cable
    return frozenset({up_link(leaf, spine), down_link(spine, leaf)})


def cable_of3(link: str) -> tuple:
    """Three-level cable normalization: maps a directional link name of
    a pod fabric (``up:/down:`` pod links, ``csup:/csdown:`` core links)
    to its physical cable identity."""
    direction, rest = link.split(":", 1)
    a, b = rest.split("->")
    if direction in ("up", "down"):
        leaf_part, spine_part = (a, b) if direction == "up" else (b, a)
        return ("pod", leaf_part, spine_part)
    if direction in ("csup", "csdown"):
        spine_part, core_part = (a, b) if direction == "csup" else (b, a)
        return ("core", spine_part, core_part)
    raise RemediationError(f"not a three-level link name: {link!r}")


def cable_links3(cable: tuple) -> frozenset[str]:
    """Both directional names of a three-level physical cable."""
    kind, x, y = cable
    if kind == "pod":
        return frozenset({f"up:{x}->{y}", f"down:{y}->{x}"})
    if kind == "core":
        return frozenset({f"csup:{x}->{y}", f"csdown:{y}->{x}"})
    raise RemediationError(f"unknown cable kind {kind!r}")


@dataclass
class RemediationAction:
    """One confirmed fault and the links taken out of service."""

    iteration: int
    cables: frozenset[tuple[int, int]]
    disabled_links: frozenset[str]


@dataclass
class RemediationEngine:
    """Tracks suspicions across iterations and disables confirmed cables.

    The engine is transport-agnostic: callers feed it
    :class:`~repro.core.monitor.IterationVerdict` objects and apply the
    returned actions to whatever holds the routing state (a
    :class:`~repro.topology.graph.ControlPlane`, a
    :class:`~repro.fastsim.model.FabricModel`, or a live
    :class:`~repro.simnet.network.Network`).
    """

    policy: ConfirmationPolicy = field(default_factory=ConfirmationPolicy)
    history: deque = field(default_factory=deque)
    actions: list[RemediationAction] = field(default_factory=list)
    disabled_cables: set = field(default_factory=set)
    #: Cable-identity functions; swap for :func:`cable_of3` /
    #: :func:`cable_links3` when remediating a three-level fabric.
    cable_fn: Callable[[str], tuple] = cable_of
    links_fn: Callable[[tuple], frozenset] = cable_links

    def observe(self, verdict: IterationVerdict) -> RemediationAction | None:
        """Feed one monitored iteration; returns an action if a cable
        crossed the confirmation bar.

        Accepts anything exposing ``iteration``, ``suspected_links()``
        and (optionally) ``skipped`` — both two-level and three-level
        verdicts qualify.
        """
        if getattr(verdict, "skipped", False):
            return None
        implicated = {self.cable_fn(link) for link in verdict.suspected_links()}
        self.history.append(implicated)
        while len(self.history) > self.policy.window:
            self.history.popleft()

        confirmed = set()
        for cable in implicated:
            if cable in self.disabled_cables:
                continue
            count = sum(1 for past in self.history if cable in past)
            if count >= self.policy.confirm_after:
                confirmed.add(cable)
        if not confirmed:
            return None
        self.disabled_cables.update(confirmed)
        links = frozenset(
            link for cable in confirmed for link in self.links_fn(cable)
        )
        action = RemediationAction(
            iteration=verdict.iteration,
            cables=frozenset(confirmed),
            disabled_links=links,
        )
        self.actions.append(action)
        return action

    @property
    def total_disabled_links(self) -> frozenset[str]:
        return frozenset(
            link for action in self.actions for link in action.disabled_links
        )

    def reset_history(self) -> None:
        """Clear the evidence window (e.g. after the model is rebuilt)."""
        self.history.clear()


@dataclass(frozen=True)
class ClosedLoopStep:
    """One monitored iteration of a closed-loop run, on any substrate."""

    iteration: int
    start_ns: int
    end_ns: int
    triggered: bool
    max_score: float
    suspected_links: frozenset[str]
    action: RemediationAction | None  # applied at this iteration's end
    vetoed: bool  # action confirmed but withheld (would partition)
    disabled_so_far: frozenset[str]


@dataclass
class ClosedLoopResult:
    """Outcome of a closed-loop run.

    The loop records steps and actions; the substrate records how far
    its collective got (only a packet-level one can stall or give up).
    """

    threshold: float
    steps: list[ClosedLoopStep] = field(default_factory=list)
    actions: list[RemediationAction] = field(default_factory=list)
    vetoed_actions: list[RemediationAction] = field(default_factory=list)
    #: ``(time ns, FaultEvent)`` pairs, in firing order.
    applied_fault_events: list[tuple] = field(default_factory=list)
    stall: StallReport | None = None
    failed_messages: int = 0
    iterations_completed: int = 0

    @property
    def detection_iteration(self) -> int | None:
        return next((s.iteration for s in self.steps if s.triggered), None)

    @property
    def remediation_iteration(self) -> int | None:
        return next((s.iteration for s in self.steps if s.action is not None), None)

    @property
    def stalled(self) -> bool:
        return self.stall is not None

    def post_remediation_steps(self) -> list[ClosedLoopStep]:
        last = self.remediation_iteration
        if last is None:
            return []
        return [s for s in self.steps if s.iteration > last]

    @property
    def post_remediation_max_score(self) -> float:
        return max(
            (s.max_score for s in self.post_remediation_steps()), default=0.0
        )

    @property
    def recovered(self) -> bool:
        """Symmetry restored: monitored iterations after the last
        remediation exist, are quiet, and sit under the threshold."""
        tail = self.post_remediation_steps()
        return (
            bool(tail)
            and not any(s.triggered for s in tail)
            and self.post_remediation_max_score < self.threshold
        )


class ClosedLoop:
    """detect -> confirm -> veto/apply -> rebaseline for one monitored job.

    The substrate runs the collective, hands each finished iteration's
    leaf records to :meth:`observe`, and routes on ``control``, the
    control plane the loop remediates.  ``remediation="reroute"`` only
    removes a cable from the spray candidate set (R2CCL-style) instead
    of taking it out of service; ``predictor="learned"`` re-measures
    the baseline over ``warmup_iterations`` (paper §5.2) instead of
    using the analytical even split.
    """

    def __init__(
        self,
        demand: DemandMatrix,
        control: ControlPlane,
        *,
        threshold: float = 0.01,
        policy: ConfirmationPolicy | None = None,
        predictor: str = "analytical",
        warmup_iterations: int = 2,
        remediation: str = "disable",
        job_id: int = 1,
        telemetry=None,
    ) -> None:
        self.demand = demand
        self.control = control
        self.threshold = threshold
        self.predictor = predictor
        self.warmup_iterations = warmup_iterations
        self.remediation = remediation
        self.job_id = job_id
        self.telemetry = telemetry
        self.engine = RemediationEngine(policy=policy or ConfirmationPolicy())
        self.result = ClosedLoopResult(threshold=threshold)
        self.rebaseline()

    def rebaseline(self) -> None:
        """Start a fresh monitor on the current routing state."""
        if self.predictor == "learned":
            predictor: AnalyticalPredictor | LearnedPredictor = LearnedPredictor(
                warmup_iterations=self.warmup_iterations,
                deviation_trigger=self.threshold,
            )
        else:
            # The even split follows where *new* traffic can go:
            # rerouted-around links shift load exactly like disabled
            # ones, so the model sees the union.
            predictor = AnalyticalPredictor(
                self.control.spec,
                self.demand,
                known_disabled=self.control.routing_excluded,
            )
        self.monitor = FlowPulseMonitor(
            predictor,
            DetectionConfig(threshold=self.threshold),
            telemetry=self.telemetry,
        )

    def observe(
        self,
        iteration: int,
        records: list[IterationRecord],
        start_ns: int,
        end_ns: int,
    ) -> RemediationAction | None:
        """Monitor one finished iteration; returns the action applied
        at its end, if any."""
        verdict = self.monitor.process_iteration(records)
        action = self.engine.observe(verdict)
        applied = action is not None and self.remediate(action, end_ns)
        self.result.steps.append(
            ClosedLoopStep(
                iteration=iteration,
                start_ns=start_ns,
                end_ns=end_ns,
                triggered=verdict.triggered,
                max_score=verdict.max_score,
                suspected_links=verdict.suspected_links(),
                action=action if applied else None,
                vetoed=action is not None and not applied,
                disabled_so_far=self.control.routing_excluded,
            )
        )
        return action if applied else None

    def remediate(self, action: RemediationAction, time_ns: int) -> bool:
        """Apply one confirmed action, or veto it; True if applied.

        The action is vetoed if it would leave any leaf pair the
        collective depends on without a spray candidate: the switch OS
        refuses to take the last path out of service, and reroute-only
        remediation refuses to steer all new traffic off it.  An applied
        action invalidates the baseline and the evidence window, which
        both describe the old topology.
        """
        links = action.disabled_links
        take_out = (
            ControlPlane.exclude_from_spray
            if self.remediation == "reroute"
            else ControlPlane.disable
        )
        candidate = replace(self.control)
        take_out(candidate, *links)
        applied = all(
            candidate.reachable(src, dst)
            for src, dst in self.demand.leaf_pairs(self.control.spec)
        )
        if applied:
            take_out(self.control, *links)
        if self.telemetry is not None:
            # One payload shape for both outcomes, so the forensics
            # pipeline reads one remediation stream split on ``outcome``.
            self.telemetry.emit(
                "closedloop.remediation" if applied else "closedloop.veto",
                time_ns=time_ns,
                job_id=self.job_id,
                iteration=action.iteration,
                outcome="applied" if applied else "vetoed",
                mode=self.remediation,
                links=sorted(links),
            )
            if applied:
                self.telemetry.counter("closedloop.remediations").inc()
        if not applied:
            self.result.vetoed_actions.append(action)
            return False
        self.result.actions.append(action)
        self.rebaseline()
        self.engine.reset_history()
        return True
