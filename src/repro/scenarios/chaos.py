"""Seeded chaos harness for the packet-level closed loop.

Generates randomized-but-reproducible fault scenarios (fabric size,
faulted link, fault kind, onset time, lifecycle), runs each through
:func:`~repro.scenarios.closed_loop.run_simnet_closed_loop`, and checks
a set of invariants that must hold no matter what the scenario does:

- **Liveness** — the run terminates and completes every iteration; a
  stall is only acceptable when the watchdog converted it into a
  :class:`~repro.collectives.schedule.StallReport` (never a hang).
- **Packet conservation** — on every link, packets transmitted equal
  packets delivered plus packets consumed by faults plus overflow drops
  plus packets still queued at stop time.
- **Transport accounting** — per host, messages sent equal messages
  completed plus failed plus in flight (zero in flight after a clean
  finish).
- **Detection latency** — a detectable persistent fault is flagged
  within ``detection_slack`` iterations of onset.
- **Recovery** — after the last remediation the monitored tail is quiet
  and under the detection threshold; healthy runs never trigger at all.
- **Determinism** — the same seed reproduces the same outcome digest.

Every scenario derives from a single integer seed, so a failing case
reported by CI (`repro chaos`) replays locally with the same number.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from ..core.remediation import ClosedLoopResult
from ..simnet.congestion import CongestionConfig
from ..simnet.faults import (
    ConditionalFault,
    DisconnectFault,
    DropFault,
    FlowSubsetFault,
    IngressConditionedFault,
    LoadDependentFault,
)
from ..topology.graph import down_link, up_link
from .closed_loop import SimnetClosedLoopConfig, SimnetClosedLoopDriver
from .script import FaultEvent

#: Scenario families the generator draws from.  ``healthy`` keeps the
#: false-positive rate honest; the others exercise the inject / degrade
#: / disconnect / heal lifecycle verbs.
KINDS = (
    "healthy",
    "persistent_drop",
    "silent_disconnect",
    "escalating",
    "transient",
)

#: Gray-failure study families (see :mod:`repro.greylab`):
#: ``congested_healthy`` runs a fault-free fabric under ECN-coupled
#: congestion (the detector must stay quiet — congestion is not a
#: fault); ``gray_conditional`` injects a conditional fault whose
#: firing depends on where the spray policy routes traffic;
#: ``cotenant`` shares the fabric between the monitored job and
#: background collectives.
GREYLAB_KINDS = (
    "congested_healthy",
    "gray_conditional",
    "cotenant",
)

ALL_KINDS = KINDS + GREYLAB_KINDS


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for a chaos batch."""

    n_scenarios: int = 20
    base_seed: int = 0
    n_iterations: int = 8
    collective_bytes: int = 750_000
    mtu: int = 1024
    #: Detection threshold; must sit above round-robin packet
    #: quantization noise (~ mtu * n_spines * n_hosts / bytes) for the
    #: largest generated fabric and below every generated drop rate.
    threshold: float = 0.05
    #: A detectable fault must trigger within this many iterations of
    #: its onset iteration.
    detection_slack: int = 3
    #: Run every scenario twice and compare outcome digests.
    verify_determinism: bool = False
    #: Families the generator draws from (uniformly, from the
    #: scenario's own rng).
    kinds: tuple[str, ...] = KINDS
    #: Spray policy for generated runs.  ``ecmp`` switches the monitor
    #: to the learned predictor automatically: the analytical even
    #: split is structurally wrong for flow-pinned routing.
    spray: str = "round_robin"
    #: How confirmed faults are remediated (``disable`` or ``reroute``).
    remediation: str = "disable"
    #: ECN marking threshold + DCQCN reaction for generated runs.
    #: ``congested_healthy`` scenarios force a congestion layer even
    #: when these are unset.
    ecn_threshold_bytes: int | None = None
    congestion: CongestionConfig | None = None
    #: Conditional faults must have actually dropped at least this many
    #: packets before the invariants demand a detection; below it the
    #: spray policy routed (almost) nothing into the fault and a quiet
    #: monitor is the *correct* outcome.
    conditional_drop_floor: int = 150
    #: Pin the fabric to ``(n_leaves, n_spines)`` instead of drawing it
    #: per seed.  The gray-failure study pins its cells so the
    #: shot-noise floor (and with it the usable threshold) is constant
    #: across the whole policy x congestion matrix.
    fabric: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        unknown = set(self.kinds) - set(ALL_KINDS)
        if unknown:
            raise ValueError(f"unknown scenario kinds: {sorted(unknown)}")
        if not self.kinds:
            raise ValueError("need at least one scenario kind")


@dataclass(frozen=True)
class Scenario:
    """One fully specified chaos scenario (pure data, no live objects)."""

    seed: int
    kind: str
    config: SimnetClosedLoopConfig
    iteration_faults: dict[int, list[FaultEvent]]
    fault_iteration: int | None
    fault_link: str | None
    #: Whether the invariant checker should demand a detection.
    detectable: bool
    #: True for conditional gray faults: whether a detection is
    #: demanded (or forbidden) is decided *empirically* after the run,
    #: from how much traffic the spray policy routed into the fault.
    conditional: bool = False

    def describe(self) -> str:
        where = f" on {self.fault_link} @ iter {self.fault_iteration}" if self.fault_link else ""
        return (
            f"seed={self.seed} {self.kind}{where} "
            f"({self.config.n_leaves}x{self.config.n_spines})"
        )


@dataclass
class ChaosOutcome:
    """Result of running one scenario through the closed loop."""

    scenario: Scenario
    result: ClosedLoopResult
    violations: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosReport:
    """Aggregate over a chaos batch."""

    config: ChaosConfig
    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def n_passed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def n_failed(self) -> int:
        return len(self.outcomes) - self.n_passed

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def failures(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> str:
        lines = [
            f"chaos: {self.n_passed}/{len(self.outcomes)} scenarios passed"
        ]
        for outcome in self.failures():
            lines.append(f"  FAIL {outcome.scenario.describe()}")
            for violation in outcome.violations:
                lines.append(f"       - {violation}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def _random_fabric_link(rng: random.Random, n_leaves: int, n_spines: int) -> str:
    leaf = rng.randrange(n_leaves)
    spine = rng.randrange(n_spines)
    if rng.random() < 0.5:
        return up_link(leaf, spine)
    return down_link(spine, leaf)


def _conditional_scenario(
    seed: int,
    rng: random.Random,
    config: SimnetClosedLoopConfig,
    chaos: ChaosConfig,
) -> Scenario:
    """A gray fault whose firing depends on the spray policy.

    Three flavours, drawn uniformly:

    - ``ingress``: a spine's downlink corrupts exactly the traffic that
      entered through one leaf's uplink (a bad ingress port).  The
      victim pair is a ring edge, so the flow exists; whether packets
      are exposed depends on whether the policy sprays through that
      spine.
    - ``load``: a link drops only while its egress queue is backlogged
      (marginal optics under utilization).
    - ``flow_subset``: half the flows (by hash) die on one link
      (polarized gray failure).

    The onset leaves room for the learned predictor's warmup when the
    monitor runs one: a fault inside the warmup window would be baked
    into the baseline and invisible forever — a real phenomenon, but
    not the one this family tests.
    """
    min_onset = config.warmup_iterations if config.predictor == "learned" else 1
    onset = rng.randint(min_onset, min_onset + 2)
    flavor = rng.choice(("ingress", "load", "flow_subset"))
    if flavor == "ingress":
        victim = rng.randrange(config.n_leaves)
        dst = (victim + 1) % config.n_leaves
        spine = rng.randrange(config.n_spines)
        link = down_link(spine, dst)
        fault: ConditionalFault = IngressConditionedFault(
            rate=1.0, ingress_link=up_link(victim, spine)
        )
    elif flavor == "load":
        link = _random_fabric_link(rng, config.n_leaves, config.n_spines)
        fault = LoadDependentFault(
            rate=round(rng.uniform(0.5, 0.9), 3), min_queue_bytes=config.mtu
        )
    else:
        link = _random_fabric_link(rng, config.n_leaves, config.n_spines)
        fault = FlowSubsetFault(
            rate=1.0, modulus=2, residues=frozenset({rng.randrange(2)})
        )
    return Scenario(
        seed=seed,
        kind="gray_conditional",
        config=config,
        iteration_faults={onset: [FaultEvent(0, "inject", link, fault)]},
        fault_iteration=onset,
        fault_link=link,
        detectable=True,
        conditional=True,
    )


def generate_scenario(seed: int, chaos: ChaosConfig | None = None) -> Scenario:
    """Deterministically expand ``seed`` into one scenario.

    Host links are deliberately out of scope: FlowPulse measures at the
    spine ingress of each leaf, so host-link faults are a different
    detector's problem (NIC counters), not a fabric-symmetry signal.
    """
    chaos = chaos or ChaosConfig()
    rng = random.Random(seed)
    kind = rng.choice(chaos.kinds)
    if chaos.fabric is not None:
        # Consume the size draws anyway so later draws (onset, rates)
        # stay aligned with the unpinned stream.
        rng.choice((4, 5, 6))
        rng.choice((3, 4))
        n_leaves, n_spines = chaos.fabric
    else:
        n_leaves = rng.choice((4, 5, 6))
        n_spines = rng.choice((3, 4))
    predictor = "learned" if chaos.spray == "ecmp" else "analytical"
    ecn_threshold = chaos.ecn_threshold_bytes
    congestion = chaos.congestion
    hosts_per_leaf = 1
    background_jobs = 0
    if kind == "congested_healthy":
        # Force a congestion layer: the whole point of the family is
        # marking + DCQCN backoff with no fault anywhere.
        if ecn_threshold is None:
            ecn_threshold = rng.choice((4096, 8192, 16384))
        if congestion is None:
            congestion = CongestionConfig()
    elif kind == "cotenant":
        background_jobs = rng.randint(1, 2)
        hosts_per_leaf = 1 + background_jobs
    config = SimnetClosedLoopConfig(
        n_leaves=n_leaves,
        n_spines=n_spines,
        hosts_per_leaf=hosts_per_leaf,
        collective_bytes=chaos.collective_bytes,
        n_iterations=chaos.n_iterations,
        mtu=chaos.mtu,
        spray=chaos.spray,
        threshold=chaos.threshold,
        seed=seed,
        remediation=chaos.remediation,
        predictor=predictor,
        ecn_threshold_bytes=ecn_threshold,
        congestion=congestion,
        background_jobs=background_jobs,
    )
    if kind in ("healthy", "congested_healthy", "cotenant"):
        return Scenario(
            seed=seed,
            kind=kind,
            config=config,
            iteration_faults={},
            fault_iteration=None,
            fault_link=None,
            detectable=False,
        )
    if kind == "gray_conditional":
        return _conditional_scenario(seed, rng, config, chaos)

    link = _random_fabric_link(rng, n_leaves, n_spines)
    onset = rng.randint(1, 3)
    rate = round(rng.uniform(0.2, 0.6), 3)
    faults: dict[int, list[FaultEvent]] = {}
    if kind == "persistent_drop":
        faults[onset] = [FaultEvent(0, "inject", link, DropFault(rate))]
        detectable = True
    elif kind == "silent_disconnect":
        faults[onset] = [
            FaultEvent(0, "inject", link, DisconnectFault(known=False))
        ]
        detectable = True
    elif kind == "escalating":
        # Goes gray, then worsens — or dies outright — two iterations on.
        faults[onset] = [FaultEvent(0, "inject", link, DropFault(rate))]
        if rng.random() < 0.5:
            escalation = FaultEvent(0, "degrade", link, DropFault(min(0.9, rate * 2)))
        else:
            escalation = FaultEvent(0, "disconnect", link, DisconnectFault(known=False))
        faults[onset + 2] = [escalation]
        detectable = True
    else:  # transient: one faulty iteration, then heals on its own
        faults[onset] = [FaultEvent(0, "inject", link, DropFault(rate))]
        faults[onset + 1] = [FaultEvent(0, "heal", link)]
        detectable = True
    return Scenario(
        seed=seed,
        kind=kind,
        config=config,
        iteration_faults=faults,
        fault_iteration=onset,
        fault_link=link,
        detectable=detectable,
    )


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
def check_invariants(
    scenario: Scenario,
    result: ClosedLoopResult,
    driver: SimnetClosedLoopDriver,
    chaos: ChaosConfig | None = None,
) -> list[str]:
    """Return every invariant the finished run violates (empty = pass)."""
    chaos = chaos or ChaosConfig()
    violations: list[str] = []
    config = scenario.config

    conditional_fault = None
    if scenario.conditional:
        fault = driver.network.injector.fault_on(scenario.fault_link)
        if isinstance(fault, ConditionalFault):
            conditional_fault = fault
        else:
            violations.append(
                f"conditional: fault on {scenario.fault_link} is "
                f"{type(fault).__name__}, not a ConditionalFault"
            )

    # A flow-pinning policy that routes a victim flow into an in-path
    # total-loss fault hangs that flow: every retransmission takes the
    # same pinned path.  The watchdog converting that hang into a
    # StallReport *is* the liveness guarantee — the stall is the
    # expected failure mode, not a harness bug.
    stall_excused = (
        result.stalled
        and conditional_fault is not None
        and conditional_fault.dropped_packets > 0
    )

    # Liveness: the run must have completed; a watchdog stall would be
    # a real finding for these scenarios (spare spines always exist).
    if result.stalled:
        if not stall_excused:
            violations.append(
                f"liveness: run stalled at iteration {result.iterations_completed} "
                f"({result.stall.summary()})"
            )
    elif result.iterations_completed != config.n_iterations:
        violations.append(
            "liveness: run ended early without a stall report "
            f"({result.iterations_completed}/{config.n_iterations})"
        )

    # Co-tenant liveness: every background collective must also finish.
    for runner in driver.background_runners:
        if runner.stalled:
            violations.append(
                f"liveness: background job {runner.job_id} stalled "
                f"({runner.stall_report.summary()})"
            )
        elif not result.stalled and (
            len(runner.iteration_times) != config.n_iterations
        ):
            violations.append(
                f"liveness: background job {runner.job_id} finished only "
                f"{len(runner.iteration_times)}/{config.n_iterations} iterations"
            )

    # Packet conservation on every link.
    for name, link in driver.network.links.items():
        accounted = (
            link.delivered_packets
            + link.faulted_packets
            + link.overflow_packets
            + len(link.queue)
        )
        if link.tx_packets != accounted:
            violations.append(
                f"conservation: link {name} tx={link.tx_packets} "
                f"!= delivered={link.delivered_packets} + faulted={link.faulted_packets} "
                f"+ overflow={link.overflow_packets} + queued={len(link.queue)}"
            )

    # Transport accounting on every host.
    for host in driver.network.hosts:
        transport = host.transport
        balance = (
            transport.completed_messages
            + transport.failed_messages
            + transport.inflight_messages
        )
        if transport.sent_messages != balance:
            violations.append(
                f"transport: host {host.index} sent={transport.sent_messages} "
                f"!= completed={transport.completed_messages} "
                f"+ failed={transport.failed_messages} "
                f"+ inflight={transport.inflight_messages}"
            )
        if not result.stalled and transport.inflight_messages:
            violations.append(
                f"transport: host {host.index} finished with "
                f"{transport.inflight_messages} messages in flight"
            )

    # Detection latency for detectable faults.  Conditional gray faults
    # decide both directions *empirically* from the fault's own books:
    # enough dropped traffic and the monitor must fire; a policy that
    # never routed a packet into the fault leaves the fabric observably
    # healthy, and any alarm is a false positive.  Between the two (a
    # trickle of exposure) neither verdict is demanded.
    demand_detection = scenario.detectable
    forbid_detection = not scenario.detectable
    if scenario.conditional:
        demand_detection = forbid_detection = False
        if conditional_fault is not None:
            demand_detection = (
                conditional_fault.dropped_packets
                >= chaos.conditional_drop_floor
            ) and not stall_excused
            forbid_detection = conditional_fault.matched_packets == 0
    if demand_detection:
        detected = result.detection_iteration
        if detected is None:
            violations.append(
                f"detection: {scenario.kind} fault on {scenario.fault_link} "
                "never triggered the monitor"
            )
        elif not (
            scenario.fault_iteration
            <= detected
            <= scenario.fault_iteration + chaos.detection_slack
        ):
            violations.append(
                f"detection: triggered at iteration {detected}, outside "
                f"[{scenario.fault_iteration}, "
                f"{scenario.fault_iteration + chaos.detection_slack}]"
            )
    elif forbid_detection and result.detection_iteration is not None:
        violations.append(
            f"false positive: healthy run triggered at iteration "
            f"{result.detection_iteration} "
            f"(score {result.steps[result.detection_iteration].max_score:.4f})"
        )

    # Recovery: after the last remediation the fabric must look healthy
    # again.  Transient faults heal themselves and must need no action.
    if scenario.kind == "transient":
        if result.actions:
            violations.append(
                "recovery: self-healing fault was remediated anyway "
                f"(iteration {result.remediation_iteration})"
            )
        tail = [
            s for s in result.steps if s.iteration > scenario.fault_iteration + 1
        ]
        if tail and any(s.triggered for s in tail):
            violations.append("recovery: monitor still triggered after heal")
    elif result.actions:
        tail = result.post_remediation_steps()
        if tail and not stall_excused and not result.recovered:
            violations.append(
                "recovery: post-remediation deviation "
                f"{result.post_remediation_max_score:.4f} >= threshold "
                f"{config.threshold} or still triggered"
            )
    elif demand_detection and scenario.kind != "transient":
        violations.append(
            "recovery: persistent fault detected but never remediated"
        )
    return violations


def outcome_digest(result: ClosedLoopResult) -> str:
    """Stable fingerprint of everything observable about a run."""
    parts: list[str] = [
        f"completed={result.iterations_completed}",
        f"failed={result.failed_messages}",
        f"stalled={result.stalled}",
    ]
    for step in result.steps:
        parts.append(
            f"step:{step.iteration}:{step.end_ns}:{step.max_score:.12f}"
            f":{int(step.triggered)}:{int(step.vetoed)}"
            f":{','.join(sorted(step.disabled_so_far))}"
        )
    for action in result.actions:
        parts.append(
            f"action:{action.iteration}:{','.join(sorted(action.disabled_links))}"
        )
    for fired_at, event in result.applied_fault_events:
        parts.append(f"fault:{fired_at}:{event.action}:{event.link}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Scenario, chaos: ChaosConfig | None = None, telemetry=None
) -> ChaosOutcome:
    """Run one scenario and check every invariant against it.

    With telemetry attached, the scenario's whole event stream is
    bracketed by ``scenario.start`` / ``scenario.end`` markers carrying
    the ground truth (fault link, onset, detectability) and the outcome
    digest, so a batch's single JSONL log can be split back into
    per-scenario runs by any reader.
    """
    if telemetry is not None:
        telemetry.emit(
            "scenario.start",
            seed=scenario.seed,
            kind=scenario.kind,
            job_id=scenario.config.job_id,
            n_leaves=scenario.config.n_leaves,
            n_spines=scenario.config.n_spines,
            threshold=scenario.config.threshold,
            fault_link=scenario.fault_link,
            fault_iteration=scenario.fault_iteration,
            detectable=scenario.detectable,
            conditional=scenario.conditional,
            spray=scenario.config.spray,
            remediation=scenario.config.remediation,
            congested=scenario.config.ecn_threshold_bytes is not None,
            background_jobs=scenario.config.background_jobs,
        )
    driver = SimnetClosedLoopDriver(
        scenario.config,
        iteration_faults=scenario.iteration_faults,
        telemetry=telemetry,
    )
    result = driver.run()
    outcome = ChaosOutcome(
        scenario=scenario,
        result=result,
        violations=check_invariants(scenario, result, driver, chaos),
        digest=outcome_digest(result),
    )
    if telemetry is not None:
        telemetry.emit(
            "scenario.end",
            seed=scenario.seed,
            kind=scenario.kind,
            job_id=scenario.config.job_id,
            ok=outcome.ok,
            violations=list(outcome.violations),
            digest=outcome.digest,
            detection_iteration=result.detection_iteration,
            remediation_iteration=result.remediation_iteration,
            iterations_completed=result.iterations_completed,
            failed_messages=result.failed_messages,
            stalled=result.stalled,
            recovered=result.recovered,
        )
    return outcome


def run_chaos_batch(
    chaos: ChaosConfig | None = None, telemetry=None
) -> ChaosReport:
    """Run ``n_scenarios`` seeded scenarios and collect violations.

    With ``verify_determinism`` every scenario runs twice from scratch;
    a digest mismatch is recorded as an invariant violation on that
    scenario's outcome.
    """
    chaos = chaos or ChaosConfig()
    report = ChaosReport(config=chaos)
    for offset in range(chaos.n_scenarios):
        seed = chaos.base_seed + offset
        scenario = generate_scenario(seed, chaos)
        outcome = run_scenario(scenario, chaos, telemetry=telemetry)
        if chaos.verify_determinism:
            rerun = run_scenario(scenario, chaos)
            if rerun.digest != outcome.digest:
                outcome.violations.append(
                    f"determinism: seed {seed} produced digest "
                    f"{outcome.digest[:12]} then {rerun.digest[:12]}"
                )
        report.outcomes.append(outcome)
    return report
