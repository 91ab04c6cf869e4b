"""Closed-loop remediation on the packet-level simulator.

Runs the paper's operator story end to end on :mod:`repro.simnet`: a
staged ring collective executes iteration by iteration; each finished
iteration's per-leaf :class:`~repro.simnet.counters.IterationRecord`
batch flows through the shared :class:`~repro.core.remediation.ClosedLoop`
*inside the run* (the same loop the fast simulator drives); confirmed
faults are disabled in the live control plane between iterations; the
baseline is rebuilt for the surviving topology; and the tail of the run
verifies temporal symmetry is back under the detection threshold.

Faults arrive either on a wall-clock timeline (a
:class:`~repro.scenarios.script.FaultScript` scheduled on the engine)
or keyed by iteration number (applied at the iteration boundary just
before the target iteration starts), or both.

The driver is crash-free by construction: transports degrade
gracefully (giveup policy ``fail_message``), a stalled collective is
surfaced as a :class:`~repro.collectives.schedule.StallReport`, and a
remediation that would partition the fabric is vetoed rather than
applied.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..collectives.demand import DemandMatrix
from ..collectives.ring import locality_optimized_ring, ring_reduce_scatter_stages
from ..collectives.schedule import StagedCollectiveRunner
from ..core.remediation import (
    ClosedLoop,
    ClosedLoopResult,
    ConfirmationPolicy,
    RemediationAction,
)
from ..simnet.congestion import CongestionConfig
from ..simnet.counters import finalize_iteration
from ..simnet.network import Network
from ..simnet.packet import Priority
from ..topology.graph import ClosSpec
from ..workloads.placement import place_jobs
from .script import FaultEvent, FaultScript, apply_fault_event


@dataclass(frozen=True)
class SimnetClosedLoopConfig:
    """Shape of one packet-level closed-loop run."""

    n_leaves: int = 8
    n_spines: int = 4
    hosts_per_leaf: int = 1
    collective_bytes: int = 2_000_000
    n_iterations: int = 8
    mtu: int = 512
    spray: str = "round_robin"
    threshold: float = 0.01
    confirm_after: int = 2
    window: int = 4
    compute_time_ns: int = 50_000
    rto_ns: int = 100_000
    max_retransmissions: int = 16
    #: Watchdog period for the collective runner; generous relative to
    #: an iteration so slow-but-alive runs never false-stall.
    stall_timeout_ns: int = 50_000_000
    seed: int = 0
    job_id: int = 1
    #: How a confirmed fault is remediated: ``disable`` takes the cable
    #: out of service (the paper's action); ``reroute`` only removes it
    #: from the spray candidate set (R2CCL-style collective rerouting) —
    #: the link stays administratively up and could be readmitted.
    remediation: str = "disable"
    #: ECN marking threshold for every egress queue; ``None`` (default)
    #: keeps the congestion layer off and the run bit-identical to the
    #: pre-ECN code path.
    ecn_threshold_bytes: int | None = None
    #: DCQCN-style sender reaction (see :mod:`repro.simnet.congestion`).
    congestion: CongestionConfig | None = None
    #: Co-tenant jobs sharing the fabric with the monitored job.  With
    #: ``hosts_per_leaf >= 1 + background_jobs`` and strided placement,
    #: every background collective runs over the same leaf uplinks the
    #: monitored job sprays across — realistic cross-talk.  Background
    #: traffic is unmonitored and runs at NORMAL priority (the paper's
    #: isolation scheme prioritizes the measured collective).
    background_jobs: int = 0
    #: Load model backing the monitor.  ``analytical`` is the paper's
    #: even-split prediction — correct for per-packet spraying.  Under
    #: flow-pinning policies (ECMP) the even split is structurally wrong
    #: and ``learned`` (measure-first-iterations baseline, paper §5.2)
    #: is the only model that stays quiet on a healthy fabric.
    predictor: str = "analytical"
    #: Iterations averaged into each learned baseline (ignored for the
    #: analytical predictor).
    warmup_iterations: int = 2

    REMEDIATIONS = ("disable", "reroute")
    PREDICTORS = ("analytical", "learned")

    def __post_init__(self) -> None:
        if self.remediation not in self.REMEDIATIONS:
            raise ValueError(
                f"unknown remediation {self.remediation!r}; "
                f"known: {self.REMEDIATIONS}"
            )
        if self.predictor not in self.PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; "
                f"known: {self.PREDICTORS}"
            )
        if self.warmup_iterations < 1:
            raise ValueError("warmup needs at least one iteration")
        if self.background_jobs < 0:
            raise ValueError("background_jobs cannot be negative")
        if self.background_jobs and self.hosts_per_leaf < 1 + self.background_jobs:
            raise ValueError(
                "co-tenancy needs hosts_per_leaf >= 1 + background_jobs "
                "so strided placement gives every job a full ring"
            )

    def spec(self) -> ClosSpec:
        return ClosSpec(
            n_leaves=self.n_leaves,
            n_spines=self.n_spines,
            hosts_per_leaf=self.hosts_per_leaf,
        )


class SimnetClosedLoopDriver:
    """Wires collective, collectors and the shared closed loop together.

    At each iteration boundary the driver finalizes every leaf's
    measurement window, hands the records to the loop (which detects,
    confirms, vetoes or applies, and rebaselines on the live control
    plane), and applies any iteration-keyed fault events for the next
    iteration.  All of it runs inside the engine via the runner's
    ``on_iteration_done`` hook, exactly like a switch-local agent would.
    """

    def __init__(
        self,
        config: SimnetClosedLoopConfig,
        script: FaultScript | None = None,
        iteration_faults: dict[int, list[FaultEvent]] | None = None,
        telemetry=None,
    ) -> None:
        self.config = config
        spec = config.spec()
        self.network = Network(
            spec,
            seed=config.seed,
            spray=config.spray,
            mtu=config.mtu,
            rto_ns=config.rto_ns,
            max_retransmissions=config.max_retransmissions,
            telemetry=telemetry,
            ecn_threshold_bytes=config.ecn_threshold_bytes,
            congestion=config.congestion,
        )
        if config.background_jobs:
            # Strided co-tenancy: the monitored job and every background
            # job get one host per leaf, interleaved within leaves, so
            # all of them spray over the same fabric links.
            placements = place_jobs(
                spec,
                [spec.n_leaves] * (1 + config.background_jobs),
                first_job_id=config.job_id,
                strategy="strided",
            )
            ring = placements[0].ring()
        else:
            placements = []
            ring = locality_optimized_ring(spec.n_hosts, spec.hosts_per_leaf)
        self.stages = ring_reduce_scatter_stages(ring, config.collective_bytes)
        self.demand = DemandMatrix.from_stages(self.stages)
        self.collectors = self.network.install_collectors(job_id=config.job_id)
        self.runner = StagedCollectiveRunner(
            self.network,
            config.job_id,
            self.stages,
            iterations=config.n_iterations,
            compute_time_ns=config.compute_time_ns,
            seed=config.seed,
            on_iteration_done=self._on_iteration_done,
            stall_timeout_ns=config.stall_timeout_ns,
        )
        self.background_runners: list[StagedCollectiveRunner] = []
        for placement in placements[1:]:
            self.background_runners.append(
                StagedCollectiveRunner(
                    self.network,
                    placement.job_id,
                    ring_reduce_scatter_stages(
                        placement.ring(), config.collective_bytes
                    ),
                    iterations=config.n_iterations,
                    compute_time_ns=config.compute_time_ns,
                    priority=Priority.NORMAL,
                    seed=config.seed + placement.job_id,
                    stall_timeout_ns=config.stall_timeout_ns,
                )
            )
        self.loop = ClosedLoop(
            self.demand,
            self.network.control,
            threshold=config.threshold,
            policy=ConfirmationPolicy(
                confirm_after=config.confirm_after, window=config.window
            ),
            predictor=config.predictor,
            warmup_iterations=config.warmup_iterations,
            remediation=config.remediation,
            job_id=config.job_id,
            telemetry=telemetry,
        )
        self.result = self.loop.result
        self.scheduled_script = script.schedule(self.network) if script else None
        self.iteration_faults = defaultdict(list)
        for iteration, events in (iteration_faults or {}).items():
            self.iteration_faults[iteration].extend(events)
        self._iteration_start = 0

    def _apply_iteration_faults(self, iteration: int) -> None:
        for event in self.iteration_faults.get(iteration, ()):
            apply_fault_event(self.network, event)
            self.result.applied_fault_events.append((self.network.now, event))

    def _apply_action(self, action: RemediationAction) -> bool:
        """The shared loop's veto/apply, stamped with the engine clock."""
        return self.loop.remediate(action, self.network.now)

    # ------------------------------------------------------------------
    def run(self) -> ClosedLoopResult:
        self._apply_iteration_faults(0)
        for runner in self.background_runners:
            runner.start()
        self.runner.run(raise_on_stall=False)
        result = self.result
        result.stall = self.runner.stall_report
        result.iterations_completed = len(self.runner.iteration_times)
        result.failed_messages = sum(
            host.transport.failed_messages for host in self.network.hosts
        )
        if self.scheduled_script is not None:
            result.applied_fault_events.extend(self.scheduled_script.applied)
            # Past the collective's end the timeline is moot: cancel the
            # tail so the engine queue drains.
            self.scheduled_script.cancel()
        return result

    def _on_iteration_done(self, iteration: int, now: int) -> None:
        """Iteration boundary (engine callback): hand the finished
        iteration to the loop, then stage the next one's faults."""
        records = finalize_iteration(
            self.collectors, iteration, self._iteration_start, now
        )
        self.loop.observe(iteration, records, self._iteration_start, now)
        self._apply_iteration_faults(iteration + 1)
        self._iteration_start = now


def run_simnet_closed_loop(
    config: SimnetClosedLoopConfig | None = None,
    script: FaultScript | None = None,
    iteration_faults: dict[int, list[FaultEvent]] | None = None,
    telemetry=None,
) -> ClosedLoopResult:
    """Run the full packet-level closed loop; never raises for fabric
    faults — crashes are reserved for driver misconfiguration."""
    driver = SimnetClosedLoopDriver(
        config or SimnetClosedLoopConfig(),
        script=script,
        iteration_faults=iteration_faults,
        telemetry=telemetry,
    )
    return driver.run()
