"""Multi-job co-tenancy: several monitored collectives on one fabric.

The paper's deployment story is a *shared* cluster: many training jobs
spray over the same leaf-spine fabric at once, and FlowPulse watches
each of them independently through per-job flow tags (§5.1).  The
closed-loop driver models the one-monitored-job case with unmonitored
background traffic; this module runs the full picture — every
co-tenant job gets its own :class:`~repro.core.monitor.FlowPulseMonitor`
fed from its own tagged collectors, all on a single live
:class:`~repro.simnet.network.Network`.

Placement is strided (see :mod:`repro.workloads.placement`): each job
owns one host per leaf, so every job's ring crosses the same leaf
uplinks and the jobs' packets genuinely interleave in the same queues.
That is the cross-talk regime the gray-failure study cares about: a
policy that balances one job's traffic perfectly can still skew when a
co-tenant's bursts land on the queues it is reacting to.

The run's per-job record streams double as a fleet workload:
:func:`cotenant_workload` converts them into the
``(jobs, batches)`` shape :mod:`repro.fleet` ingests, and
:func:`write_cotenant_workload` captures them as a ``.fprec`` file —
packet-level cross-talk for the fleet service instead of the load
generator's independent per-job fastsim streams.  Ground truth is
``faulted=None`` (unknown): nothing was injected, but nothing proves
the interleaving left every job clean either, which is exactly the
honest label for shared-fabric traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.experiments import ExperimentConfig
from ..collectives.demand import DemandMatrix
from ..collectives.ring import ring_reduce_scatter_stages
from ..collectives.schedule import StagedCollectiveRunner
from ..core.detection import DetectionConfig
from ..core.monitor import FlowPulseMonitor
from ..core.prediction import AnalyticalPredictor
from ..fleet.codec import FPREC_VERSION, JobConfig, RecordBatch, write_fprec
from ..simnet.congestion import CongestionConfig
from ..simnet.counters import IterationRecord, finalize_iteration
from ..simnet.network import Network
from ..topology.graph import ClosSpec
from ..workloads.placement import place_jobs


class GreylabError(ValueError):
    """Raised for unusable co-tenancy or study configuration."""


@dataclass(frozen=True)
class CotenancyConfig:
    """Shape of one co-tenant run: ``n_jobs`` rings on one fabric."""

    n_jobs: int = 2
    n_leaves: int = 4
    n_spines: int = 3
    collective_bytes: int = 600_000
    n_iterations: int = 6
    mtu: int = 512
    spray: str = "round_robin"
    threshold: float = 0.05
    compute_time_ns: int = 50_000
    stall_timeout_ns: int = 50_000_000
    seed: int = 0
    first_job_id: int = 1
    #: Optional congestion layer shared by every job (see
    #: :mod:`repro.simnet.congestion`); ``None`` keeps it off.
    ecn_threshold_bytes: int | None = None
    congestion: CongestionConfig | None = None

    def __post_init__(self) -> None:
        if self.n_jobs < 2:
            raise GreylabError("co-tenancy needs at least two jobs")
        if self.n_leaves < 2 or self.n_spines < 1:
            raise GreylabError("fabric needs >= 2 leaves and >= 1 spine")
        if self.n_iterations < 1:
            raise GreylabError("need at least one iteration")

    def spec(self) -> ClosSpec:
        # One host per leaf per job: strided placement then gives every
        # job a full one-host-per-leaf ring.
        return ClosSpec(
            n_leaves=self.n_leaves,
            n_spines=self.n_spines,
            hosts_per_leaf=self.n_jobs,
        )

    @property
    def job_ids(self) -> tuple[int, ...]:
        return tuple(range(self.first_job_id, self.first_job_id + self.n_jobs))


@dataclass(frozen=True)
class JobIterationStep:
    """One job's monitor verdict for one of its iterations."""

    job_id: int
    iteration: int
    triggered: bool
    max_score: float
    skipped: bool


@dataclass
class JobOutcome:
    """Everything observed about one co-tenant job."""

    job_id: int
    steps: list[JobIterationStep] = field(default_factory=list)
    #: Per-iteration leaf records, in iteration order — the raw stream
    #: :func:`cotenant_workload` captures.
    records: list[list[IterationRecord]] = field(default_factory=list)
    iterations_completed: int = 0
    stalled: bool = False
    iteration_times: list[tuple[int, int]] = field(default_factory=list)

    @property
    def triggered(self) -> bool:
        return any(step.triggered for step in self.steps)

    @property
    def max_score(self) -> float:
        return max((s.max_score for s in self.steps if not s.skipped), default=0.0)


@dataclass
class CotenancyResult:
    """Outcome of one co-tenant run: per-job verdict streams."""

    config: CotenancyConfig
    jobs: dict[int, JobOutcome] = field(default_factory=dict)
    total_ecn_marks: int = 0

    @property
    def ok(self) -> bool:
        """Every job finished every iteration with no stall."""
        return all(
            not job.stalled
            and job.iterations_completed == self.config.n_iterations
            for job in self.jobs.values()
        )

    @property
    def triggered_jobs(self) -> frozenset[int]:
        return frozenset(j for j, job in self.jobs.items() if job.triggered)

    def summary(self) -> str:
        lines = [
            f"cotenancy: {len(self.jobs)} jobs on "
            f"{self.config.n_leaves}x{self.config.n_spines}, "
            f"spray={self.config.spray}"
        ]
        for job_id in sorted(self.jobs):
            job = self.jobs[job_id]
            status = "STALLED" if job.stalled else (
                "ALARM" if job.triggered else "quiet"
            )
            lines.append(
                f"  job {job_id}: {job.iterations_completed}"
                f"/{self.config.n_iterations} iterations, "
                f"max score {job.max_score:.4f} [{status}]"
            )
        return "\n".join(lines)


class CotenancyDriver:
    """Runs ``n_jobs`` ring collectives concurrently, each monitored.

    Every job gets its own collectors (keyed by its flow tag), its own
    analytical predictor built from its own demand, and its own
    iteration-boundary callback — the jobs share nothing but the
    fabric, which is the point.
    """

    def __init__(self, config: CotenancyConfig, telemetry=None) -> None:
        self.config = config
        self.telemetry = telemetry
        spec = config.spec()
        self.network = Network(
            spec,
            seed=config.seed,
            spray=config.spray,
            mtu=config.mtu,
            telemetry=telemetry,
            ecn_threshold_bytes=config.ecn_threshold_bytes,
            congestion=config.congestion,
        )
        placements = place_jobs(
            spec,
            [spec.n_leaves] * config.n_jobs,
            first_job_id=config.first_job_id,
            strategy="strided",
        )
        self.result = CotenancyResult(config=config)
        self.runners: dict[int, StagedCollectiveRunner] = {}
        self._collectors: dict[int, list] = {}
        self._monitors: dict[int, FlowPulseMonitor] = {}
        self._iteration_starts: dict[int, int] = {}
        for placement in placements:
            job_id = placement.job_id
            stages = ring_reduce_scatter_stages(
                placement.ring(), config.collective_bytes
            )
            demand = DemandMatrix.from_stages(stages)
            self._collectors[job_id] = self.network.install_collectors(
                job_id=job_id
            )
            self._monitors[job_id] = FlowPulseMonitor(
                AnalyticalPredictor(spec, demand),
                DetectionConfig(threshold=config.threshold),
                telemetry=telemetry,
            )
            self.result.jobs[job_id] = JobOutcome(job_id=job_id)
            self.runners[job_id] = StagedCollectiveRunner(
                self.network,
                job_id,
                stages,
                iterations=config.n_iterations,
                compute_time_ns=config.compute_time_ns,
                seed=config.seed + job_id,
                on_iteration_done=self._boundary(job_id),
                stall_timeout_ns=config.stall_timeout_ns,
            )
            self._iteration_starts[job_id] = 0

    def _boundary(self, job_id: int):
        def on_iteration_done(iteration: int, now: int) -> None:
            self._finish_job_iteration(job_id, iteration, now)

        return on_iteration_done

    def _finish_job_iteration(self, job_id: int, iteration: int, now: int) -> None:
        records = finalize_iteration(
            self._collectors[job_id], iteration, self._iteration_starts[job_id], now
        )
        verdict = self._monitors[job_id].process_iteration(records)
        outcome = self.result.jobs[job_id]
        outcome.records.append(records)
        outcome.steps.append(
            JobIterationStep(
                job_id=job_id,
                iteration=iteration,
                triggered=verdict.triggered,
                max_score=verdict.max_score,
                skipped=verdict.skipped,
            )
        )
        self._iteration_starts[job_id] = now

    def run(self) -> CotenancyResult:
        for runner in self.runners.values():
            runner.start()
        self.network.run()
        for job_id, runner in self.runners.items():
            outcome = self.result.jobs[job_id]
            outcome.iterations_completed = len(runner.iteration_times)
            outcome.iteration_times = list(runner.iteration_times)
            outcome.stalled = runner.stalled or (
                outcome.iterations_completed < self.config.n_iterations
            )
        self.result.total_ecn_marks = self.network.total_ecn_marks()
        return self.result


def run_cotenancy(
    config: CotenancyConfig | None = None, telemetry=None
) -> CotenancyResult:
    """Run one co-tenant workload end to end; never raises for fabric
    behaviour, only for bad configuration."""
    return CotenancyDriver(config or CotenancyConfig(), telemetry=telemetry).run()


# ----------------------------------------------------------------------
# Fleet workload capture
# ----------------------------------------------------------------------
def _job_experiment(config: CotenancyConfig, job_id: int) -> ExperimentConfig:
    """The closest fastsim description of one co-tenant job.

    The fleet's shards rebuild monitors from this config; the fabric
    shape, collective size, and threshold match the packet-level run
    (each job owns one host per leaf, so the leaf-level demand is the
    same one-host-per-leaf ring the fastsim assumes).
    """
    return ExperimentConfig(
        n_leaves=config.n_leaves,
        n_spines=config.n_spines,
        collective_bytes=config.collective_bytes,
        mtu=config.mtu,
        threshold=config.threshold,
        n_iterations=config.n_iterations,
        job_id=job_id,
    )


def cotenant_workload(
    config: CotenancyConfig | None = None,
) -> tuple[list[JobConfig], list[RecordBatch], CotenancyResult]:
    """Run a co-tenant workload and capture it in fleet ingest shape.

    Returns ``(jobs, batches, result)``: one :class:`JobConfig` per
    co-tenant job (``faulted=None`` — no injected ground truth), and the
    jobs' record batches interleaved round-robin by iteration, the
    concurrent-arrival order a fleet frontend sees.
    """
    config = config or CotenancyConfig()
    result = run_cotenancy(config)
    jobs = [
        JobConfig(
            job_id=job_id,
            experiment=_job_experiment(config, job_id),
            base_seed=config.seed,
            trial=job_id,
            faulted=None,
        )
        for job_id in config.job_ids
    ]
    batches: list[RecordBatch] = []
    for iteration in range(config.n_iterations):
        for job_id in config.job_ids:
            stream = result.jobs[job_id].records
            if iteration < len(stream):
                batches.append(RecordBatch.from_records(stream[iteration]))
    return jobs, batches, result


def write_cotenant_workload(
    config: CotenancyConfig | None = None,
    target="cotenant.fprec",
    version: int = FPREC_VERSION,
) -> tuple[list[JobConfig], int]:
    """Capture a co-tenant run as a ``.fprec`` file ``repro fleet
    serve --input`` (or ``repro report``) can consume; returns the job
    table and the unit count."""
    jobs, batches, _ = cotenant_workload(config)
    n_units = write_fprec(target, jobs, batches, version=version)
    return jobs, n_units
