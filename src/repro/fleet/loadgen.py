"""Fastsim-backed workload generator for the fleet service.

Produces N concurrent jobs (a deterministic fraction of them carrying an
injected silent fault), simulates each job's iterations with the same
seeding discipline :func:`repro.analysis.experiments.run_trial` uses,
and interleaves the resulting per-iteration segments round-robin across
jobs — the arrival pattern a shared monitoring service actually sees.
A batch is the simulator's own :class:`~repro.core.blocks.IterationSegment`,
handed to the wire writers as it is: no record is built between the
simulator and the wire.  Workloads can be streamed straight into a
:class:`~repro.fleet.service.FleetService` or written to a ``.fprec``
file (:func:`write_workload`) for later ``repro fleet replay``.

Determinism: every job's fault placement, demand, and simulated volumes
are functions of ``(base_seed, job_id)`` only, so a workload can be
regenerated bit-identically — and because each job's segments are the
ones a direct trial's ``run_segments`` scores, fleet verdicts equal
single-job trial verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..analysis.experiments import ExperimentConfig, _trial_rng, build_trial, demand_for
from ..core.blocks import IterationSegment
from ..fastsim.model import run_segments
from .codec import FPREC_VERSION, JobConfig, write_fprec
from .shard import FleetError

#: Job ids start here; ids are dense so routing balance is testable.
FIRST_JOB_ID = 1

#: Default per-job experiment: a small fabric with collectives large
#: enough that spraying noise sits well under the 1 % detection
#: threshold (tiny collectives make every healthy job alarm).
DEFAULT_EXPERIMENT = ExperimentConfig(
    n_leaves=8, n_spines=4, collective_bytes=1024 * 1024 * 1024
)


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of a generated fleet workload."""

    n_jobs: int = 8
    n_iterations: int = 20
    fault_fraction: float = 0.25  # fraction of jobs with an injected fault
    base_seed: int = 0
    experiment: ExperimentConfig | None = None  # template; job_id/n_iterations overridden

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise FleetError("need at least one job")
        if self.n_iterations < 1:
            raise FleetError("need at least one iteration per job")
        if not 0.0 <= self.fault_fraction <= 1.0:
            raise FleetError("fault_fraction must be in [0, 1]")

    def template(self) -> ExperimentConfig:
        base = self.experiment if self.experiment is not None else DEFAULT_EXPERIMENT
        return replace(base, n_iterations=self.n_iterations)

    @property
    def n_faulted(self) -> int:
        return round(self.n_jobs * self.fault_fraction)


def faulted_job_ids(config: LoadGenConfig) -> frozenset[int]:
    """Which jobs carry an injected fault: a deterministic sample of
    ``n_faulted`` job ids drawn from ``base_seed`` (independent of the
    per-job trial streams)."""
    count = config.n_faulted
    if count == 0:
        return frozenset()
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([config.base_seed, 0xF1EE7]))
    )
    job_ids = np.arange(FIRST_JOB_ID, FIRST_JOB_ID + config.n_jobs)
    chosen = rng.choice(job_ids, size=count, replace=False)
    return frozenset(int(j) for j in chosen)


def generate_jobs(config: LoadGenConfig) -> list[JobConfig]:
    """The workload's job table, ground truth included.

    Each job's ``trial`` equals its ``job_id`` so no two jobs share a
    fault placement RNG stream; ``fault_link`` is resolved from the same
    :func:`build_trial` call the monitor rebuild makes.
    """
    template = config.template()
    faulted = faulted_job_ids(config)
    jobs = []
    for job_id in range(FIRST_JOB_ID, FIRST_JOB_ID + config.n_jobs):
        experiment = replace(template, job_id=job_id)
        setup = build_trial(experiment, base_seed=config.base_seed, trial=job_id)
        jobs.append(
            JobConfig(
                job_id=job_id,
                experiment=experiment,
                base_seed=config.base_seed,
                trial=job_id,
                faulted=job_id in faulted,
                fault_link=setup.fault_link if job_id in faulted else None,
            )
        )
    return jobs


def job_records(config: LoadGenConfig, job: JobConfig) -> list[IterationSegment]:
    """Simulate one job's run; one segment per iteration.

    Mirrors :func:`repro.analysis.experiments.run_trial_with_verdict`
    exactly — same :func:`_trial_rng` spawn, same simulation seed, same
    fault schedule — so a job's stream is indistinguishable from the
    one a direct trial would have produced.
    """
    experiment = job.experiment
    setup = build_trial(experiment, base_seed=job.base_seed, trial=job.trial)
    seq = _trial_rng(job.base_seed, job.trial, bool(job.faulted))
    _build_seed, sim_seed = seq.spawn(2)

    def fault_schedule(iteration: int) -> dict[str, float]:
        if job.faulted and iteration >= experiment.fault_start_iteration:
            return {setup.fault_link: experiment.drop_rate}
        return {}

    return run_segments(
        setup.model,
        demand_for(experiment),
        experiment.n_iterations,
        seed=int(sim_seed.generate_state(1)[0]),
        job_id=experiment.job_id,
        fault_schedule=fault_schedule,
    )


def generate_workload(
    config: LoadGenConfig,
) -> tuple[list[JobConfig], list[IterationSegment]]:
    """Jobs plus their segments interleaved round-robin by iteration:
    iteration 0 of every job, then iteration 1 of every job, and so on —
    the concurrent-arrival order a fleet frontend sees."""
    jobs = generate_jobs(config)
    per_job = [job_records(config, job) for job in jobs]
    batches: list[IterationSegment] = []
    for iteration in range(config.n_iterations):
        for stream in per_job:
            if iteration < len(stream):
                batches.append(stream[iteration])
    return jobs, batches


def write_workload(
    config: LoadGenConfig, target, version: int = FPREC_VERSION
) -> tuple[list[JobConfig], int]:
    """Generate a workload and record it to a ``.fprec`` file at the
    chosen wire version; returns the job table and the unit count."""
    jobs, batches = generate_workload(config)
    n_lines = write_fprec(target, jobs, batches, version=version)
    return jobs, n_lines
