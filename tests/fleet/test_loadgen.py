"""Load-generator tests: determinism, ground truth, record/replay."""

from __future__ import annotations

import hashlib
import io
from dataclasses import replace

import pytest

from repro.analysis.experiments import ExperimentConfig, run_trial_with_verdict
from repro.fleet import (
    FleetError,
    LoadGenConfig,
    build_monitor,
    generate_jobs,
    generate_workload,
    read_fprec,
    write_workload,
)
from repro.fleet.loadgen import faulted_job_ids, job_records
from repro.units import GIB

from .conftest import SMALL_EXPERIMENT, SMALL_LOADGEN


def test_workload_is_deterministic():
    jobs_a, batches_a = generate_workload(SMALL_LOADGEN)
    jobs_b, batches_b = generate_workload(SMALL_LOADGEN)
    assert jobs_a == jobs_b
    assert batches_a == batches_b


def test_fault_fraction_respected():
    config = replace(SMALL_LOADGEN, n_jobs=8, fault_fraction=0.25)
    jobs = generate_jobs(config)
    assert sum(1 for job in jobs if job.faulted) == 2
    assert all(job.fault_link is not None for job in jobs if job.faulted)
    assert all(job.fault_link is None for job in jobs if not job.faulted)


def test_fault_selection_changes_with_seed():
    base = replace(SMALL_LOADGEN, n_jobs=12, fault_fraction=0.5)
    first = faulted_job_ids(base)
    second = faulted_job_ids(replace(base, base_seed=base.base_seed + 1))
    assert first != second


def test_zero_and_full_fault_fractions():
    none = generate_jobs(replace(SMALL_LOADGEN, fault_fraction=0.0))
    assert not any(job.faulted for job in none)
    everyone = generate_jobs(replace(SMALL_LOADGEN, fault_fraction=1.0))
    assert all(job.faulted for job in everyone)


def test_batches_interleaved_round_robin(small_workload):
    jobs, batches = small_workload
    n_jobs = len(jobs)
    first_wave = batches[:n_jobs]
    assert [batch.iteration for batch in first_wave] == [0] * n_jobs
    assert [batch.job_id for batch in first_wave] == [job.job_id for job in jobs]
    second_wave = batches[n_jobs : 2 * n_jobs]
    assert [batch.iteration for batch in second_wave] == [1] * n_jobs


def test_job_records_match_direct_trial():
    """A generated job's stream is the stream its direct single-job
    trial scores: the job's monitor reaches the trial's verdicts on it,
    for a faulted and a healthy job alike."""
    config = SMALL_LOADGEN
    jobs = generate_jobs(config)
    for faulted in (True, False):
        job = next(job for job in jobs if job.faulted == faulted)
        batches = job_records(config, job)
        _outcome, verdict = run_trial_with_verdict(
            job.experiment, injected=faulted, base_seed=job.base_seed, trial=job.trial
        )
        assert build_monitor(job).process_block(batches) == verdict.verdicts
        assert verdict.triggered == faulted
        for iteration, batch in enumerate(batches):
            assert batch.iteration == iteration
            assert batch.job_id == job.job_id


def test_invalid_config_rejected():
    with pytest.raises(FleetError):
        LoadGenConfig(n_jobs=0)
    with pytest.raises(FleetError):
        LoadGenConfig(n_iterations=0)
    with pytest.raises(FleetError):
        LoadGenConfig(fault_fraction=1.5)


def test_write_workload_round_trips():
    config = replace(SMALL_LOADGEN, n_jobs=3, n_iterations=2)
    buffer = io.StringIO()
    jobs, n_lines = write_workload(config, buffer)
    assert n_lines == 3 + 3 * 2
    buffer.seek(0)
    content = read_fprec(buffer)
    assert content.jobs == jobs
    _jobs, batches = generate_workload(config)
    assert [list(batch.records) for batch in content.batches] == [
        segment.records() for segment in batches
    ]


#: sha256 of ``write_workload``'s file per (config, wire version).  A
#: recorded stream must regenerate byte for byte, whichever path the
#: simulator's output takes to the wire.
FAULTED_32X16 = LoadGenConfig(
    n_jobs=2,
    n_iterations=4,
    fault_fraction=0.5,
    base_seed=11,
    experiment=ExperimentConfig(n_leaves=32, n_spines=16, collective_bytes=8 * GIB),
)
WIRE_DIGESTS = {
    ("small", 1): "adbccb1f0345c10520cce21b62a03bb3228f66c209c825e9fb983f0d6189eeec",
    ("small", 2): "35056e94ec0fcd9394f2fc00861a25bca88682e1d9f9d9a964df9b538926a5d3",
    ("faulted_32x16", 1): "e9209625e47cde9082c5838fc8178f1389d91786fed4a724901497d9bbfddb4a",
    ("faulted_32x16", 2): "905f714bc240b5cb4e44e455a581f43e1bd2982d7c62276ae033cca717ed73ff",
}


@pytest.mark.parametrize("name, version", sorted(WIRE_DIGESTS))
def test_workload_wire_bytes_are_pinned(tmp_path, name, version):
    config = {"small": SMALL_LOADGEN, "faulted_32x16": FAULTED_32X16}[name]
    path = tmp_path / "workload.fprec"
    write_workload(config, path, version=version)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIRE_DIGESTS[name, version]


def test_default_experiment_template():
    config = LoadGenConfig(n_jobs=2, n_iterations=4)
    template = config.template()
    assert template.n_iterations == 4
    jobs = generate_jobs(config)
    assert [job.experiment.job_id for job in jobs] == [1, 2]
    assert all(job.experiment.n_iterations == 4 for job in jobs)


def test_template_overrides_iterations():
    config = LoadGenConfig(
        n_jobs=2, n_iterations=7, experiment=replace(SMALL_EXPERIMENT, n_iterations=99)
    )
    assert config.template().n_iterations == 7
