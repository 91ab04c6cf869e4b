"""Shared fixtures for the fleet service tests.

The workload is generated once per session (fastsim runs are cheap but
not free) and shared read-only: every consumer streams copies of the
frozen batches, never mutates them.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentConfig
from repro.fleet import LoadGenConfig, generate_workload

#: Small fabric with collectives big enough that spray noise sits well
#: under the 1 % threshold (tiny collectives alarm on noise alone).
SMALL_EXPERIMENT = ExperimentConfig(
    n_leaves=6, n_spines=3, collective_bytes=1024 * 1024 * 1024
)

SMALL_LOADGEN = LoadGenConfig(
    n_jobs=5,
    n_iterations=6,
    fault_fraction=0.4,
    base_seed=7,
    experiment=SMALL_EXPERIMENT,
)


@pytest.fixture(scope="session")
def small_workload():
    """``(jobs, batches)`` of a 5-job workload with 2 faulted jobs."""
    return generate_workload(SMALL_LOADGEN)


#: Three 8x4 jobs (the load generator's default fabric), one faulted.
LOADGEN_8X4 = LoadGenConfig(n_jobs=3, n_iterations=4, fault_fraction=0.34, base_seed=5)


@pytest.fixture(scope="session")
def workload_8x4():
    """``(jobs, batches)`` of :data:`LOADGEN_8X4`."""
    return generate_workload(LOADGEN_8X4)
