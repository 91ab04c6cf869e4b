"""Nothing the fleet starts outlives ``close()``.

After a clean close, after the context manager's error path
(``_abort``) and after an HA failover followed by ``close``, the
process holds exactly the threads it held before ``start()`` and no
child process — so a process that ran a fleet starts its next work
(a benchmark row, a test) on a quiet interpreter.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.fleet import FleetConfig, FleetService, LoadGenConfig, generate_workload
from repro.fleet.ha import HAConfig, HAFleetService

from .conftest import SMALL_EXPERIMENT


def assert_nothing_outlives(threads_before: set) -> None:
    assert set(threading.enumerate()) == threads_before
    assert multiprocessing.active_children() == []


def feed(service, jobs, batches) -> None:
    for job in jobs:
        service.submit_job(job)
    for batch in batches:
        service.submit(batch)


def test_close_leaves_no_thread_and_no_child(small_workload):
    before = set(threading.enumerate())
    with FleetService(FleetConfig(n_shards=2)) as service:
        feed(service, *small_workload)
    assert service.result.processed_records == service.result.submitted_records
    assert_nothing_outlives(before)


def test_abort_leaves_no_thread_and_no_child(small_workload):
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="mid-stream"):
        with FleetService(FleetConfig(n_shards=2)) as service:
            feed(service, *small_workload)
            raise RuntimeError("mid-stream")
    assert not service.started
    assert_nothing_outlives(before)


def test_failover_with_a_backlog_then_close_leaves_no_thread_and_no_child():
    """The victim is stopped while its batches arrive, so it dies with
    ~200 KB of them unread: more than a default 64 KiB pipe holds."""
    jobs, batches = generate_workload(
        LoadGenConfig(n_jobs=2, n_iterations=100, base_seed=7, experiment=SMALL_EXPERIMENT)
    )
    before = set(threading.enumerate())
    service = HAFleetService(
        FleetConfig(n_shards=2, wire_version=2),
        ha=HAConfig(heartbeat_every=None, auto_failover=False),
    )
    with service:
        feed(service, jobs, [])
        victim = service._route(jobs[0].job_id)
        pid = service._workers[victim].pid
        os.kill(pid, signal.SIGSTOP)
        feed(service, [], batches)
        os.kill(pid, signal.SIGKILL)
        service.failover(victim)
    assert service.result.failovers == 1
    assert service.result.accounting_ok
    assert_nothing_outlives(before)


def test_importing_the_fleet_starts_no_thread():
    code = (
        "import threading, repro.fleet; "
        "assert threading.active_count() == 1, threading.enumerate()"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
