"""HA fleet: failover parity — the subsystem's load-bearing guarantee.

Killing any single shard worker mid-run must yield bit-identical
:class:`IterationVerdict` sequences and an identical incident rollup
(no duplicates, no gaps) versus an uninterrupted run on the same seed,
with zero lost records.  The kill is deterministic: SIGKILL a chosen
shard after a chosen fraction of the stream, then an explicit
``check_health`` drives detection and journal replay.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.fleet import (
    FleetConfig,
    LoadGenConfig,
    encode_batch,
    generate_workload,
    reference_verdicts,
    transport,
)
from repro.fleet.ha import HAConfig, HAFleetService, HeartbeatMonitor, grow
from repro.fleet.shard import FleetError

from .conftest import SMALL_EXPERIMENT
from .test_service import (
    assert_one_error_and_the_rest_scored,
    outside_the_fabric,
    stray_unit_among_valid_batches,
    submit_stream,
)


def ha_service(n_shards: int, **ha_overrides) -> HAFleetService:
    """An HA service tuned for deterministic tests: no wall-clock
    failure detection, health checks driven explicitly."""
    defaults = dict(heartbeat_every=None, auto_failover=False)
    defaults.update(ha_overrides)
    return HAFleetService(
        FleetConfig(n_shards=n_shards, return_verdicts=True),
        ha=HAConfig(**defaults),
    )


def incident_rollup(result) -> list[dict]:
    return [incident.to_event() for incident in result.incidents]


def run_with_kill(jobs, batches, n_shards: int, victim: int, kill_at: int):
    """Stream the workload, SIGKILL ``victim`` after ``kill_at``
    batches, fail over, and finish the stream."""
    service = ha_service(n_shards)
    service.start()
    try:
        for job in jobs:
            service.submit_job(job)
        for batch in batches[:kill_at]:
            service.submit(batch)
        worker = service._workers[victim]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        recovered = service.check_health()
        assert recovered == [victim]
        for batch in batches[kill_at:]:
            service.submit(batch)
    except BaseException:
        service._abort()
        raise
    return service.close()


@pytest.mark.parametrize("n_shards", [2, 3])
def test_killing_any_shard_preserves_verdict_and_incident_parity(
    n_shards, small_workload
):
    """The acceptance criterion: for shard counts 2 and 3, kill *each*
    shard in turn mid-stream and compare against the uninterrupted
    reference."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    for victim in range(n_shards):
        result = run_with_kill(
            jobs, batches, n_shards, victim=victim, kill_at=len(batches) // 2
        )
        assert result.failovers == 1
        assert result.errors == []
        for job in jobs:
            assert result.verdicts_for(job.job_id) == reference[job.job_id], (
                f"verdict divergence for job {job.job_id} after killing "
                f"shard {victim}/{n_shards}"
            )
        assert result.lost_records == 0
        assert result.accounting_ok


def test_incident_rollup_identical_after_failover(small_workload):
    """No duplicate ``incident.opened``, no gaps: the full incident
    lifecycle (rollups and reopened counters) matches an uninterrupted
    run exactly."""
    jobs, batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            service.submit(batch)
    undisturbed = service.result
    disturbed = run_with_kill(jobs, batches, 2, victim=1, kill_at=len(batches) // 3)
    assert incident_rollup(disturbed) == incident_rollup(undisturbed)
    opened = disturbed.incident_log.of_type("incident.opened")
    keys = [(event["job_id"], event["link"]) for event in opened]
    assert len(keys) == len(set(keys)), "duplicate incident.opened after replay"
    assert disturbed.validate().ok


def test_failover_replays_the_dead_shards_journal(small_workload):
    jobs, batches = small_workload
    result = run_with_kill(jobs, batches, 2, victim=0, kill_at=len(batches))
    # Killed after the whole stream: everything queued on the victim
    # that had not been scored yet was recovered through the journal.
    assert result.failovers == 1
    assert result.replayed_records > 0
    assert result.epoch == 2
    assert result.lost_records == 0


def test_process_exit_detected_by_check_health(small_workload):
    jobs, batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        assert service.check_health() == []
        worker = service._workers[1]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        assert service.check_health() == [1]
        assert service.epoch == 2
        assert sorted(service._live_shards) == [0]
        for batch in batches:
            service.submit(batch)
    assert service.result.validate().ok
    assert service.result.lost_records == 0


def test_auto_failover_recovers_during_submit(small_workload):
    """With auto_failover on, the ingest path itself detects the dead
    worker (poll-side health check) and ingest never wedges."""
    jobs, batches = small_workload
    service = HAFleetService(
        FleetConfig(n_shards=2, return_verdicts=True, queue_depth=4),
        ha=HAConfig(heartbeat_every=None, auto_failover=True),
    )
    reference = reference_verdicts(jobs, batches)
    with service:
        for job in jobs:
            service.submit_job(job)
        os.kill(service._workers[0].pid, signal.SIGKILL)
        service._workers[0].join(timeout=10.0)
        for batch in batches:
            service.submit(batch)
    result = service.result
    assert result.failovers == 1
    assert result.lost_records == 0
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


# ----------------------------------------------------------------------
# Replay bigger than the queue, output bigger than the pipe
# ----------------------------------------------------------------------
#: Six jobs of sixteen iterations: shard 0 of 2 owns jobs 2, 3 and 5
#: (48 units to replay on its death) and growing to 3 shards moves job 1
#: (16 units) — each far more than ``queue_depth=2`` admits, with
#: verdicts (~1 kB apiece) far more than a one-page outbox holds.
OVERFLOW_LOADGEN = LoadGenConfig(
    n_jobs=6,
    n_iterations=16,
    fault_fraction=0.34,
    base_seed=7,
    experiment=SMALL_EXPERIMENT,
)


def overflowing_replay(trigger: str) -> dict:
    """Submit the whole stream, then make the HA layer replay a journal
    into a shard whose inbox and outbox are both too small for it."""
    jobs, batches = generate_workload(OVERFLOW_LOADGEN)
    reference = reference_verdicts(jobs, batches)
    service = HAFleetService(
        FleetConfig(n_shards=2, queue_depth=2, return_verdicts=True),
        ha=HAConfig(heartbeat_every=None, auto_failover=False),
    )
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            service.submit(batch)
        if trigger == "failover":
            worker = service._workers[0]
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=10.0)
            assert service.check_health() == [0]
            replayed_units = service.ha_log.of_type("ha.failover")[0]["replayed_units"]
        else:
            replayed_units = grow(service, n_new=1).replayed_units
    result = service.result
    return {
        "replayed_units": replayed_units,
        "lost_records": result.lost_records,
        "accounting_ok": result.accounting_ok,
        "errors": result.errors,
        "diverged": [
            job.job_id
            for job in jobs
            if result.verdicts_for(job.job_id) != reference[job.job_id]
        ],
    }


def run_under_watchdog(scenario, *args, deadline_s: float = 60.0):
    """``scenario(*args)`` in a forked child leading its own process
    group.  The bug under test parks the parent and a shard worker on
    each other forever; here that costs the deadline and a ``killpg``,
    not the suite."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def child() -> None:
        os.setsid()
        try:
            sender.send((True, scenario(*args)))
        except Exception as exc:  # reported, then the child exits
            sender.send((False, f"{type(exc).__name__}: {exc}"))

    process = context.Process(target=child)
    process.start()
    sender.close()
    try:
        if not receiver.poll(deadline_s):
            pytest.fail(f"{scenario.__name__}{args} wedged for {deadline_s:.0f} s")
        ok, outcome = receiver.recv()
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)  # shard workers too
        except ProcessLookupError:
            pass
        process.join(timeout=10.0)
    assert ok, outcome
    return outcome


@pytest.mark.parametrize("trigger", ["failover", "grow"])
def test_replay_larger_than_queue_and_pipe_does_not_deadlock(trigger, monkeypatch):
    """Journal replay must keep reading the target's output while it
    waits for inbox room: a worker stalled on a full outbox pipe stops
    consuming, and a sender that only blocks on the inbox then waits on
    it forever (dead-shard replay and live handoff alike)."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the outbox pipes are inherited by fork")
    monkeypatch.setattr(transport, "PIPE_CAPACITY", 4096)  # one page
    outcome = run_under_watchdog(overflowing_replay, trigger)
    assert outcome["replayed_units"] > 2 * 4  # several queue-fulls
    assert outcome["errors"] == []
    assert outcome["lost_records"] == 0
    assert outcome["accounting_ok"]
    assert outcome["diverged"] == []


def test_cannot_fail_over_the_last_shard(small_workload):
    jobs, _batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        service.failover(0, reason="test")
        with pytest.raises(FleetError):
            service.failover(1, reason="test")


def test_failover_of_non_live_shard_rejected(small_workload):
    service = ha_service(2)
    with service:
        with pytest.raises(FleetError):
            service.failover(7)


def test_ha_events_record_the_failover(small_workload):
    jobs, batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches[: len(batches) // 2]:
            service.submit(batch)
        service.failover(0, reason="drill")
    events = service.ha_log.of_type("ha.failover")
    assert len(events) == 1
    assert events[0]["shard"] == 0
    assert events[0]["reason"] == "drill"
    assert events[0]["epoch"] == 2
    views = service.ha_log.of_type("ha.view_committed")
    assert [event["epoch"] for event in views] == [1, 2]


def test_pin_job_overrides_the_ring_and_hands_off(small_workload):
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        half = len(batches) // 2
        for batch in batches[:half]:
            service.submit(batch)
        target_job = jobs[0].job_id
        old = service._route(target_job)
        new = 1 - old
        view = service.pin_job(target_job, new)
        assert view.pin_map[target_job] == new
        assert service._route(target_job) == new
        for batch in batches[half:]:
            service.submit(batch)
    result = service.result
    assert result.lost_records == 0
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


# ----------------------------------------------------------------------
# Heartbeat monitor (pure bookkeeping)
# ----------------------------------------------------------------------
def test_heartbeat_monitor_counts_missed_intervals():
    monitor = HeartbeatMonitor(interval=1.0, miss_limit=3)
    monitor.watch(0, now=100.0)
    assert monitor.misses(0, now=100.5) == 0
    assert monitor.misses(0, now=102.5) == 2
    monitor.beat(0, seq=1, now=102.0)
    assert monitor.misses(0, now=102.5) == 0
    assert monitor.overdue(now=105.5) == [0]
    monitor.unwatch(0)
    assert monitor.overdue(now=200.0) == []


def test_heartbeat_monitor_ignores_stale_beats():
    monitor = HeartbeatMonitor(interval=1.0, miss_limit=2)
    monitor.watch(0, now=100.0)
    monitor.beat(0, seq=2, now=105.0)
    monitor.beat(0, seq=1, now=101.0)  # late arrival must not rewind
    assert monitor.misses(0, now=105.5) == 0
    monitor.beat(7, seq=1, now=105.0)  # unwatched shard: ignored
    assert monitor.misses(7, now=200.0) == 0


def test_heartbeat_timeout_triggers_failover(small_workload):
    """A worker that stops beating (but has not exited) is declared
    dead once ``miss_limit`` intervals pass."""
    jobs, batches = small_workload
    service = HAFleetService(
        FleetConfig(n_shards=2, return_verdicts=True),
        ha=HAConfig(heartbeat_every=0.05, miss_limit=3, auto_failover=False),
    )
    with service:
        for job in jobs:
            service.submit_job(job)
        # A clock far in the future makes every live worker overdue;
        # the detector must terminate and recover exactly one (the
        # first), after which only one shard remains and the second
        # cannot be failed over.
        deadline = time.time() + 3600.0
        recovered = service.check_health(now=deadline)
        assert recovered == [0]
        for batch in batches:
            service.submit(batch)
    assert service.result.failovers == 1
    assert service.result.validate().ok


def test_result_ledger_shapes(small_workload):
    jobs, batches = small_workload
    service = ha_service(3)
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            service.submit(batch)
    result = service.result
    assert result.epoch == 1
    assert result.failovers == 0
    assert result.duplicate_verdicts == 0
    assert result.fenced_messages == 0
    assert result.processed_unique_records == result.submitted_records
    assert result.shed_unique_records == 0
    assert result.lost_records == 0
    assert result.accounting_ok


@pytest.mark.parametrize("wire_version", [1, 2])
def test_leaf_outside_the_fabric_is_one_error_not_a_failover_cascade(
    workload_8x4, wire_version
):
    """One unit whose leaf ids lie outside its job's fabric used to kill
    its shard; failover replayed it into the survivor, which died too.
    Now it is one worker error: no failover, every other batch scored
    exactly as the direct feed scores it, and ``close()`` returns."""
    jobs, _batches = workload_8x4
    stream, valid = stray_unit_among_valid_batches(
        workload_8x4,
        lambda segment: encode_batch(outside_the_fabric(segment), version=wire_version),
    )
    service = HAFleetService(
        FleetConfig(n_shards=2, return_verdicts=True, wire_version=wire_version),
        ha=HAConfig(),
    )
    with service:
        for job in jobs:
            service.submit_job(job)
        submit_stream(service, stream)
    result = service.result
    assert result.failovers == 0
    assert_one_error_and_the_rest_scored(result, jobs, valid, "PredictionError")
