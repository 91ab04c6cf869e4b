"""Live resharding: grow or shrink the worker pool mid-run.

Both directions ride the same machinery as failover — a coordinator
view commit (epoch bump) changes the routes, and journal replay moves
each affected job's complete history to its new owner — but with a
*live* source, so nothing is ever at risk:

- :func:`grow` spawns fresh workers first, commits the wider view, and
  hands off exactly the jobs the consistent-hash ring moves (about
  ``moved/new`` of the total, the virtual-replica minimal-movement
  property).  Old owners are told to ``forget`` the moved monitors
  after the handoff.
- :func:`shrink` commits the narrower view first (so no new traffic
  routes to the retiring shard), replays the retiree's journal into the
  survivors, then stops the retiree gracefully and waits for its final
  drain — any verdicts it produced for queued pre-commit batches are
  deduplicated against the replayed ones, both being bit-identical.

The ``processed + shed == submitted`` conservation law holds across
the epoch boundary because the service settles its in-flight ledger by
``(job, iteration)``, not by shard: whichever owner delivers an
iteration first settles it, and the duplicate is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..service import DRAIN_TIMEOUT_S
from ..shard import FleetError
from .failover import HAFleetService


@dataclass(frozen=True)
class ReshardReport:
    """What one grow/shrink operation did."""

    reason: str
    epoch_before: int
    epoch_after: int
    shards_before: tuple[int, ...]
    shards_after: tuple[int, ...]
    moved_jobs: tuple[int, ...]
    replayed_units: int
    replayed_records: int

    @property
    def moved(self) -> int:
        return len(self.moved_jobs)


def grow(service: HAFleetService, n_new: int = 1) -> ReshardReport:
    """Add ``n_new`` workers to a running HA fleet and hand over the
    jobs the wider consistent-hash ring reassigns to them."""
    service._require_started()
    if n_new < 1:
        raise FleetError("grow needs at least one new shard")
    epoch_before = service.epoch
    shards_before = tuple(sorted(service._live_shards))
    old_routes = {job_id: service._route(job_id) for job_id in service.jobs}
    for _ in range(n_new):
        service._spawn_worker(service.n_shards)
    view = service.coordinator.commit(
        shards=sorted(service._live_shards),
        pins=service.view.pins,
        reason=f"grow:+{n_new}",
    )
    service._broadcast_epoch(view)
    moved_by_source: dict[int, set[int]] = {}
    for job_id, source in old_routes.items():
        if service._route(job_id) != source:
            moved_by_source.setdefault(source, set()).add(job_id)
    units = records = 0
    for source in sorted(moved_by_source):
        replayed_units, replayed_records = service._replay_journal_live(
            source, moved_by_source[source]
        )
        units += replayed_units
        records += replayed_records
    return _report(
        service,
        reason=f"grow:+{n_new}",
        epoch_before=epoch_before,
        shards_before=shards_before,
        moved_by_source=moved_by_source,
        units=units,
        records=records,
    )


def shrink(service: HAFleetService, shard_id: int) -> ReshardReport:
    """Retire one live worker from a running HA fleet: move its jobs to
    the survivors (journal-checkpointed handoff), then drain and stop it."""
    service._require_started()
    if shard_id not in service._live_shards:
        raise FleetError(f"shard {shard_id} is not live")
    if len(service._live_shards) < 2:
        raise FleetError("cannot shrink away the last live shard")
    epoch_before = service.epoch
    shards_before = tuple(sorted(service._live_shards))
    moved = {
        job_id
        for job_id in service.jobs
        if service._route(job_id) == shard_id
    }
    pins = tuple(
        (job_id, shard)
        for job_id, shard in service.view.pins
        if shard != shard_id
    )
    # New routes first: no fresh traffic may land on the retiree while
    # its journal is being replayed, or the replay would be incomplete.
    view = service.coordinator.commit(
        shards=sorted(service._live_shards - {shard_id}),
        pins=pins,
        reason=f"shrink:{shard_id}",
    )
    units, records = service._replay_journal(shard_id, moved)
    # Graceful retirement: the stop barrier flushes anything still
    # queued (its verdicts dedup against the replayed ones), then the
    # worker ships its metrics and exits.
    service._send(shard_id, ("stop",))
    service._drain_until_done({shard_id})
    service._workers[shard_id].join(timeout=DRAIN_TIMEOUT_S)
    service._live_shards.discard(shard_id)
    service.heartbeats.unwatch(shard_id)
    service._retire_pipes(shard_id)
    service._broadcast_epoch(view)
    return _report(
        service,
        reason=f"shrink:{shard_id}",
        epoch_before=epoch_before,
        shards_before=shards_before,
        moved_by_source={shard_id: moved},
        units=units,
        records=records,
    )


def _report(
    service: HAFleetService,
    reason: str,
    epoch_before: int,
    shards_before: tuple[int, ...],
    moved_by_source: dict[int, set[int]],
    units: int,
    records: int,
) -> ReshardReport:
    moved_jobs = tuple(
        sorted(job for jobs in moved_by_source.values() for job in jobs)
    )
    report = ReshardReport(
        reason=reason,
        epoch_before=epoch_before,
        epoch_after=service.epoch,
        shards_before=shards_before,
        shards_after=tuple(sorted(service._live_shards)),
        moved_jobs=moved_jobs,
        replayed_units=units,
        replayed_records=records,
    )
    service.ha_log.emit(
        "ha.reshard",
        reason=reason,
        epoch_before=epoch_before,
        epoch_after=report.epoch_after,
        shards=list(report.shards_after),
        moved_jobs=list(moved_jobs),
        replayed_units=units,
        replayed_records=records,
    )
    service.registry.counter("ha.reshards").inc()
    return report
