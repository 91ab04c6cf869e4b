"""Shard failure detection and journaled failover.

:class:`HAFleetService` is the highly-available fleet: the base
:class:`~repro.fleet.service.FleetService` with every routing decision
turned into an *(epoch, assignment)* read from a
:class:`~repro.fleet.ha.coordinator.ReplicatedCoordinator`, a write-ahead
``.fprec`` journal per shard, worker heartbeats with miss counting, and
failover that loses nothing:

1. every job registration and record batch is appended to its target
   shard's journal *before* it is dispatched (the journal is the
   authoritative history of everything a shard was ever asked to do);
2. a dead shard (exited process, or ``miss_limit`` missed heartbeats)
   triggers a coordinator epoch bump removing it from the view — the
   consistent-hash ring over the survivors moves only the dead shard's
   jobs (virtual-replica minimal movement);
3. the dead shard's journal is replayed through the new owners: job
   registrations rebuild monitors via ``build_monitor``, batches are
   re-scored from iteration zero.  Monitors are deterministic, so the
   replayed verdicts are bit-identical to an uninterrupted run;
4. the parent deduplicates by ``(job, iteration)`` — whatever the dead
   shard already delivered is kept, the replay fills exactly the gap —
   and fences messages from non-live shards, so the incident rollup
   contains no duplicates and no holes.

Record accounting survives all of it: an in-flight ledger keyed by
``(job, iteration)`` is settled on the first verdict/summary (or shed
event), extending the ``processed + shed == submitted`` invariant
across epochs; :attr:`HAFleetResult.lost_records` is what is left, and
it must be zero.
"""

from __future__ import annotations

import pathlib
import tempfile
import time
from dataclasses import dataclass

from ...telemetry.events import EventLog
from ..codec import (
    StreamDecoder,
    _stream_unit,
    decode_job,
    encode_job,
    peek_batch_tag,
)
from ..service import FleetConfig, FleetResult, FleetService
from ..shard import FleetError, ShardRouter
from .coordinator import ReplicatedCoordinator, View

#: Chunk size for journal replay reads.
_JOURNAL_CHUNK = 1 << 20


@dataclass(frozen=True)
class HAConfig:
    """Availability knobs layered over :class:`FleetConfig`."""

    #: Where shard journals live; ``None`` uses a self-cleaning temp dir.
    journal_dir: str | pathlib.Path | None = None
    #: Worker liveness beacon interval (seconds); ``None`` disables
    #: heartbeat-based detection (process exits are still caught).
    heartbeat_every: float | None = 0.25
    #: Consecutive missed beacons before a shard is declared dead.
    miss_limit: int = 8
    #: Coordinator ensemble size (3 tolerates one replica failure).
    coordinator_replicas: int = 3
    #: Leadership lease length in coordinator logical ticks.
    lease_ticks: int = 16
    #: Run failure checks inside ``poll``/``close`` automatically;
    #: disable for tests that drive ``check_health`` by hand.
    auto_failover: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_every is not None and self.heartbeat_every <= 0:
            raise FleetError("heartbeat_every must be positive (or None)")
        if self.miss_limit < 1:
            raise FleetError("miss_limit must be at least 1")


class HeartbeatMonitor:
    """Pure per-shard liveness bookkeeping (clock injected, no I/O).

    ``beat`` records a beacon; ``misses`` is how many whole intervals
    have elapsed since the last one.  A shard is watched from spawn
    time so a worker that never beats at all is also caught.
    """

    def __init__(self, interval: float | None, miss_limit: int) -> None:
        self.interval = interval
        self.miss_limit = miss_limit
        self._last_beat: dict[int, float] = {}
        self._last_seq: dict[int, int] = {}

    def watch(self, shard: int, now: float) -> None:
        self._last_beat[shard] = now
        self._last_seq[shard] = 0

    def unwatch(self, shard: int) -> None:
        self._last_beat.pop(shard, None)
        self._last_seq.pop(shard, None)

    def beat(self, shard: int, seq: int, now: float) -> None:
        if shard not in self._last_beat:
            return  # not watched (already failed over)
        self._last_beat[shard] = max(self._last_beat[shard], now)
        self._last_seq[shard] = max(self._last_seq[shard], seq)

    def misses(self, shard: int, now: float) -> int:
        if self.interval is None or shard not in self._last_beat:
            return 0
        return max(0, int((now - self._last_beat[shard]) / self.interval))

    def overdue(self, now: float) -> list[int]:
        """Shards whose miss count has reached the limit."""
        return sorted(
            shard
            for shard in self._last_beat
            if self.misses(shard, now) >= self.miss_limit
        )


@dataclass
class HAFleetResult(FleetResult):
    """A :class:`FleetResult` plus the availability ledger."""

    epoch: int = 0
    failovers: int = 0
    replayed_records: int = 0
    duplicate_verdicts: int = 0
    fenced_messages: int = 0
    processed_unique_records: int = 0
    shed_unique_records: int = 0
    lost_records: int = 0

    @property
    def accounting_ok(self) -> bool:
        """The cross-epoch conservation law: every submitted record was
        either processed (once) or shed (once), none lost."""
        return (
            self.lost_records == 0
            and self.processed_unique_records + self.shed_unique_records
            == self.submitted_records
        )


def _iter_journal_units(path: pathlib.Path):
    """Yield ``(kind, raw_unit)`` from a shard journal, chunked through
    the same :class:`StreamDecoder` the TCP frontend uses."""
    decoder = StreamDecoder(raw=True)
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_JOURNAL_CHUNK)
            if not chunk:
                break
            yield from decoder.feed(chunk)
        yield from decoder.finish()


class HAFleetService(FleetService):
    """The fleet service that survives its own shards.

    Drop-in for :class:`FleetService` (same submit/poll/close surface,
    ``close`` returns an :class:`HAFleetResult`), plus:

    - ``check_health()`` / ``failover(shard)`` — detection and recovery;
      with ``auto_failover`` (default) every ``poll`` checks.
    - ``pin_job(job, shard)`` — commit an explicit assignment override
      through the coordinator (with journal handoff if the job moves).
    - ``grow()`` / ``shrink()`` in :mod:`repro.fleet.ha.reshard` resize
      the pool mid-run through the same view/replay machinery.

    The golden-parity guarantee is preserved *through* failover: kill
    any single shard mid-run and the per-job verdict sequences and the
    incident rollup are bit-identical to an uninterrupted run.
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        ha: HAConfig | None = None,
        telemetry=None,
    ) -> None:
        super().__init__(config, telemetry)
        self.ha = ha or HAConfig()
        #: Lifecycle log for ``ha.*`` events (elections, views,
        #: failovers) — separate from the incident log.
        self.ha_log = EventLog()
        self.coordinator = ReplicatedCoordinator(
            n_replicas=self.ha.coordinator_replicas,
            lease_ticks=self.ha.lease_ticks,
            event_log=self.ha_log,
            registry=self.registry,
        )
        self.heartbeats = HeartbeatMonitor(
            self.ha.heartbeat_every, self.ha.miss_limit
        )
        self.failovers = 0
        self.duplicate_verdicts = 0
        self.fenced_messages = 0
        self._processed_unique = 0
        self._shed_unique = 0
        self._seen: dict[int, set[int]] = {}
        self._inflight: dict[tuple[int, int], int] = {}
        self._journal_dir: pathlib.Path | None = None
        self._journal_files: dict[int, object] = {}
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._ring_cache: tuple[int, ShardRouter] | None = None
        self._closing = False
        self._checking = False

    # ------------------------------------------------------------------
    # View-driven routing
    # ------------------------------------------------------------------
    @property
    def view(self) -> View:
        """The committed coordinator view routing reads against."""
        return self.coordinator.view

    @property
    def epoch(self) -> int:
        return self.coordinator.epoch

    def _route(self, job_id: int) -> int:
        view = self.coordinator.view
        pinned = view.pin_map.get(job_id)
        if pinned is not None:
            return pinned
        return self._ring(view).shard_for(job_id)

    def _ring(self, view: View) -> ShardRouter:
        cached = self._ring_cache
        if cached is not None and cached[0] == view.epoch:
            return cached[1]
        router = ShardRouter.from_ids(
            view.shards, n_replicas=self.config.n_replicas
        )
        self._ring_cache = (view.epoch, router)
        return router

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bootstrap epoch 1 through the coordinator, then spawn the
        workers in it."""
        self._closing = False
        if self._journal_dir is None:
            if self.ha.journal_dir is None:
                self._tmpdir = tempfile.TemporaryDirectory(prefix="fleet-ha-")
                self._journal_dir = pathlib.Path(self._tmpdir.name)
            else:
                self._journal_dir = pathlib.Path(self.ha.journal_dir)
                self._journal_dir.mkdir(parents=True, exist_ok=True)
        self.coordinator.commit(shards=range(self.config.n_shards), reason="bootstrap")
        super().start()

    def _spawn_worker(self, shard: int) -> None:
        super()._spawn_worker(shard, self.ha.heartbeat_every, self.epoch)
        self.heartbeats.watch(shard, time.time())

    def _broadcast_epoch(self, view: View) -> None:
        for shard in sorted(self._live_shards):
            self._send(shard, ("epoch", view.epoch))

    def close(self) -> HAFleetResult:
        """Final health pass, drain, and build the HA ledger result."""
        self._require_started()
        if self.ha.auto_failover:
            self.check_health()
        self._closing = True
        base = super().close()
        replayed = sum(
            entry["value"]
            for entry in base.metrics
            if entry.get("name") == "fleet.replayed_records"
        )
        result = HAFleetResult(
            **vars(base),
            epoch=self.epoch,
            failovers=self.failovers,
            replayed_records=replayed,
            duplicate_verdicts=self.duplicate_verdicts,
            fenced_messages=self.fenced_messages,
            processed_unique_records=self._processed_unique,
            shed_unique_records=self._shed_unique,
            lost_records=sum(self._inflight.values()),
        )
        self.result = result
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
            self._journal_dir = None
        return result

    def _teardown(self) -> None:
        for handle in self._journal_files.values():
            handle.close()
        self._journal_files = {}
        self._ring_cache = None
        super()._teardown()

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------
    def _journal_path(self, shard: int) -> pathlib.Path:
        assert self._journal_dir is not None
        return self._journal_dir / f"shard-{shard}.fprec"

    def _journal_file(self, shard: int):
        handle = self._journal_files.get(shard)
        if handle is None:
            handle = open(self._journal_path(shard), "ab")
            self._journal_files[shard] = handle
        return handle

    def _journal_job(self, shard: int, job) -> None:
        encoded = encode_job(job, version=self.config.wire_version)
        self._journal_file(shard).write(_stream_unit(encoded, text=False))

    def _journal_batch(
        self, shard: int, line: str | bytes, job_id: int, n_records: int
    ) -> None:
        self._journal_file(shard).write(_stream_unit(line, text=False))
        _job, _n, iteration = peek_batch_tag(line)
        self._inflight[(job_id, iteration)] = n_records

    # ------------------------------------------------------------------
    # Ingest resilience
    # ------------------------------------------------------------------
    def _still_draining(self, shard: int) -> bool:
        """A dead worker's full inbox must never wedge a sender: look
        for failures, and if the target was failed over stop waiting —
        the unit was journaled before it was sent, so the replay has
        already carried it to the new owner."""
        if self.ha.auto_failover:
            self.check_health()
        if shard not in self._live_shards:
            return False
        return super()._still_draining(shard)

    def _on_shed(self, evicted) -> None:
        super()._on_shed(evicted)
        job_id, _n, iteration = peek_batch_tag(evicted[1])
        settled = self._inflight.pop((job_id, iteration), None)
        if settled is not None:
            self._shed_unique += settled

    # ------------------------------------------------------------------
    # Output fencing and replay dedup
    # ------------------------------------------------------------------
    def _fence(self, shard: int) -> None:
        self.fenced_messages += 1
        self.registry.counter("ha.fenced_messages").inc()

    def _settle(self, job_id: int, iteration: int) -> bool:
        """Mark ``(job, iteration)`` delivered; False if it already was
        (a journal-replay duplicate to drop)."""
        seen = self._seen.setdefault(job_id, set())
        if iteration in seen:
            self.duplicate_verdicts += 1
            self.registry.counter("ha.duplicate_verdicts").inc()
            return False
        seen.add(iteration)
        settled = self._inflight.pop((job_id, iteration), None)
        if settled is not None:
            self._processed_unique += settled
        return True

    def _on_verdict(self, shard: int, job_id: int, verdict) -> None:
        if shard not in self._live_shards:
            self._fence(shard)
            return
        if self._settle(job_id, verdict.iteration):
            super()._on_verdict(shard, job_id, verdict)

    def _on_summary(self, shard: int, job_id: int, iteration: int) -> None:
        if shard not in self._live_shards:
            self._fence(shard)
            return
        if self._settle(job_id, iteration):
            super()._on_summary(shard, job_id, iteration)

    def _on_heartbeat(
        self, shard: int, epoch: int, seq: int, sent_at: float
    ) -> None:
        if shard not in self._live_shards:
            self._fence(shard)
            return
        super()._on_heartbeat(shard, epoch, seq, sent_at)
        self.heartbeats.beat(shard, seq, sent_at)
        if epoch != self.epoch:
            self.registry.counter("ha.stale_heartbeats").inc()

    # ------------------------------------------------------------------
    # Detection and failover
    # ------------------------------------------------------------------
    def poll(self) -> int:
        handled = super().poll()
        if self.ha.auto_failover:
            self.check_health()
        return handled

    def check_health(self, now: float | None = None) -> list[int]:
        """Detect dead shards (exited process or heartbeat silence) and
        fail each one over; returns the shards recovered."""
        if not self.started or self._closing or self._checking:
            return []
        self._checking = True
        try:
            self._drain_outboxes()  # fold queued beats before judging silence
            if now is None:
                now = time.time()
            failed: list[tuple[int, str]] = []
            for shard in sorted(self._live_shards):
                # EOF on the outbox is the exit itself; ``is_alive`` can
                # lag it by the moment the kernel takes to reap.
                if self._outboxes[shard].eof or not self._workers[shard].is_alive():
                    failed.append((shard, "process-exit"))
                elif (
                    self.ha.heartbeat_every is not None
                    and self.heartbeats.misses(shard, now) >= self.ha.miss_limit
                ):
                    failed.append((shard, "heartbeat-timeout"))
            recovered: list[int] = []
            for shard, reason in failed:
                if len(self._live_shards) < 2:
                    # Never auto-evict the last live shard: a slow-but-
                    # alive worker is better than no fleet at all.
                    self.ha_log.emit(
                        "ha.failover_skipped", shard=shard, reason=reason
                    )
                    continue
                self.failover(shard, reason=reason)
                recovered.append(shard)
            return recovered
        finally:
            self._checking = False

    def failover(self, dead_shard: int, reason: str = "forced") -> View:
        """Recover from the loss of ``dead_shard``: fence it, commit the
        survivor view (epoch bump), and replay its journal through the
        new owners.  Returns the committed view."""
        self._require_started()
        if dead_shard not in self._live_shards:
            raise FleetError(f"shard {dead_shard} is not live")
        if len(self._live_shards) < 2:
            raise FleetError("cannot fail over the last live shard")
        worker = self._workers[dead_shard]
        if worker.is_alive():
            worker.terminate()
        worker.join(timeout=5.0)
        # Everything the shard shipped before dying is valid pre-death
        # output: harvest it (the reader is at EOF now), then drop both
        # pipes — a frame torn by the kill is discarded with its outbox,
        # and what its inbox still held is journaled for the replay.
        self._drain_outboxes()
        self._retire_pipes(dead_shard)
        self._live_shards.discard(dead_shard)
        self.heartbeats.unwatch(dead_shard)
        moved = sorted(
            job_id
            for job_id in self.jobs
            if self._route(job_id) == dead_shard
        )
        pins = tuple(
            (job_id, shard)
            for job_id, shard in self.view.pins
            if shard != dead_shard
        )
        view = self.coordinator.commit(
            shards=sorted(self._live_shards),
            pins=pins,
            reason=f"failover:{reason}",
        )
        self._broadcast_epoch(view)
        units, records = self._replay_journal(dead_shard, set(moved))
        self.failovers += 1
        self.registry.counter("ha.failovers").inc()
        self.registry.counter("ha.replayed_units").inc(units)
        self.ha_log.emit(
            "ha.failover",
            epoch=view.epoch,
            shard=dead_shard,
            reason=reason,
            moved_jobs=moved,
            replayed_units=units,
            replayed_records=records,
        )
        if self.telemetry is not None:
            self.telemetry.emit(
                "ha.failover", epoch=view.epoch, shard=dead_shard, reason=reason
            )
        return view

    def _replay_journal(
        self, source: int, moved_jobs: set[int]
    ) -> tuple[int, int]:
        """Replay ``source``'s journal for ``moved_jobs`` into their
        current owners (appending to the owners' journals, so each
        shard's journal stays the complete history of every job it now
        holds).  Returns ``(units, records)`` replayed."""
        handle = self._journal_files.pop(source, None)
        if handle is not None:
            handle.close()
        path = self._journal_path(source)
        if not moved_jobs or not path.exists():
            return 0, 0
        units = records = 0
        now = time.time()
        for kind, unit in _iter_journal_units(path):
            if kind == "j":
                job = decode_job(unit)
                if job.job_id not in moved_jobs:
                    continue
                target = self._route(job.job_id)
                self._journal_job(target, job)
                self._send(target, ("job", job))
            else:
                job_id, n_records, _iteration = peek_batch_tag(unit)
                if job_id not in moved_jobs:
                    continue
                target = self._route(job_id)
                self._journal_file(target).write(_stream_unit(unit, text=False))
                self._send(target, ("replay", unit, n_records, now))
                records += n_records
            units += 1
        return units, records

    # ------------------------------------------------------------------
    # Explicit placement
    # ------------------------------------------------------------------
    def pin_job(self, job_id: int, shard: int) -> View:
        """Commit an explicit ``job -> shard`` assignment override (the
        writable half of the coordinator's map); if the job is live and
        actually moves, its history is handed off journal-first exactly
        like a failover."""
        self._require_started()
        if shard not in self._live_shards:
            raise FleetError(f"cannot pin job {job_id} to dead shard {shard}")
        old = self._route(job_id)
        pins = dict(self.view.pin_map)
        pins[job_id] = shard
        view = self.coordinator.commit(
            shards=self.view.shards,
            pins=tuple(sorted(pins.items())),
            reason=f"pin:{job_id}",
        )
        self._broadcast_epoch(view)
        if old != shard and job_id in self.jobs:
            self._replay_journal_live(old, {job_id})
        return view

    def _replay_journal_live(self, source: int, moved_jobs: set[int]) -> tuple[int, int]:
        """Handoff from a still-live source: replay its journal for the
        moved jobs, then tell it to forget them (frees the monitors;
        any of their verdicts still in flight are deduplicated)."""
        counts = self._replay_journal(source, moved_jobs)
        self._send(source, ("forget", tuple(sorted(moved_jobs))))
        return counts
