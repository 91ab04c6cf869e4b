"""The fleet service: sharded streaming monitoring of many jobs.

:class:`FleetService` is the serving layer over everything below it:
records arrive as encoded wire lines (:mod:`repro.fleet.codec`), are
routed by consistent hash (:mod:`repro.fleet.shard`) to a pool of
worker processes each owning the monitors of its jobs, and triggered
verdicts flow back to the parent where the aggregator
(:mod:`repro.fleet.aggregate`) collapses them into incidents.

Backpressure is explicit.  Every shard's inbox is a framed pipe
(:mod:`repro.fleet.transport`) behind a count the parent keeps:
``queue_depth`` bounds the messages posted to a shard that its worker
has not yet reported taken — those in the kernel pipe, those the
worker holds in the wake-up it is scoring, and those waiting in the
parent-side tail.  ``policy`` selects what happens when a flood outruns
the workers:

``"block"``
    ``submit`` blocks until the shard reports room — no record is ever
    lost, ingest slows to detection speed.
``"shed-oldest"``
    the oldest batch still in the parent-side tail is evicted to make
    room for the new one — ingest never stalls, and every shed record is
    counted in the ``fleet.shed_records`` metric.  Only the tail can
    shed: bytes in a kernel pipe cannot be taken back, so a batch the
    pipe holds is scored, and with nothing in the tail to evict the new
    batch waits there, one past the depth.  Control messages are never
    shed; they wait for room under either policy.

Golden parity: a job streamed through the service produces bit-identical
:class:`~repro.core.monitor.IterationVerdict` sequences to feeding the
same records directly into its monitor (:func:`reference_verdicts`),
for any shard count, batch order interleaving, or queue depth — per-job
order is preserved because a job maps to exactly one shard FIFO.  (Shed
mode trades this away by design: dropped records are dropped.)
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import connection

from ..core.blocks import IterationSegment
from ..core.monitor import IterationVerdict
from ..telemetry.events import EventLog
from ..telemetry.registry import MetricsRegistry
from .aggregate import DEFAULT_QUIET_GAP, FleetAggregator, Incident
from .codec import FPREC_VERSIONS, JobConfig, RecordBatch, encode_batch, peek_batch
from .shard import FleetError, ShardRouter, build_monitor, shard_worker
from .transport import OutboxReader, OutboxWriter, new_outbox_pipe

#: How long ``close`` waits for a single outbox message from live
#: workers before declaring the drain wedged (a worker that *exited*
#: without its "done" is caught at once, by EOF on its outbox).
DRAIN_TIMEOUT_S = 120.0

QUEUE_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: Submit drains the outbox every this many batches (amortizes the
#: non-blocking ``read`` per shard).
POLL_EVERY = 16


@dataclass(frozen=True)
class FleetConfig:
    """Service shape and backpressure policy."""

    n_shards: int = 2
    queue_depth: int = 1024
    policy: str = "block"  # "block" | "shed-oldest"
    return_verdicts: bool = False
    n_replicas: int = 64  # consistent-hash points per shard
    wire_version: int = 1  # fprec version submit() encodes at (1 | 2)
    #: Max batches a worker scores per wake-up.  The backpressure
    #: window already counts what a worker holds, so coalescing never
    #: widens it.
    coalesce: int = 32
    #: Iterations a link may sit quiet before a fresh alarm reopens its
    #: incident (``incident.reopened`` in the lifecycle log).
    quiet_gap: int = DEFAULT_QUIET_GAP

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise FleetError("need at least one shard")
        if self.queue_depth < 1:
            raise FleetError("queue depth must be at least 1")
        if self.policy not in ("block", "shed-oldest"):
            raise FleetError(
                f"unknown backpressure policy {self.policy!r} "
                "(expected 'block' or 'shed-oldest')"
            )
        if self.wire_version not in FPREC_VERSIONS:
            raise FleetError(
                f"unknown wire version {self.wire_version!r} "
                f"(supported: {FPREC_VERSIONS})"
            )
        if self.coalesce < 1:
            raise FleetError("coalesce must be at least 1")
        if self.quiet_gap < 1:
            raise FleetError("quiet_gap must be at least 1 iteration")


@dataclass(frozen=True)
class FleetValidation:
    """Detection outcome vs. ground truth (jobs with ``faulted`` set)."""

    checked: int
    missed: tuple[int, ...]  # faulted jobs with no incident
    false_alarms: tuple[int, ...]  # healthy jobs with an incident

    @property
    def ok(self) -> bool:
        return not self.missed and not self.false_alarms


@dataclass
class FleetResult:
    """Everything a finished service run produced."""

    jobs: dict[int, JobConfig]
    verdicts: dict[int, list[IterationVerdict]]
    incidents: list[Incident]
    metrics: list[dict]  # merged fleet-wide MetricsRegistry snapshot
    errors: list[str]
    submitted_batches: int = 0
    submitted_records: int = 0
    shed_batches: int = 0
    shed_records: int = 0
    summaries: int = 0
    elapsed_s: float = 0.0
    submit_elapsed_s: float = 0.0
    incident_log: EventLog | None = None

    @property
    def processed_records(self) -> int:
        return sum(
            entry["value"]
            for entry in self.metrics
            if entry.get("name") == "fleet.records"
        )

    @property
    def processed_batches(self) -> int:
        return sum(
            entry["value"]
            for entry in self.metrics
            if entry.get("name") == "fleet.batches"
        )

    @property
    def ingest_records_per_sec(self) -> float:
        if self.submit_elapsed_s <= 0:
            return 0.0
        return self.submitted_records / self.submit_elapsed_s

    def verdicts_for(self, job_id: int) -> list[IterationVerdict]:
        return sorted(self.verdicts.get(job_id, []), key=lambda v: v.iteration)

    def incidents_for(self, job_id: int) -> list[Incident]:
        return [i for i in self.incidents if i.job_id == job_id]

    def validate(self) -> FleetValidation:
        """Compare incidents against the jobs' ground truth."""
        detected = {incident.job_id for incident in self.incidents}
        return validate_detection(self.jobs.values(), detected)


def validate_detection(jobs, detected_job_ids) -> FleetValidation:
    """Ground-truth check shared by ``serve`` and ``replay``: every
    faulted job detected, no healthy job alarmed; jobs with unknown
    truth (``faulted is None``) are excluded."""
    detected = set(detected_job_ids)
    missed = []
    false_alarms = []
    checked = 0
    for job in jobs:
        if job.faulted is None:
            continue
        checked += 1
        if job.faulted and job.job_id not in detected:
            missed.append(job.job_id)
        elif not job.faulted and job.job_id in detected:
            false_alarms.append(job.job_id)
    return FleetValidation(
        checked=checked, missed=tuple(sorted(missed)), false_alarms=tuple(sorted(false_alarms))
    )


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class FleetService:
    """Long-running sharded monitoring service (context manager).

    >>> service = FleetService(FleetConfig(n_shards=2))   # doctest: +SKIP
    ... with service:
    ...     for job in jobs:
    ...         service.submit_job(job)
    ...     for batch in batches:
    ...         service.submit(batch)
    ... result = service.result
    """

    def __init__(self, config: FleetConfig | None = None, telemetry=None) -> None:
        self.config = config or FleetConfig()
        self.router = ShardRouter(
            self.config.n_shards, n_replicas=self.config.n_replicas
        )
        self.registry = MetricsRegistry()
        #: Incident log (JSONL-ready) fed by the aggregator.
        self.incident_log = EventLog()
        self.aggregator = FleetAggregator(
            event_log=self.incident_log, quiet_gap=self.config.quiet_gap
        )
        #: Optional duck-typed telemetry session for service-level events.
        self.telemetry = telemetry
        self.jobs: dict[int, JobConfig] = {}
        self.verdicts: dict[int, list[IterationVerdict]] = {}
        self.errors: list[str] = []
        self.result: FleetResult | None = None
        self._inboxes: list = []
        self._workers: list = []
        self._live_shards: set[int] = set()
        self._context = None
        self._outboxes: list = []
        self._depth_gauges: list = []
        self._worker_snapshots: list = []
        self._done: set[int] = set()
        self._summaries = 0
        self._submitted_batches = 0
        self._submitted_records = 0
        self._shed_batches = 0
        self._shed_records = 0
        self._started_at: float | None = None
        self._submit_busy_s = 0.0
        self._counters_ready = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "FleetService":
        self.start()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.close()
        else:  # tear down without draining on error paths
            self._abort()

    @property
    def started(self) -> bool:
        return self._started_at is not None

    @property
    def n_shards(self) -> int:
        """Workers ever spawned (retired and failed-over ones included)."""
        return len(self._inboxes)

    def start(self) -> None:
        """Spawn the shard workers and open their pipes."""
        if self.started:
            raise FleetError("service already started")
        self._context = multiprocessing.get_context()
        for shard in range(self.config.n_shards):
            self._spawn_worker(shard)
        self._started_at = time.perf_counter()
        if not self._counters_ready:
            self._submitted_records_c = self.registry.counter("fleet.submitted_records")
            self._submitted_batches_c = self.registry.counter("fleet.submitted_batches")
            self._shed_records_c = self.registry.counter("fleet.shed_records")
            self._shed_batches_c = self.registry.counter("fleet.shed_batches")
            self._depth_samples = self.registry.histogram(
                "fleet.queue_depth_samples", buckets=QUEUE_DEPTH_BUCKETS
            )
            self._counters_ready = True

    def _spawn_worker(self, shard: int, heartbeat_every=None, epoch: int = 0) -> None:
        """Start one shard worker process; shard ids index the inbox and
        worker tables, so spawn order must follow shard id order (the HA
        layer appends new ids when the pool grows, and passes the beacon
        interval and view epoch the worker starts with)."""
        if shard != self.n_shards:
            raise FleetError(
                f"shard ids must be dense: spawning {shard} "
                f"with {self.n_shards} existing"
            )
        inbox_read, inbox_write = new_outbox_pipe()
        outbox_read, outbox_write = new_outbox_pipe()
        inbox = OutboxWriter(inbox_write, window=self.config.queue_depth)
        outbox = OutboxReader(outbox_read)
        parent_ends = [*self._inboxes, *self._outboxes, inbox, outbox]
        worker = self._context.Process(
            target=shard_worker,
            args=(
                shard,
                inbox_read,
                outbox_write,
                [pipe for pipe in parent_ends if pipe is not None],
                self.config.return_verdicts,
                self.config.coalesce,
                heartbeat_every,
                epoch,
            ),
            daemon=True,
            name=f"fleet-shard-{shard}",
        )
        worker.start()
        # The worker owns its ends now; dropping our copies makes its
        # death observable as EOF on the outbox (and EPIPE on the inbox).
        os.close(inbox_read)
        os.close(outbox_write)
        self._inboxes.append(inbox)
        self._outboxes.append(outbox)
        # Resolved once: the depth is sampled on every submit.
        self._depth_gauges.append(
            self.registry.gauge("fleet.queue_depth", shard=str(shard))
        )
        self._workers.append(worker)
        self._live_shards.add(shard)

    def _route(self, job_id: int) -> int:
        """The shard a job's records go to.  The base service reads the
        consistent-hash ring directly; the HA service overrides this
        with an (epoch, assignment) read from its coordinator."""
        return self.router.shard_for(job_id)

    # ------------------------------------------------------------------
    def submit_job(self, job: JobConfig) -> int:
        """Register a monitored job; returns its shard.

        Registration is a control message: it waits for inbox room and
        is never shed, whatever the record policy.
        """
        self._require_started()
        shard = self._route(job.job_id)
        self._journal_job(shard, job)
        self._send(shard, ("job", job))
        self.jobs[job.job_id] = job
        self.registry.counter("fleet.submitted_jobs").inc()
        return shard

    def submit(self, batch: IterationSegment | RecordBatch) -> None:
        """Encode (at the configured wire version) and ingest one batch."""
        self.submit_encoded(
            encode_batch(batch, version=self.config.wire_version),
            batch.job_id,
            batch.n_records,
        )

    def submit_encoded(self, line: str | bytes, job_id: int | None = None, n_records: int | None = None) -> None:
        """Ingest an already-encoded wire unit (the replay fast path):
        a v1 JSON line (``str``) or a v2 binary frame (``bytes``).

        ``job_id``/``n_records`` may be omitted; they are then peeked
        from the unit's routing prefix without a full parse.
        """
        self._ingest(line, job_id, n_records, block=True)

    def try_submit_encoded(
        self,
        line: str | bytes,
        job_id: int | None = None,
        n_records: int | None = None,
    ) -> bool:
        """Non-blocking ingest for event-loop frontends: returns False
        (accepting nothing, counting nothing) when the target shard's
        bounded inbox is full under the ``block`` policy, instead of
        stalling the caller.  The TCP server turns a False into paused
        reads on that connection — per-connection backpressure without
        blocking every other stream sharing the event loop.  Under
        ``shed-oldest`` it always accepts (the shed counters absorb the
        overflow, exactly as in blocking submit).
        """
        return self._ingest(line, job_id, n_records, block=False)

    def _ingest(self, line, job_id, n_records, block: bool) -> bool:
        self._require_started()
        if job_id is None or n_records is None:
            job_id, n_records = peek_batch(line)
        started = time.perf_counter()
        shard = self._route(job_id)
        # A refused unit is never journaled, an accepted one is
        # journaled before it is sent.
        inbox = self._inboxes[shard]
        if not block and self.config.policy == "block" and inbox.pending >= self.config.queue_depth:
            return False
        self._journal_batch(shard, line, job_id, n_records)
        self._send(shard, ("batch", line, n_records, time.time()))
        self._submitted_batches += 1
        self._submitted_records += n_records
        self._submitted_batches_c.inc()
        self._submitted_records_c.inc(n_records)
        self._depth_gauges[shard].set(inbox.pending)
        self._depth_samples.observe(inbox.pending)
        self._submit_busy_s += time.perf_counter() - started
        if self._submitted_batches % POLL_EVERY == 0:
            self.poll()
        return True

    def _journal_job(self, shard: int, job: JobConfig) -> None:
        """Durability hook before a job registration is dispatched; the
        base service keeps no journal."""

    def _journal_batch(
        self, shard: int, line: str | bytes, job_id: int, n_records: int
    ) -> None:
        """Durability hook before a batch is dispatched; the base
        service keeps no journal."""

    def _send(self, shard: int, message) -> None:
        """Hand one message to a shard's inbox — the only code that
        posts to one.  With room that is one non-blocking ``os.write``.
        Without, a ``"batch"`` under ``shed-oldest`` evicts the oldest
        batch from the inbox's parent-side tail and takes its place;
        anything else — control messages are never shed, whatever the
        policy — waits in :meth:`_wait_for_output` until the worker
        reports room or :meth:`_still_draining` says to give up.  The
        wait reads the outboxes, which is what keeps the pair
        deadlock-free: a worker stalled on its bounded outbox pipe takes
        nothing.
        """
        inbox = self._inboxes[shard]
        if self.config.policy == "shed-oldest" and message[0] == "batch":
            if inbox.pending >= self.config.queue_depth:
                evicted = inbox.evict(lambda queued: queued[0] in ("batch", "replay"))
                if evicted is not None:
                    self._on_shed(evicted)
        else:
            while inbox.pending >= self.config.queue_depth:
                if not self._still_draining(shard):
                    return
                self._wait_for_output()
        inbox.post(message)

    def _wait_for_output(self, timeout: float | None = None) -> int:
        """Fold ready worker output; if there is none, block until an
        outbox is readable (or ``timeout`` passes), and fold again.
        Returns the messages handled.  The fleet's one way to wait, for
        inbox room too: every slot a worker frees is announced on its
        outbox, and a dead worker's outbox is at EOF, which is readable.
        The readers are listed before the first fold, so an EOF that fold
        met ends the wait at once.
        """
        readers = self.open_outboxes()
        handled = self._drain_outboxes()
        if handled == 0:
            connection.wait(readers, timeout)
            handled = self._drain_outboxes()
        return handled

    def _still_draining(self, shard: int) -> bool:
        """May a sender waiting for room on ``shard`` keep waiting?  No
        failover here, so a dead worker's full inbox is fatal (the HA
        service recovers and answers False)."""
        if self._outboxes[shard].eof or not self._workers[shard].is_alive():
            raise FleetError(f"shard {shard} died with a full inbox; nothing will drain it")
        return True

    def _on_shed(self, evicted) -> None:
        """Account one evicted batch message (HA also settles its
        in-flight record ledger here)."""
        self._shed_batches += 1
        self._shed_records += evicted[2]
        self._shed_batches_c.inc()
        self._shed_records_c.inc(evicted[2])
        if self.telemetry is not None:
            self.telemetry.emit(
                "fleet.shed", n_records=evicted[2], policy=self.config.policy
            )

    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Drain ready worker output without blocking; returns the
        number of messages handled.

        Each shard has its own framed outbox pipe, read non-blocking —
        a worker SIGKILLed mid-send tears only its own stream (the torn
        tail is dropped at EOF), and can never stall this loop or any
        surviving worker.
        """
        self._require_started()
        return self._drain_outboxes()

    def open_outboxes(self) -> list[OutboxReader]:
        """The outbox readers worth waiting on: not retired, not at EOF."""
        return [r for r in self._outboxes if r is not None and not r.eof]

    def _drain_outboxes(self) -> int:
        handled = 0
        for reader in self._outboxes:
            if reader is None:
                continue
            for message in reader.drain():
                self._handle(message)
                handled += 1
        return handled

    def _handle(self, message) -> None:
        kind = message[0]
        if kind == "verdict":
            _kind, shard, job_id, verdict = message
            self._on_verdict(shard, job_id, verdict)
        elif kind == "summary":
            self._on_summary(message[1], message[2], message[3])
        elif kind == "taken":
            self._inboxes[message[1]].ack(message[2])
        elif kind == "heartbeat":
            self._on_heartbeat(message[1], message[2], message[3], message[4])
        elif kind == "error":
            self.errors.append(f"shard {message[1]}: {message[2]}")
        elif kind == "metrics":
            self._worker_snapshots.append(message[2])
        elif kind == "done":
            self._done.add(message[1])
        else:  # pragma: no cover - protocol bug
            raise FleetError(f"unknown outbox message kind {kind!r}")

    def _on_verdict(self, shard: int, job_id: int, verdict: IterationVerdict) -> None:
        """Fold one worker verdict into the fleet state (HA overrides
        this to fence dead shards and deduplicate journal replays)."""
        if self.config.return_verdicts or verdict.triggered:
            self.verdicts.setdefault(job_id, []).append(verdict)
        self.aggregator.observe(job_id, verdict)

    def _on_summary(self, shard: int, job_id: int, iteration: int) -> None:
        """Count one quiet-iteration acknowledgement."""
        self._summaries += 1
        self.aggregator.verdicts_seen += 1

    def _on_heartbeat(self, shard: int, epoch: int, seq: int, sent_at: float) -> None:
        """Liveness beacon hook; the base service has no failure
        detector, so beacons are simply counted."""
        self.registry.counter("fleet.heartbeats_seen").inc()

    # ------------------------------------------------------------------
    def close(self) -> FleetResult:
        """Stop ingesting, drain every shard, join workers, and build
        the final :class:`FleetResult` (also kept in ``self.result``)."""
        self._require_started()
        submit_elapsed = self._submit_busy_s
        expected = set(self._live_shards)
        for shard in sorted(expected):
            self._send(shard, ("stop",))
        try:
            self._drain_until_done(expected)
        except FleetError:
            self._abort()
            raise
        for shard in sorted(expected):
            self._workers[shard].join(timeout=DRAIN_TIMEOUT_S)
        elapsed = time.perf_counter() - self._started_at
        for snapshot in self._worker_snapshots:
            self.registry.merge_snapshot(snapshot)
        incidents = self.aggregator.finalize()
        self._teardown()
        self.result = FleetResult(
            jobs=dict(self.jobs),
            verdicts={job: list(v) for job, v in self.verdicts.items()},
            incidents=incidents,
            metrics=self.registry.snapshot(),
            errors=list(self.errors),
            submitted_batches=self._submitted_batches,
            submitted_records=self._submitted_records,
            shed_batches=self._shed_batches,
            shed_records=self._shed_records,
            summaries=self._summaries,
            elapsed_s=elapsed,
            submit_elapsed_s=submit_elapsed,
            incident_log=self.incident_log,
        )
        if self.telemetry is not None:
            self.telemetry.emit(
                "fleet.closed",
                submitted_records=self._submitted_records,
                shed_records=self._shed_records,
                incidents=len(incidents),
                elapsed_s=elapsed,
            )
        return self.result

    def _drain_until_done(self, shards: set[int]) -> None:
        """Fold worker output until every shard in ``shards`` (each sent
        ``("stop",)``) has said "done"; one that exits without is caught
        at once, by EOF on its outbox."""
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while not shards <= self._done:
            unfinished = sorted(shards - self._done)
            exited = [
                f"shard {shard} (torn_bytes={self._outboxes[shard].torn_bytes})"
                for shard in unfinished
                if self._outboxes[shard].eof
            ]
            if exited:
                raise FleetError(
                    "shard worker exited before finishing its drain: "
                    + ", ".join(exited)
                )
            if time.monotonic() > deadline:
                raise FleetError(
                    "fleet drain timed out waiting for shard workers "
                    f"(unfinished: {unfinished})"
                )
            if self._wait_for_output(deadline - time.monotonic()) > 0:
                deadline = time.monotonic() + DRAIN_TIMEOUT_S

    def _abort(self) -> None:
        """Kill workers without draining (error-path teardown)."""
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._teardown()

    def _retire_pipes(self, shard: int) -> None:
        """Close a dead shard's pipes (its worker has exited and
        everything readable was harvested; what its inbox still held is
        dropped)."""
        self._inboxes[shard].close()
        reader = self._outboxes[shard]
        if reader is not None:
            reader.close()
            self._outboxes[shard] = None

    def _teardown(self) -> None:
        for inbox in self._inboxes:
            inbox.close()
        for reader in self._outboxes:
            if reader is not None:
                reader.close()
        self._inboxes = []
        self._outboxes = []
        self._depth_gauges = []
        self._workers = []
        self._live_shards = set()
        self._done = set()
        self._started_at = None

    def _require_started(self) -> None:
        if not self.started:
            raise FleetError("service not started (use start() or a with block)")


# ----------------------------------------------------------------------
# Convenience drivers
# ----------------------------------------------------------------------
def serve_workload(
    jobs,
    batches,
    config: FleetConfig | None = None,
    telemetry=None,
) -> FleetResult:
    """Run a whole workload through a fresh service: register every job,
    stream every batch, drain, and return the result."""
    service = FleetService(config=config, telemetry=telemetry)
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            if isinstance(batch, (str, bytes)):
                service.submit_encoded(batch)
            else:
                service.submit(batch)
    result = service.result
    assert result is not None
    return result


def serve_fprec(
    source,
    config: FleetConfig | None = None,
    telemetry=None,
) -> FleetResult:
    """Replay a recorded ``.fprec`` stream through a fresh service."""
    from .codec import read_fprec

    content = read_fprec(source)
    return serve_workload(
        content.jobs, content.batches, config=config, telemetry=telemetry
    )


def reference_verdicts(
    jobs, batches
) -> dict[int, list[IterationVerdict]]:
    """The golden reference: every job's batches, in submission order,
    scored by one :meth:`~repro.core.monitor.FlowPulseMonitor.process_block`
    on a fresh monitor in this process.  The fleet service must match
    this bit for bit (block policy)."""
    entries: dict[int, list] = {job.job_id: [] for job in jobs}
    for batch in batches:
        if batch.job_id in entries:
            entries[batch.job_id].append(
                batch if isinstance(batch, IterationSegment) else list(batch.records)
            )
    return {
        job.job_id: build_monitor(job).process_block(entries[job.job_id])
        for job in jobs
    }
