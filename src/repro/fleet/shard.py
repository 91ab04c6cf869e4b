"""Sharding: job routing and the per-shard worker loop.

The fleet service is scaled horizontally the same way FlowPulse itself
is: per-job monitors are coordination-free, so jobs can be partitioned
across worker processes with no cross-shard traffic at all.  A job's
records must, however, reach *its* monitor in iteration order — so the
unit of placement is the whole job, assigned to a shard by consistent
hashing (:class:`ShardRouter`), and each shard's bounded FIFO inbox
preserves per-job order end to end.

The worker (:func:`shard_worker`) owns the monitors of the jobs routed
to it: it decodes incoming wire units — v1 JSON lines are a text
encoding of the columns v2 frames carry as bytes, so both reach the
monitor as columnar :class:`~repro.core.blocks.IterationSegment` —
coalesces queued batches, scores each coalesced flush, every job in
it, in one :func:`~repro.core.monitor.process_blocks` call, and ships
verdicts back on its private framed outbox pipe.  Everything it touches is
deterministic given the job configs and record stream, which is what
makes the service's golden-parity guarantee (bit-identical verdicts to
a direct monitor feed) testable.

Each worker keeps a private :class:`~repro.telemetry.MetricsRegistry`;
its snapshot is shipped back on shutdown and merged into the fleet
snapshot by the service (no cross-process metric synchronisation).
"""

from __future__ import annotations

import bisect
import hashlib
import select
import time
from collections import deque
from dataclasses import dataclass

from ..analysis.experiments import build_trial, make_predictor
from ..core.detection import DetectionConfig
from ..core.monitor import FlowPulseMonitor, process_blocks
from ..telemetry.registry import MetricsRegistry
from .codec import CodecError, JobConfig, decode_batch_segment


class FleetError(RuntimeError):
    """Raised for malformed fleet configuration or protocol misuse."""


#: Detection latencies are dominated by queue wait at overload and by
#: sub-millisecond compute otherwise; the default telemetry buckets
#: start at 1 ms, so the fleet adds a finer low end.
LATENCY_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _hash64(key: str) -> int:
    """Stable 64-bit hash (blake2b): identical across processes and
    runs, unlike ``hash()`` under ``PYTHONHASHSEED``."""
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


class ShardRouter:
    """Consistent-hash ring mapping ``job_id`` -> shard id.

    Each shard contributes ``n_replicas`` virtual points on a 64-bit
    ring; a job lands on the first point clockwise of its own hash.
    Consistent hashing keeps the mapping stable when the shard count
    changes: growing from N to N+1 shards moves roughly ``1/(N+1)`` of
    the jobs, instead of reshuffling nearly all of them as ``job_id %
    n_shards`` would.

    A shard's ring points are a function of its *id*, not its position,
    so a router built over an arbitrary id set (:meth:`from_ids` — how
    the HA layer routes after a shard dies or the pool grows) agrees
    with the dense-id router about every job that did not have to move.
    """

    def __init__(
        self,
        n_shards: int,
        n_replicas: int = 64,
        shard_ids: tuple[int, ...] | None = None,
    ) -> None:
        if shard_ids is None:
            if n_shards < 1:
                raise FleetError("need at least one shard")
            shard_ids = tuple(range(n_shards))
        else:
            shard_ids = tuple(sorted(set(shard_ids)))
            if not shard_ids:
                raise FleetError("need at least one shard")
        if n_replicas < 1:
            raise FleetError("need at least one replica point per shard")
        self.n_shards = len(shard_ids)
        self.shard_ids = shard_ids
        self.n_replicas = n_replicas
        points = []
        for shard in shard_ids:
            for replica in range(n_replicas):
                points.append((_hash64(f"shard:{shard}:{replica}"), shard))
        points.sort()
        self._keys = [key for key, _shard in points]
        self._shards = [shard for _key, shard in points]

    @classmethod
    def from_ids(cls, shard_ids, n_replicas: int = 64) -> "ShardRouter":
        """A ring over an explicit (possibly sparse) set of shard ids."""
        shard_ids = tuple(shard_ids)
        return cls(len(shard_ids), n_replicas=n_replicas, shard_ids=shard_ids)

    def shard_for(self, job_id: int) -> int:
        """The shard owning ``job_id`` (deterministic, process-stable)."""
        index = bisect.bisect_right(self._keys, _hash64(f"job:{job_id}"))
        if index == len(self._keys):  # wrap around the ring
            index = 0
        return self._shards[index]

    def assignment(self, job_ids) -> dict[int, int]:
        """``{job_id: shard}`` for a collection of jobs."""
        return {job_id: self.shard_for(job_id) for job_id in job_ids}


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def build_monitor(job: JobConfig) -> FlowPulseMonitor:
    """Rebuild a job's monitor exactly as the trial runner would.

    Deterministic in ``(experiment, base_seed, trial)``: the fabric
    model, fault placement, demand, and predictor construction are the
    same calls :func:`repro.analysis.experiments.run_trial` makes, so a
    monitor built here is interchangeable with a direct-feed one.
    """
    setup = build_trial(job.experiment, base_seed=job.base_seed, trial=job.trial)
    predictor = make_predictor(job.experiment, setup)
    return FlowPulseMonitor(
        predictor, DetectionConfig(threshold=job.experiment.threshold)
    )


def shard_worker(
    shard_id: int,
    inbox_fd: int,
    outbox_fd: int,
    inherited: list,
    return_verdicts: bool,
    coalesce: int = 32,
    heartbeat_every: float | None = None,
    epoch: int = 0,
) -> None:
    """Worker-process entry point: serve the inbox until a stop message.

    ``inbox_fd`` and ``outbox_fd`` are this worker's ends of its two
    framed pipes (see :mod:`~repro.fleet.transport`); ``inherited`` are
    the parent's pipe readers and writers ``fork`` copied in — this
    shard's other two ends and every sibling's — and are closed first,
    so EOF on the inbox means the parent is gone and a SIGKILL here can
    tear only this worker's own streams.

    Inbox messages (tuples, cheap to pickle):

    - ``("job", JobConfig)`` — register a job; builds its monitor.
      Idempotent: re-registering a known job keeps the live monitor
      (failover replays registrations ahead of the record journal).
    - ``("batch", unit, n_records, submitted_at)`` — one encoded
      :class:`~repro.fleet.codec.RecordBatch` (v1 JSON line ``str`` or
      v2 binary frame ``bytes``) plus its submit wall time.
    - ``("replay", unit, n_records, submitted_at)`` — same payload, but
      the unit is a journal replay (failover / resharding handoff): it
      is scored identically and additionally counted in
      ``fleet.replayed_records`` so record accounting can separate
      first-time work from recovery work.
    - ``("forget", job_ids)`` — drop the monitors of jobs that were
      handed off to another shard (frees their memory; their records
      stop arriving at this shard once the view changed).
    - ``("epoch", n)`` — adopt a coordinator epoch (a worker starts in
      ``epoch``); echoed in every heartbeat so the parent can fence a
      worker stuck on a stale view.
    - ``("stop",)`` — drain finished; ship metrics and exit.

    Each wake-up takes up to ``coalesce`` batch messages, ending early
    at a control message (a barrier: the batches before it are scored
    first), and scores the batches of every job in one
    :func:`~repro.core.monitor.process_blocks` call — units of either
    wire version decode to columnar segments, every job's iterations
    are fit-checked and scored in one vectorized pass per fabric shape
    and only alarm-bearing leaves reach the scalar oracle.  Per-job
    batch order is preserved (the golden-parity invariant).
    ``fleet.detect_compute_s`` observes, once per unit, the flush's
    scoring time divided by its units.

    Outbox messages (everything one wake-up produced shares one frame;
    beacons, metrics and "done" are frames of their own):

    - ``("verdict", shard, job_id, IterationVerdict)`` — full verdict
      (always when ``return_verdicts``, else only for triggered or
      skipped-relevant iterations the aggregator needs).
    - ``("summary", shard, job_id, iteration, skipped, max_score)`` —
      compact quiet-iteration acknowledgement.
    - ``("heartbeat", shard, epoch, seq, wall_time)`` — liveness beacon,
      sent at least every ``heartbeat_every`` seconds (idle wake-ups
      included) when the interval is configured.
    - ``("error", shard, detail)`` — a unit that failed to decode, or a
      job whose update or scoring raised (that job's batches of the
      flush are lost; the worker keeps going; errors are counted,
      never fatal).
    - ``("taken", shard, n)`` — closes every wake-up's frame: ``n``
      inbox messages taken, so the parent may post ``n`` more.  ``n`` is
      0 when the inbox held only part of a frame: the parent's writer is
      stalled on a full pipe and this read made room.
    - ``("metrics", shard, snapshot)`` then ``("done", shard)`` on stop.
    """
    if coalesce < 1:
        raise FleetError("coalesce must be at least 1")
    if heartbeat_every is not None and heartbeat_every <= 0:
        raise FleetError("heartbeat_every must be positive")
    from .transport import OutboxReader, OutboxWriter

    for pipe in inherited:
        pipe.close()
    inbox = OutboxReader(inbox_fd)
    outbox = OutboxWriter(outbox_fd)
    registry = MetricsRegistry()
    label = str(shard_id)
    batches_c = registry.counter("fleet.batches", shard=label)
    records_c = registry.counter("fleet.records", shard=label)
    replayed_c = registry.counter("fleet.replayed_records", shard=label)
    alarmed_c = registry.counter("fleet.alarmed_iterations", shard=label)
    skipped_c = registry.counter("fleet.skipped_iterations", shard=label)
    unknown_c = registry.counter("fleet.unknown_job_batches", shard=label)
    errors_c = registry.counter("fleet.worker_errors", shard=label)
    jobs_c = registry.counter("fleet.jobs", shard=label)
    heartbeats_c = registry.counter("fleet.heartbeats", shard=label)
    detect_h = registry.histogram(
        "fleet.detect_compute_s", buckets=LATENCY_BUCKETS, shard=label
    )
    latency_h = registry.histogram(
        "fleet.detection_latency_s", buckets=LATENCY_BUCKETS, shard=label
    )
    monitors: dict[int, FlowPulseMonitor] = {}
    beat_seq = 0
    last_beat = time.time()

    def report_error(exc: Exception, out: list) -> None:
        errors_c.inc()
        out.append(("error", shard_id, f"{type(exc).__name__}: {exc}"))

    def beat(force: bool = False) -> None:
        nonlocal beat_seq, last_beat
        if heartbeat_every is None:
            return
        now = time.time()
        if force or now - last_beat >= heartbeat_every:
            beat_seq += 1
            heartbeats_c.inc()
            outbox.send(("heartbeat", shard_id, epoch, beat_seq, now))
            last_beat = now

    def flush(pending: list, out: list) -> None:
        """Decode buffered batch messages and score the whole flush in
        one :func:`~repro.core.monitor.process_blocks` call, one block
        per job, appending its verdicts and summaries to ``out``.

        Grouping only reorders *across* jobs; within a job the entries
        keep arrival order, so each monitor still sees its iterations
        in sequence.  One malformed unit costs one error, and a job
        whose update or scoring raises costs one error for that job
        only: every other job of the flush is scored and shipped.
        """
        if not pending:
            return
        groups: dict[int, list] = {}  # job -> [(segment, submitted_at, replayed)]
        for kind, unit, _n_records, submitted_at in pending:
            try:
                segment = decode_batch_segment(unit)
            except (CodecError, RuntimeError, ValueError) as exc:
                report_error(exc, out)
                continue
            groups.setdefault(segment.job_id, []).append(
                (segment, submitted_at, kind == "replay")
            )
        jobs, pairs = [], []
        for job_id, members in groups.items():
            monitor = monitors.get(job_id)
            if monitor is None:
                unknown_c.inc(len(members))
                continue
            jobs.append((job_id, members))
            pairs.append((monitor, [member[0] for member in members]))
        if not pairs:
            return
        started = time.perf_counter()
        scored = process_blocks(pairs, catch=(FleetError, RuntimeError, ValueError))
        per_batch_s = (time.perf_counter() - started) / sum(len(block) for _, block in pairs)
        now = time.time()
        for (job_id, members), verdicts in zip(jobs, scored):
            if not isinstance(verdicts, list):
                report_error(verdicts, out)
                continue
            for verdict, (segment, submitted_at, replayed) in zip(verdicts, members):
                detect_h.observe(per_batch_s)
                latency_h.observe(max(0.0, now - submitted_at))
                batches_c.inc()
                records_c.inc(segment.n_records)
                if replayed:
                    replayed_c.inc(segment.n_records)
                if verdict.skipped:
                    skipped_c.inc()
                triggered = verdict.triggered
                if triggered:
                    alarmed_c.inc()
                if return_verdicts or triggered:
                    out.append(("verdict", shard_id, job_id, verdict))
                else:
                    out.append(
                        (
                            "summary",
                            shard_id,
                            job_id,
                            verdict.iteration,
                            verdict.skipped,
                            verdict.max_score,
                        )
                    )

    queued: deque = deque()
    woken = False
    while True:
        if len(queued) < coalesce:  # what the pipe holds, not the whole window
            queued.extend(inbox.drain())
        if not queued:
            if inbox.eof:
                return  # the parent is gone: nobody to report to
            if woken:  # readable, yet no whole frame: the parent's is stalled
                outbox.send(("taken", shard_id, 0))
            woken = bool(select.select([inbox], [], [], heartbeat_every)[0])
            if not woken:
                beat(force=True)  # idle, but alive
            continue
        pending: list = []
        control = None
        while queued and len(pending) < coalesce:
            message = queued.popleft()
            if message[0] not in ("batch", "replay"):
                control = message
                break
            pending.append(message)
        out: list = []
        flush(pending, out)
        kind = control[0] if control is not None else None
        try:
            if kind == "job":
                job = control[1]
                if job.job_id not in monitors:
                    monitors[job.job_id] = build_monitor(job)
                    jobs_c.inc()
            elif kind == "forget":
                for job_id in control[1]:
                    monitors.pop(job_id, None)
            elif kind == "epoch":
                epoch = control[1]
                registry.gauge("fleet.worker_epoch", shard=label).set(epoch)
            elif kind not in (None, "stop"):
                raise FleetError(f"unknown shard message kind {kind!r}")
        except (CodecError, FleetError, RuntimeError, ValueError) as exc:
            report_error(exc, out)
        out.append(("taken", shard_id, len(pending) + (control is not None)))
        outbox.send_many(out)
        if kind == "stop":
            break
        beat()
    outbox.send(("metrics", shard_id, registry.snapshot()))
    outbox.send(("done", shard_id))
    outbox.close()


@dataclass(frozen=True)
class ShardAssignment:
    """How a workload spreads over shards (for reports and tests)."""

    n_shards: int
    jobs_per_shard: dict[int, int]

    @property
    def max_load(self) -> int:
        return max(self.jobs_per_shard.values(), default=0)

    @property
    def min_load(self) -> int:
        return min(self.jobs_per_shard.values(), default=0)


def describe_assignment(router: ShardRouter, job_ids) -> ShardAssignment:
    """Summarize the router's placement of ``job_ids``."""
    per_shard = dict.fromkeys(range(router.n_shards), 0)
    for job_id in job_ids:
        per_shard[router.shard_for(job_id)] += 1
    return ShardAssignment(n_shards=router.n_shards, jobs_per_shard=per_shard)
