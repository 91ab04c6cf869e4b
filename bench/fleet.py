"""Fleet workloads: record → verdict → incident through the serving path.

Three workloads share this file because they share every layer and
differ only in how hard they lean on each one (see ``README.md``):
``fleet_inproc_v2`` (quiet majority, columnar frames, in-process
submit), ``fleet_tcp_v2`` (same stream through the HA service behind
the asyncio TCP front-end) and ``fleet_inproc_v1_storm`` (every
iteration alarms, JSON lines).

Everything is measured from outside: the harness times calls into the
fleet's public functions and never edits ``src/repro``.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import time
from dataclasses import dataclass, replace
from statistics import median

from repro.analysis.experiments import ExperimentConfig
from repro.fleet import (
    FleetAggregator,
    FleetConfig,
    FleetService,
    LoadGenConfig,
    ShardRouter,
    StreamDecoder,
    build_monitor,
    decode_batch,
    decode_batch_segment,
    encode_batch,
    encode_job,
    generate_jobs,
    peek_batch,
)
from repro.fleet.ha import FleetNetServer, HAConfig, HAFleetService, stream_workload
from repro.fleet.loadgen import job_records
from repro.fleet.transport import OutboxReader, OutboxWriter, new_outbox_pipe
from repro.units import GIB

from harness import (
    NULL_TRACER,
    cpu_seconds,
    digest,
    end_to_end_metrics,
    overhead_share,
    percentile,
    scratch_dir,
    settle_heap,
    timed_passes,
    traced_pairs,
)

N_SHARDS = 2
COALESCE = 32  # FleetConfig's default worker drain size; the walk mirrors it
CONNECTIONS = 2
READ_CHUNK = 64 * 1024  # NetServerConfig's default socket read size
SETUP_REPEATS = 3
#: (warm-up, samples) of one closed-loop round on one service instance,
#: and how many instances one call to ``rtt_rounds`` goes through.
RTT_INPROC = (30, 70)
RTT_TCP = (3, 10)
RTT_ROUNDS = 3

#: 8 GiB collectives: at the legacy benchmarks' 2 GiB, spraying noise
#: makes healthy jobs false-alarm and ground truth cannot gate the run.
EXPERIMENT = ExperimentConfig(n_leaves=32, n_spines=16, collective_bytes=8 * GIB)


@dataclass(frozen=True)
class FleetSpec:
    """Shape of one fleet stream and how it is served."""

    n_jobs: int
    n_iterations: int
    fault_fraction: float
    wire_version: int
    tcp: bool = False


WORKLOADS = {
    "fleet_inproc_v2": FleetSpec(48, 64, 0.25, 2),
    "fleet_tcp_v2": FleetSpec(48, 64, 0.25, 2, tcp=True),
    "fleet_inproc_v1_storm": FleetSpec(48, 24, 1.0, 1),
}

#: What the traced run of a *non-fleet* workload profiles the fleet
#: layers on: small enough to cost about a second, so every layer has a
#: measured control value on every workload.
PROBE = FleetSpec(8, 16, 0.25, 2)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Stream:
    jobs: list
    units: list  # encoded wire units, round-robin by iteration
    n_records: int
    wire_bytes: int


def build_stream(spec: FleetSpec, seed: int) -> Stream:
    """Generate and encode the workload job by job, so decoded records
    of at most one job are alive at a time; the interleave is
    ``generate_workload``'s (iteration-major round-robin)."""
    config = LoadGenConfig(
        n_jobs=spec.n_jobs,
        n_iterations=spec.n_iterations,
        fault_fraction=spec.fault_fraction,
        base_seed=seed,
        experiment=EXPERIMENT,
    )
    jobs = generate_jobs(config)
    per_job = []
    n_records = 0
    for job in jobs:
        batches = job_records(config, job)
        n_records += sum(batch.n_records for batch in batches)
        per_job.append(
            [encode_batch(batch, version=spec.wire_version) for batch in batches]
        )
    units = [
        per_job[job][iteration]
        for iteration in range(spec.n_iterations)
        for job in range(spec.n_jobs)
    ]
    return Stream(jobs, units, n_records, sum(len(wire(unit)) for unit in units))


def timed_setups(spec: FleetSpec, seed: int, repeats: int):
    """Build the stream ``repeats`` times; keep the last one."""
    times = []
    stream = None
    for _ in range(repeats):
        stream = None  # at most one stream alive
        started = time.perf_counter()
        stream = build_stream(spec, seed)
        times.append(time.perf_counter() - started)
    settle_heap()
    return stream, times


def wire(unit) -> bytes:
    """A unit as it travels on a stream: JSON lines end in a newline,
    binary frames are self-delimiting."""
    return unit if isinstance(unit, bytes) else (unit + "\n").encode()


def make_service(spec: FleetSpec, ha_dir=None):
    config = FleetConfig(n_shards=N_SHARDS, wire_version=spec.wire_version)
    if ha_dir is None:
        return FleetService(config)
    return HAFleetService(config, HAConfig(journal_dir=ha_dir))


# ----------------------------------------------------------------------
# Reference and correctness
# ----------------------------------------------------------------------
def verdict_signature(verdict) -> str:
    return digest(
        [verdict.iteration, verdict.max_score, sorted(verdict.suspected_links())]
    )


@dataclass
class Reference:
    """What a single plain process says the stream's outputs are."""

    triggered: dict  # (job, iteration) -> verdict signature
    incidents: list  # incident.closed payloads, sorted by (job, link)
    n_batches: int

    def digest(self) -> str:
        return digest(
            [sorted([j, i, s] for (j, i), s in self.triggered.items()), self.incidents]
        )


def failed_batches(result, reference: Reference) -> tuple[int, list[str]]:
    """Failed operations of one finished service pass, with reasons."""
    failed = 0
    reasons = []

    def fail(count: int, why: str) -> None:
        nonlocal failed
        if count:
            failed += count
            reasons.append(f"{why}: {count}")

    submitted = result.submitted_batches
    fail(abs(submitted - reference.n_batches), "batches not submitted")
    fail(abs(submitted - result.processed_batches - result.shed_batches), "unacknowledged")
    fail(result.shed_batches, "shed under block")
    fail(len(result.errors), "worker errors")
    if hasattr(result, "lost_records"):
        fail(result.lost_records, "lost records")
        fail(result.failovers, "failovers")
        fail(0 if result.accounting_ok else 1, "ledger does not balance")
    triggered = {
        (job_id, verdict.iteration): verdict_signature(verdict)
        for job_id, verdicts in result.verdicts.items()
        for verdict in verdicts
    }
    fail(len(set(triggered.items()) ^ set(reference.triggered.items())), "verdicts differ")
    incidents = [incident.to_event() for incident in result.incidents]
    if digest(incidents) != digest(reference.incidents):
        fail(max(1, abs(len(incidents) - len(reference.incidents))), "incidents differ")
    validation = result.validate()
    if not validation.ok:
        failed = max(failed, submitted)
        reasons.append(
            f"ground truth: missed {validation.missed}, false alarms {validation.false_alarms}"
        )
    return min(failed, submitted) if submitted else failed, reasons


# ----------------------------------------------------------------------
# The single-process layer walk (also the correctness reference)
# ----------------------------------------------------------------------
def decode_by_job(units) -> dict[int, list]:
    """Decode units the way a shard worker does — v2 frames straight to
    columnar segments, v1 lines to record lists — grouped by job in
    arrival order."""
    groups: dict[int, list] = {}
    for unit in units:
        if isinstance(unit, bytes):
            entry = decode_batch_segment(unit)
            groups.setdefault(entry.job_id, []).append(entry)
        else:
            batch = decode_batch(unit)
            groups.setdefault(batch.job_id, []).append(list(batch.records))
    return groups


@dataclass
class Walk:
    reference: Reference
    n_messages: int
    message_bytes: int
    n_triggered: int


def layer_walk(spec: FleetSpec, stream: Stream, tracer=NULL_TRACER) -> Walk:
    """Every fleet layer, one after the other, in one process.

    Mirrors what the service does to a unit — peek, route, per-shard
    coalescing of ``COALESCE`` units, decode, ``process_block`` per job,
    verdict/summary messages over a real outbox pipe, aggregator fold —
    with a span around each call and nothing retained past the next
    stage.  Its verdicts and incidents are the reference the sharded
    passes are compared with.
    """
    router = ShardRouter(N_SHARDS)
    with tracer.span("fleet.shard.build_monitor"):
        monitors = {job.job_id: build_monitor(job) for job in stream.jobs}
    aggregator = FleetAggregator()
    read_fd, write_fd = new_outbox_pipe()
    writer, reader = OutboxWriter(write_fd), OutboxReader(read_fd)
    triggered: dict = {}
    walk = Walk(Reference(triggered, [], len(stream.units)), 0, 0, 0)

    def flush(shard: int, units: list) -> None:
        with tracer.span("fleet.codec.decode"):
            groups = decode_by_job(units)
        for job_id, entries in groups.items():
            with tracer.span("core.monitor.block"):
                verdicts = monitors[job_id].process_block(entries)
            messages = [
                ("verdict", shard, job_id, v)
                if v.triggered
                else ("summary", shard, job_id, v.iteration, v.skipped, v.max_score)
                for v in verdicts
            ]
            walk.n_messages += len(messages)
            walk.message_bytes += sum(
                4 + len(pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL)) for m in messages
            )
            # One job's messages at a time: a single process cannot
            # write more than the pipe holds before it reads.
            with tracer.span("fleet.transport.send"):
                for message in messages:
                    writer.send(message)
            with tracer.span("fleet.transport.drain"):
                received = reader.drain()
            with tracer.span("fleet.aggregate.observe"):
                for message in received:
                    if message[0] == "verdict":
                        aggregator.observe(message[2], message[3])
                    else:
                        aggregator.verdicts_seen += 1
            for message in received:
                if message[0] == "verdict":
                    verdict = message[3]
                    triggered[(message[2], verdict.iteration)] = verdict_signature(verdict)
                    walk.n_triggered += 1

    try:
        pending: dict[int, list] = {shard: [] for shard in range(N_SHARDS)}
        for group, offset in enumerate(range(0, len(stream.units), COALESCE)):
            chunk = stream.units[offset : offset + COALESCE]
            with tracer.span("walk.group", group=group):
                with tracer.span("fleet.codec.peek"):
                    job_ids = [peek_batch(unit)[0] for unit in chunk]
                with tracer.span("fleet.shard.route"):
                    shards = [router.shard_for(job_id) for job_id in job_ids]
                for unit, shard in zip(chunk, shards):
                    pending[shard].append(unit)
                    if len(pending[shard]) == COALESCE:
                        flush(shard, pending[shard])
                        pending[shard] = []
        with tracer.span("walk.group", group=group + 1):
            for shard, units in pending.items():
                if units:
                    flush(shard, units)
    finally:
        writer.close()
        reader.close()
    walk.reference.incidents = [i.to_event() for i in aggregator.finalize()]
    return walk


def stream_decode_walk(stream: Stream, tracer) -> None:
    """``StreamDecoder.feed`` over the stream's wire bytes in socket-read
    sized chunks, a megabyte of units at a time."""
    decoder = StreamDecoder(raw=True)
    slab: list[bytes] = []
    size = 0

    def feed_slab() -> None:
        data = b"".join(slab)
        with tracer.span("fleet.codec.stream_decode"):
            for offset in range(0, len(data), READ_CHUNK):
                decoder.feed(data[offset : offset + READ_CHUNK])

    for unit in stream.units:
        slab.append(wire(unit))
        size += len(slab[-1])
        if size >= 1 << 20:
            feed_slab()
            slab, size = [], 0
    feed_slab()
    decoder.finish()
    if decoder.units != len(stream.units):
        raise RuntimeError("stream decoder lost units")


def serial_pass(stream: Stream) -> float:
    """One plain process doing decode + ``process_block`` and nothing
    else: the rate the sharded service is held against."""
    monitors = {job.job_id: build_monitor(job) for job in stream.jobs}
    started = time.perf_counter()
    for offset in range(0, len(stream.units), COALESCE):
        groups = decode_by_job(stream.units[offset : offset + COALESCE])
        for job_id, entries in groups.items():
            monitors[job_id].process_block(entries)
    return stream.n_records / (time.perf_counter() - started)


# ----------------------------------------------------------------------
# Service passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    start_s: float
    close_s: float
    result: object  # dropped by ``check_pass``; only numbers outlive a pass
    client_push_s: float = 0.0
    protocol_errors: int = 0
    journal_bytes: int = 0
    service_metrics: list | None = None
    failed: int = 0
    reasons: tuple = ()


def inproc_pass(service, stream: Stream, tracer=NULL_TRACER) -> Pass:
    """start → submit_job × jobs → submit_encoded × units → close.

    The clock runs from the first ``submit_job`` until ``close()`` has
    returned, i.e. until every verdict is folded into incidents: a
    completion rate, never an acceptance rate."""
    with tracer.span("bench.pass"):
        started = time.perf_counter()
        with tracer.span("fleet.service.start"):
            service.start()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        for job in stream.jobs:
            with tracer.span("fleet.service.submit_job"):
                service.submit_job(job)
        for unit in stream.units:
            with tracer.span("fleet.service.submit"):
                service.submit_encoded(unit)
        t1 = time.perf_counter()
        with tracer.span("fleet.service.close"):
            result = service.close()
        t2 = time.perf_counter()
    return Pass(t2 - t0, cpu_seconds() - cpu0, t0 - started, t2 - t1, result)


def tcp_pass(service, client, tracer=NULL_TRACER) -> Pass:
    """The same service behind ``FleetNetServer`` on loopback;
    ``client(port)`` runs in a thread of this process and returns when
    the server has consumed its streams."""

    async def serve():
        server = FleetNetServer(service)
        await server.start()
        try:
            with tracer.span("fleet.ha.client"):
                pushed = await asyncio.to_thread(client, server.port)
        finally:
            await server.close()
        return pushed, server.stats.protocol_errors

    with tracer.span("bench.pass"):
        started = time.perf_counter()
        with tracer.span("fleet.service.start"):
            service.start()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        with tracer.span("fleet.ha.serve"):
            pushed, protocol_errors = asyncio.run(serve())
        t1 = time.perf_counter()
        with tracer.span("fleet.service.close"):
            result = service.close()
        t2 = time.perf_counter()
    return Pass(
        t2 - t0, cpu_seconds() - cpu0, t0 - started, t2 - t1, result,
        client_push_s=pushed, protocol_errors=protocol_errors,
    )


def push_client(spec: FleetSpec, stream: Stream):
    def client(port: int) -> float:
        stats = stream_workload(
            "127.0.0.1", port, stream.jobs, stream.units,
            version=spec.wire_version, connections=CONNECTIONS,
        )
        return stats.elapsed_s

    return client


def native_pass(spec: FleetSpec, stream: Stream, tracer=NULL_TRACER, ha: bool = False) -> Pass:
    """One pass the way the workload serves its stream (``ha`` forces
    the HA service, fed in-process, for the TCP-vs-in-process row)."""
    if not (spec.tcp or ha):
        return inproc_pass(make_service(spec), stream, tracer)
    with scratch_dir() as journal_dir:
        service = make_service(spec, journal_dir)
        if spec.tcp and not ha:
            run = tcp_pass(service, push_client(spec, stream), tracer)
        else:
            run = inproc_pass(service, stream, tracer)
        run.journal_bytes = sum(p.stat().st_size for p in journal_dir.iterdir())
    return run


def check_pass(run: Pass, reference: Reference) -> Pass:
    """Count the pass's failed batches, keep its merged worker metrics,
    and let go of its verdicts and incidents."""
    failed, reasons = failed_batches(run.result, reference)
    if run.protocol_errors:
        failed += run.protocol_errors
        reasons.append(f"protocol errors: {run.protocol_errors}")
    run.failed, run.reasons = failed, tuple(reasons)
    run.service_metrics = run.result.metrics
    run.result = None
    return run


# ----------------------------------------------------------------------
# Closed-loop verdict round trip
# ----------------------------------------------------------------------
def inproc_rtt(spec: FleetSpec, stream: Stream, warmup: int, samples: int) -> list[float]:
    """One batch outstanding: ``submit_encoded(unit)`` then ``poll()``
    until the aggregator has seen its verdict.  Seconds per sample."""
    service = make_service(spec)
    service.start()
    taken = []
    try:
        for job in stream.jobs:
            service.submit_job(job)
        for unit in stream.units[: warmup + samples]:
            seen = service.aggregator.verdicts_seen
            t0 = time.perf_counter()
            service.submit_encoded(unit)
            while service.aggregator.verdicts_seen == seen:
                service.poll()
            taken.append(time.perf_counter() - t0)
    finally:
        service.close()
    return taken[warmup:]


def tcp_rtt(spec: FleetSpec, stream: Stream, warmup: int, samples: int) -> list[float]:
    """The same closed loop through a socket: write one unit, wait for
    the serving loop to fold its verdict.  The waiter sleeps between
    looks so it does not hold the interpreter lock against the server."""
    taken: list[float] = []
    with scratch_dir() as journal_dir:
        service = make_service(spec, journal_dir)

        def client(port: int) -> float:
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for job in stream.jobs:
                    sock.sendall(wire(encode_job(job, version=spec.wire_version)))
                for unit in stream.units[: warmup + samples]:
                    seen = service.aggregator.verdicts_seen
                    t0 = time.perf_counter()
                    sock.sendall(wire(unit))
                    while service.aggregator.verdicts_seen == seen:
                        time.sleep(0.0002)
                    taken.append(time.perf_counter() - t0)
                sock.shutdown(socket.SHUT_WR)
                while sock.recv(4096):
                    pass
            return 0.0

        tcp_pass(service, client)
    return taken[warmup:]


def rtt_rounds(spec: FleetSpec, stream: Stream) -> list[float]:
    """Round trips pooled over fresh service instances: the in-process
    median moves by ±15 % from one instance to the next (which core the
    worker lands on), so one instance is never enough.  An idle TCP
    front-end drains verdicts every 50 ms whatever the instance, hence
    its single, far smaller round."""
    if spec.tcp:
        return tcp_rtt(spec, stream, *RTT_TCP)
    return [
        sample
        for _ in range(RTT_ROUNDS)
        for sample in inproc_rtt(spec, stream, *RTT_INPROC)
    ]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def end_to_end(name: str, seed: int, seconds: float) -> dict:
    spec = WORKLOADS[name]
    stream, setup_times = timed_setups(spec, seed, SETUP_REPEATS)
    reference = layer_walk(spec, stream).reference
    settle_heap()

    # A cycle is one throughput pass plus one set of round trips, so
    # both are sampled across the whole measuring window.
    def cycle() -> tuple[Pass, list[float]]:
        run = check_pass(native_pass(spec, stream), reference)
        return run, rtt_rounds(spec, stream)

    cycles = timed_passes(cycle, seconds)
    runs = [run for run, _rtt in cycles]
    rtt = [sample for _run, samples in cycles for sample in samples]

    rates = [stream.n_records / run.wall_s for run in runs]
    cpu = [run.cpu_s / stream.n_records * 1e6 for run in runs]
    starts = [run.start_s for run in runs]
    return {
        "metrics": end_to_end_metrics(median(setup_times) + median(starts), rates, cpu, rtt),
        "attempted": len(runs) * len(stream.units),
        "failed": sum(run.failed for run in runs),
        "detail": {
            "work_unit": "records",
            "records": stream.n_records,
            "batches": len(stream.units),
            "wire_bytes": stream.wire_bytes,
            "timed_passes": len(runs),
            "passes": {
                "setup_s": setup_times,
                "start_s": starts,
                "work_per_s": rates,
                "cpu_s_per_mwork": cpu,
            },
            "rtt_samples": len(rtt),
            "rtt_p95_ms": percentile(rtt, 95) * 1e3,
            "reference_digest": reference.digest(),
            "failures": [why for run in runs for why in run.reasons],
        },
    }


def histogram_stat(metrics: list[dict], name: str) -> tuple[float, int]:
    entries = [m for m in metrics if m.get("name") == name]
    return sum(m["sum"] for m in entries), sum(m["count"] for m in entries)


def layers(name: str | None, seed: int, seconds: float, tracer) -> dict:
    """Per-layer metrics of the fleet pipeline on ``name``'s stream, or
    on the probe stream when the workload is not a fleet one."""
    native = name is not None
    spec = WORKLOADS[name] if native else PROBE
    stream, _times = timed_setups(spec, seed, 1)
    n_units = len(stream.units)

    walk = layer_walk(spec, stream, tracer)
    stream_decode_walk(stream, tracer)
    reference = walk.reference
    serial_rate = serial_pass(stream)
    settle_heap()

    checked_runs: list[Pass] = []

    def checked(run: Pass) -> Pass:
        checked_runs.append(check_pass(run, reference))
        return run

    plain, traced = traced_pairs(
        lambda t: checked(native_pass(spec, stream, t)), tracer, seconds / 2, native
    )
    # The HA service fed in-process, and (unless native already is) TCP.
    ha_inproc = checked(native_pass(spec, stream, tracer if spec.tcp else NULL_TRACER, ha=True))
    tcp = plain[-1] if spec.tcp else checked(native_pass(replace(spec, tcp=True), stream))
    # Service-level spans come from a pass the harness itself submits.
    service_run = ha_inproc if spec.tcp else traced[-1]
    rtt = rtt_rounds(spec, stream)

    self_s = tracer.self_times()
    counts = tracer.counts()
    walk_layers = [
        "fleet.shard.build_monitor", "fleet.codec.peek", "fleet.shard.route",
        "fleet.codec.decode", "core.monitor.block", "fleet.transport.send",
        "fleet.transport.drain", "fleet.aggregate.observe",
    ] + (["fleet.codec.stream_decode"] if spec.tcp else [])
    layers_sum = sum(self_s[layer] for layer in walk_layers)
    e2e_cpu = median([run.cpu_s for run in plain])
    e2e_rate = median([stream.n_records / run.wall_s for run in plain])
    service_metrics = service_run.service_metrics
    compute_s, _n = histogram_stat(service_metrics, "fleet.detect_compute_s")
    wait_s, wait_n = histogram_stat(service_metrics, "fleet.detection_latency_s")
    depth, depth_n = histogram_stat(service_metrics, "fleet.queue_depth_samples")
    per_shard = [m["value"] for m in service_metrics if m.get("name") == "fleet.records"]
    n_submits = counts["fleet.service.submit"]
    ha_rate = stream.n_records / ha_inproc.wall_s
    tcp_rate = stream.n_records / tcp.wall_s
    metrics = {
        "fleet.codec.peek_us": self_s["fleet.codec.peek"] / n_units * 1e6,
        "fleet.shard.route_us": self_s["fleet.shard.route"] / n_units * 1e6,
        "fleet.codec.decode_us": self_s["fleet.codec.decode"] / n_units * 1e6,
        "fleet.codec.stream_decode_us": self_s["fleet.codec.stream_decode"] / n_units * 1e6,
        "fleet.codec.wire_bytes_per_record": stream.wire_bytes / stream.n_records,
        "core.monitor.block_us": self_s["core.monitor.block"] / n_units * 1e6,
        "core.monitor.triggered_share": walk.n_triggered / n_units,
        "fleet.transport.msg_us": (
            self_s["fleet.transport.send"] + self_s["fleet.transport.drain"]
        ) / walk.n_messages * 1e6,
        "fleet.transport.bytes_per_msg": walk.message_bytes / walk.n_messages,
        "fleet.aggregate.observe_us": self_s["fleet.aggregate.observe"] / walk.n_messages * 1e6,
        "fleet.service.start_s": median([run.start_s for run in plain + traced]),
        "fleet.service.submit_us": self_s["fleet.service.submit"] / n_submits * 1e6,
        "fleet.service.drain_wait_s": service_run.close_s,
        "fleet.service.worker_compute_s": compute_s,
        "fleet.service.queue_wait_ms": wait_s / wait_n * 1e3,
        "fleet.service.queue_depth_mean": depth / depth_n,
        "fleet.shard.skew": max(per_shard) / (sum(per_shard) / len(per_shard)),
        "fleet.service.layers_sum_s": layers_sum,
        "fleet.service.unexplained_cpu_share": (e2e_cpu - layers_sum) / e2e_cpu,
        "fleet.service.serial_records_per_s": serial_rate,
        "fleet.service.vs_serial": e2e_rate / serial_rate,
        "fleet.service.rtt_p95_ms": percentile(rtt, 95) * 1e3,
        "fleet.ha.inproc_records_per_s": ha_rate,
        "fleet.ha.tcp_vs_inproc": tcp_rate / ha_rate,
        "fleet.ha.client_push_s": tcp.client_push_s,
        "fleet.ha.journal_bytes": float(tcp.journal_bytes),
    }
    return {
        "metrics": metrics,
        "attempted": len(checked_runs) * n_units,
        "failed": sum(run.failed for run in checked_runs),
        "trace_overhead_share": overhead_share(plain, traced),
        "detail": {
            "stream": "native" if native else "probe",
            "records": stream.n_records,
            "batches": n_units,
            "e2e_cpu_s": e2e_cpu,
            "e2e_records_per_s": e2e_rate,
            "pairs": len(plain),
            "rtt_samples": len(rtt),
            "reference_digest": reference.digest(),
            "failures": [why for run in checked_runs for why in run.reasons],
        },
    }
