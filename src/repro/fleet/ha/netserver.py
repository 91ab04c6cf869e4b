"""Asyncio TCP ingest: the fleet's streaming front-end.

:class:`FleetNetServer` accepts concurrent socket connections speaking
the ``.fprec`` wire stream — v1 JSON lines and v2 binary frames, mixed
freely — and routes every completed unit into a running
:class:`~repro.fleet.service.FleetService` (or its HA subclass).  Each
connection owns one :class:`~repro.fleet.codec.StreamDecoder` in raw
mode, so frames split across TCP segments reassemble incrementally and
batches flow into ``try_submit_encoded`` as encoded units, never
materialized into records in the frontend.

Backpressure is per connection and never blocks the event loop: when a
batch's target shard inbox is full (``try_submit_encoded`` returns
False), that connection simply stops reading — its socket buffer, then
the client's ``drain()``, absorb the stall — while other connections
keep streaming.  ``max_buffer`` bounds what one connection may hold in
its reassembly buffer, so a misbehaving peer cannot balloon memory.

Nothing here sleeps or ticks.  The shards' outbox pipes are loop
readers: a verdict frame is folded when it arrives, a dead worker's EOF
is its own wake-up, a connection parked on a full inbox resumes on the
next output (every slot a worker frees is announced on its outbox), and
the HA failure detector runs on every beacon of the workers still alive
— which is how often a silent one's miss count can change.

The module also ships the client side (:func:`stream_workload`): a
loadgen-over-TCP driver that fans a workload out over N connections
with per-job affinity, preserving each job's iteration order end to
end (the service's golden-parity invariant needs nothing more).
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field

from ..codec import (
    CodecError,
    StreamDecoder,
    _stream_unit,
    decode_job,
    encode_batch,
    encode_job,
    peek_batch,
)
from ..shard import FleetError


@dataclass(frozen=True)
class NetServerConfig:
    """Listener shape and per-connection limits."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is on the server
    #: Reassembly buffer cap per connection (a unit larger than this
    #: kills the connection with a protocol error, not the server).
    max_buffer: int = 8 * 1024 * 1024
    #: Socket read size.
    read_chunk: int = 64 * 1024
    #: How long ``close`` waits for open connections to finish their
    #: streams before cancelling them.
    drain_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.read_chunk < 1:
            raise FleetError("read_chunk must be at least 1 byte")


@dataclass
class NetServerStats:
    """Live ingest counters (snapshot-friendly plain ints)."""

    connections_total: int = 0
    connections_open: int = 0
    units: int = 0
    jobs: int = 0
    batches: int = 0
    records: int = 0
    protocol_errors: int = 0
    backpressure_waits: int = 0


class FleetNetServer:
    """TCP ingest server bound to one (already started) fleet service.

    Usage::

        server = FleetNetServer(service)
        await server.start()        # binds; server.port is the real port
        ...                         # clients stream .fprec units
        await server.close()        # drain connections, stop watching

    The server never closes the service — ``service.close()`` (drain,
    verdict/incident finalization) stays with the caller, after the
    server is down.
    """

    def __init__(self, service, config: NetServerConfig | None = None) -> None:
        self.service = service
        self.config = config or NetServerConfig()
        self.stats = NetServerStats()
        self.port: int | None = None
        #: Monotonic loop time of the last byte received (idle-exit
        #: watchdogs read this).
        self.last_activity: float = 0.0
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        #: Outbox reader -> the fd it is registered with the loop under.
        self._watched: dict[object, int] = {}
        #: Set when worker output was folded: wakes connections parked
        #: on a full inbox.
        self._output = asyncio.Event()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise FleetError("net server already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.last_activity = asyncio.get_running_loop().time()
        self._watch(self.service.open_outboxes())

    async def close(self) -> None:
        """Stop accepting, let open connections finish (bounded by
        ``drain_grace_s``), and stop watching the outboxes."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                set(self._conn_tasks), timeout=self.config.drain_grace_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._watch(())
        self.service.poll()

    # ------------------------------------------------------------------
    def _on_output(self) -> None:
        """An outbox is readable — a frame, a beacon, or a dead worker's
        EOF: fold it (the HA service also runs its failure detector),
        follow any change in the set of pipes, wake parked connections."""
        if self.service.started:  # closed under us: just let go of its pipes
            self.service.poll()
        self._watch(self.service.open_outboxes())
        self._output.set()

    def _watch(self, readers) -> None:
        """Make the loop's readers exactly ``readers``: drop pipes at
        EOF or retired (left registered, EOF fires forever), pick up
        those of shards spawned since.  Each is watched through a
        ``dup``, so the registration is ours to end: the service closes
        a dead shard's fd inside the ``poll()`` that saw it die, while
        siblings forked later hold the read end open — and an fd closed
        while registered stays in epoll, readable, beyond removal."""
        loop = asyncio.get_running_loop()
        readers = set(readers)
        for reader in self._watched.keys() - readers:
            fd = self._watched.pop(reader)
            loop.remove_reader(fd)
            os.close(fd)
        for reader in readers - self._watched.keys():
            fd = self._watched[reader] = os.dup(reader.fileno())
            loop.add_reader(fd, self._on_output)

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.stats.connections_total += 1
        self.stats.connections_open += 1
        decoder = StreamDecoder(raw=True, max_buffer=self.config.max_buffer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                chunk = await reader.read(self.config.read_chunk)
                if not chunk:
                    break
                self.last_activity = loop.time()
                for kind, unit in decoder.feed(chunk):
                    await self._ingest(kind, unit)
            for kind, unit in decoder.finish():
                await self._ingest(kind, unit)
        except CodecError:
            # One malformed stream costs one connection, nothing more.
            self.stats.protocol_errors += 1
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.stats.connections_open -= 1
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _ingest(self, kind: str, unit: str | bytes) -> None:
        """Route one completed wire unit into the service; a full shard
        inbox pauses only this connection's reads."""
        self.stats.units += 1
        if kind == "j":
            self.service.submit_job(decode_job(unit))
            self.stats.jobs += 1
            return
        job_id, n_records = peek_batch(unit)
        while not self.service.try_submit_encoded(unit, job_id, n_records):
            self.stats.backpressure_waits += 1
            self._output.clear()
            await self._output.wait()
        self.stats.batches += 1
        self.stats.records += n_records


# ----------------------------------------------------------------------
# Client side: loadgen over TCP
# ----------------------------------------------------------------------
@dataclass
class StreamStats:
    """What one :func:`stream_workload` call pushed over the wire."""

    connections: int
    units: int
    batches: int
    records: int
    bytes_sent: int
    elapsed_s: float
    per_connection_units: list[int] = field(default_factory=list)

    @property
    def records_per_sec(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.records / self.elapsed_s


#: Units written between explicit drain() calls on the client socket.
_CLIENT_DRAIN_EVERY = 64


async def _stream_connection(host: str, port: int, payload: list[bytes]) -> int:
    """Open one connection, write the payload units in order (draining
    periodically so client-side buffers stay bounded), then half-close
    and wait for the server's close — which it sends only after fully
    consuming the stream, so returning means the payload was ingested."""
    reader, writer = await asyncio.open_connection(host, port)
    sent = 0
    for unit in payload:
        writer.write(unit)
        sent += 1
        if sent % _CLIENT_DRAIN_EVERY == 0:
            await writer.drain()
    await writer.drain()
    if writer.can_write_eof():
        writer.write_eof()
    while await reader.read(4096):
        pass  # no reply protocol; EOF here is the consumption ack
    writer.close()
    await writer.wait_closed()
    return sent


def stream_workload(
    host: str,
    port: int,
    jobs,
    batches,
    version: int = 1,
    connections: int = 1,
) -> StreamStats:
    """Stream a whole workload to a :class:`FleetNetServer` over N
    concurrent TCP connections.

    Jobs are partitioned across connections with *job affinity*: a
    job's registration and all its batches travel on one connection, in
    submission order, so per-job iteration order — the only ordering
    the monitors need — survives any interleaving of connections at the
    server.
    """
    if connections < 1:
        raise FleetError("need at least one connection")
    jobs = list(jobs)
    lane_of = {
        job.job_id: index % connections for index, job in enumerate(jobs)
    }
    payloads: list[list[bytes]] = [[] for _ in range(connections)]
    for job in jobs:
        unit = _stream_unit(encode_job(job, version=version), text=False)
        payloads[lane_of[job.job_id]].append(unit)
    n_batches = 0
    n_records = 0
    for batch in batches:
        if isinstance(batch, (str, bytes)):
            encoded = batch
            job_id, batch_records = peek_batch(batch)
        else:
            encoded = encode_batch(batch, version=version)
            job_id, batch_records = batch.job_id, batch.n_records
        lane = lane_of.get(job_id)
        if lane is None:
            lane = job_id % connections  # unregistered job: stable lane
        payloads[lane].append(_stream_unit(encoded, text=False))
        n_batches += 1
        n_records += batch_records
    lanes = [payload for payload in payloads if payload]

    async def _run() -> list[int]:
        return list(
            await asyncio.gather(
                *(_stream_connection(host, port, payload) for payload in lanes)
            )
        )

    started = time.perf_counter()
    per_connection = asyncio.run(_run())
    elapsed = time.perf_counter() - started
    return StreamStats(
        connections=len(lanes),
        units=sum(per_connection),
        batches=n_batches,
        records=n_records,
        bytes_sent=sum(len(u) for payload in lanes for u in payload),
        elapsed_s=elapsed,
        per_connection_units=per_connection,
    )
