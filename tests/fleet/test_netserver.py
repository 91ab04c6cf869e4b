"""TCP ingest front-end: parity over sockets, backpressure, containment.

The server speaks the same self-delimiting fprec wire format as the
files, one :class:`StreamDecoder` per connection, so anything provable
for file replay must hold over TCP: bit-identical verdicts, conserved
record accounting, and protocol errors contained to one connection.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.fleet import FPREC_VERSION_BINARY, FleetConfig, reference_verdicts, shard
from repro.fleet.ha import (
    FleetNetServer,
    HAConfig,
    HAFleetService,
    NetServerConfig,
    grow,
    stream_workload,
)


def ha_service(n_shards: int = 2, **config_overrides) -> HAFleetService:
    return HAFleetService(
        FleetConfig(n_shards=n_shards, return_verdicts=True, **config_overrides),
        ha=HAConfig(heartbeat_every=None, auto_failover=False),
    )


def serve_and_stream(
    service, jobs, batches, *, version=1, connections=1, config=None
):
    """Run the server in this thread's event loop and the blocking
    client in a worker thread; returns (server, client_stats)."""

    async def _run():
        server = FleetNetServer(service, config or NetServerConfig())
        await server.start()
        try:
            stats = await asyncio.to_thread(
                stream_workload,
                "127.0.0.1",
                server.port,
                jobs,
                batches,
                version=version,
                connections=connections,
            )
        finally:
            await server.close()
        return server, stats

    return asyncio.run(_run())


async def eventually(condition, within: float) -> None:
    """Let the loop run until ``condition()`` holds or ``within``
    seconds pass (the caller asserts what it needed)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + within
    while not condition() and loop.time() < deadline:
        await asyncio.sleep(0.005)


def assert_parity(result, jobs, batches):
    reference = reference_verdicts(jobs, batches)
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]
    assert result.lost_records == 0
    assert result.accounting_ok


def test_tcp_ingest_single_connection_parity(small_workload):
    jobs, batches = small_workload
    service = ha_service()
    with service:
        server, stats = serve_and_stream(service, jobs, batches)
    assert stats.connections == 1
    assert server.stats.jobs == len(jobs)
    assert server.stats.batches == len(batches)
    assert server.stats.records == sum(b.n_records for b in batches)
    assert server.stats.protocol_errors == 0
    assert_parity(service.result, jobs, batches)


def test_tcp_ingest_many_connections_binary_wire_parity(small_workload):
    """Job-affinity lanes: per-job order survives 4 concurrent
    connections speaking the binary wire format."""
    jobs, batches = small_workload
    service = ha_service()
    with service:
        server, stats = serve_and_stream(
            service, jobs, batches, version=FPREC_VERSION_BINARY, connections=4
        )
    assert stats.connections == 4
    assert server.stats.connections_total == 4
    assert server.stats.connections_open == 0
    assert_parity(service.result, jobs, batches)


def test_tcp_ingest_applies_backpressure_not_loss(small_workload):
    """A tiny shard queue forces the server to pause reads; every
    record still lands exactly once."""
    jobs, batches = small_workload
    service = ha_service(queue_depth=2)
    config = NetServerConfig(read_chunk=512)
    with service:
        server, _stats = serve_and_stream(
            service, jobs, batches, connections=2, config=config
        )
    assert server.stats.records == sum(b.n_records for b in batches)
    assert_parity(service.result, jobs, batches)


def test_protocol_error_contained_to_one_connection(small_workload):
    """Garbage on one connection closes that connection only; the
    stream on a fresh connection is unaffected."""
    jobs, batches = small_workload
    service = ha_service()

    async def _run():
        server = FleetNetServer(service)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"\x80\x81 this is not fprec\n")
            await writer.drain()
            assert await reader.read() == b""  # server hung up on us
            writer.close()
            stats = await asyncio.to_thread(
                stream_workload, "127.0.0.1", server.port, jobs, batches
            )
            return server, stats
        finally:
            await server.close()

    with service:
        server, _stats = asyncio.run(_run())
    assert server.stats.protocol_errors == 1
    assert server.stats.connections_total == 2
    assert_parity(service.result, jobs, batches)


def test_close_waits_for_inflight_connection(small_workload):
    """Graceful close drains a connection that is mid-stream instead of
    dropping its tail."""
    jobs, batches = small_workload
    service = ha_service()

    async def _run():
        server = FleetNetServer(service)
        await server.start()
        client = asyncio.create_task(
            asyncio.to_thread(
                stream_workload, "127.0.0.1", server.port, jobs, batches
            )
        )
        # Close as soon as the connection shows up; drain grace must
        # let the in-flight stream finish.
        while server.stats.connections_total == 0:
            await asyncio.sleep(0.005)
        await client  # client finishes writing
        await server.close()
        return server

    with service:
        server = asyncio.run(_run())
    assert server.stats.records == sum(b.n_records for b in batches)
    assert_parity(service.result, jobs, batches)


def test_truncated_stream_counts_as_protocol_error(small_workload):
    """A connection that dies mid-frame is a protocol error, not a
    crash, and what fully arrived is still processed."""
    jobs, batches = small_workload
    service = ha_service()
    from repro.fleet import encode_batch, encode_job
    from repro.fleet.codec import _stream_unit

    payload = b"".join(
        _stream_unit(encode_job(job, version=FPREC_VERSION_BINARY), text=False)
        for job in jobs
    )
    frame = _stream_unit(
        encode_batch(batches[0], version=FPREC_VERSION_BINARY), text=False
    )
    payload += frame[:-3]  # cut the final frame short

    async def _run():
        server = FleetNetServer(service)
        await server.start()
        try:
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(payload)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            for _ in range(200):
                if server.stats.connections_open == 0:
                    break
                await asyncio.sleep(0.01)
        finally:
            await server.close()
        return server

    with service:
        server = asyncio.run(_run())
    assert server.stats.jobs == len(jobs)
    assert server.stats.batches == 0
    assert server.stats.protocol_errors == 1


# ----------------------------------------------------------------------
# The outbox pipes as loop readers
# ----------------------------------------------------------------------
def test_idle_server_fails_over_on_eof_and_drops_the_dead_pipe():
    """No client and no heartbeats: the only thing that can wake the
    loop when a worker dies is EOF on its outbox.  It must — and exactly
    once: a reader left registered on a pipe at EOF fires on every turn
    of the loop."""
    service = HAFleetService(
        FleetConfig(n_shards=2), ha=HAConfig(heartbeat_every=None)
    )

    async def _run():
        server = FleetNetServer(service)
        wakeups = 0
        on_output = server._on_output

        def counted():
            nonlocal wakeups
            wakeups += 1
            on_output()

        server._on_output = counted  # registered by start()
        await server.start()
        try:
            os.kill(service._workers[0].pid, signal.SIGKILL)
            await eventually(lambda: service.failovers, within=1.0)
            failovers = service.failovers
            # Thousands of turns, were it spinning — through the callback
            # or, for an fd closed while registered, inside the selector.
            busy = time.process_time()
            await asyncio.sleep(0.2)
            busy = time.process_time() - busy
            return failovers, wakeups, busy, len(server._watched)
        finally:
            await server.close()

    with service:
        failovers, wakeups, busy, watched = asyncio.run(_run())
    assert failovers == 1
    assert wakeups <= 2
    assert busy < 0.1
    assert watched == 1


def test_server_follows_a_shard_grown_mid_run(small_workload):
    """A shard spawned while the server runs gets its outbox watched
    (from the next output or beacon of any shard on), and what it
    scores is folded like any other shard's."""
    jobs, batches = small_workload
    service = HAFleetService(
        FleetConfig(n_shards=2, return_verdicts=True),
        ha=HAConfig(heartbeat_every=0.02, auto_failover=False),
    )

    async def _run():
        server = FleetNetServer(service)
        await server.start()
        try:
            grow(service, n_new=1)
            await asyncio.to_thread(
                stream_workload, "127.0.0.1", server.port, jobs, batches
            )
            await eventually(
                lambda: service.aggregator.verdicts_seen == len(batches), within=5.0
            )
            assert service.aggregator.verdicts_seen == len(batches)
            return set(server._watched) == set(service.open_outboxes())
        finally:
            await server.close()

    with service:
        watching_all = asyncio.run(_run())
        assert service.n_shards == 3
        assert 2 in {service._route(job.job_id) for job in jobs}
    assert watching_all
    assert_parity(service.result, jobs, batches)


def test_silent_worker_is_caught_on_the_survivors_beacons(small_workload, monkeypatch):
    """The server runs no timer for the failure detector: a worker that
    hangs — alive, its pipe open, just silent — is failed over when the
    beacons of the shard still alive wake the loop."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the hang is a patch the worker inherits by fork")
    jobs, _batches = small_workload
    build_monitor = shard.build_monitor

    def hang_on_shard_0(job):
        if multiprocessing.current_process().name == "fleet-shard-0":
            time.sleep(120)
        return build_monitor(job)

    monkeypatch.setattr(shard, "build_monitor", hang_on_shard_0)
    service = HAFleetService(
        FleetConfig(n_shards=2), ha=HAConfig(heartbeat_every=0.05, miss_limit=4)
    )

    async def _run():
        server = FleetNetServer(service)
        await server.start()
        try:
            service.submit_job(
                next(job for job in jobs if service._route(job.job_id) == 0)
            )
            await eventually(lambda: service.failovers, within=10.0)
        finally:
            await server.close()

    with service:
        asyncio.run(_run())
    failover = service.ha_log.of_type("ha.failover")[0]
    assert (failover["shard"], failover["reason"]) == (0, "heartbeat-timeout")
    assert service.result.lost_records == 0
