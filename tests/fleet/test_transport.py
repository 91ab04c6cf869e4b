"""Framed pipe transport, both directions: SIGKILL-safe framing,
multi-message frames, and the inbox writer's window and tail.

The reader must reassemble frames whatever the chunking, never block,
surface a torn tail only once the writer is gone, and hand a frame's
messages back one by one in the order they were sent.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
import time

import pytest

from repro.fleet import FleetConfig, FleetError, FleetService
from repro.fleet.ha import HAConfig, HAFleetService
from repro.fleet.transport import (
    PIPE_CAPACITY,
    OutboxReader,
    OutboxWriter,
    new_outbox_pipe,
)


def framed(messages: list) -> bytes:
    payload = pickle.dumps(messages, protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack("<I", len(payload)) + payload


def pipe_pair():
    read_fd, write_fd = new_outbox_pipe()
    return OutboxReader(read_fd), write_fd


def test_drain_on_empty_pipe_returns_at_once():
    reader, write_fd = pipe_pair()
    try:
        assert reader.drain() == []
        assert not reader.eof
        assert reader.torn_bytes == 0
    finally:
        os.close(write_fd)
        reader.close()
    assert reader.drain() == []  # closed readers stay harmless


def test_reassembly_across_every_chunk_boundary():
    """Cut a two-frame stream at every byte offset: nothing is
    delivered early, nothing is lost, order holds."""
    first = [("summary", 0, 1, 0, False, 0.001), ("summary", 0, 2, 0, False, 0.002)]
    second = [("done", 0)]
    wire = framed(first) + framed(second)
    for cut in range(1, len(wire)):
        reader, write_fd = pipe_pair()
        try:
            os.write(write_fd, wire[:cut])
            got = reader.drain()
            assert got == (first if cut >= len(framed(first)) else [])
            os.write(write_fd, wire[cut:])
            got += reader.drain()
            assert got == first + second
            assert reader.torn_bytes == 0
        finally:
            os.close(write_fd)
            reader.close()


def test_torn_tail_surfaces_only_after_eof():
    reader, write_fd = pipe_pair()
    whole = [("summary", 3, 7, 4, False, 0.5)]
    torn = framed([("verdict", 3, 7, "never completes")])[:-5]
    try:
        os.write(write_fd, framed(whole) + torn)
        assert reader.drain() == whole
        # The writer still lives: an incomplete frame is just "not yet".
        assert not reader.eof
        assert reader.torn_bytes == 0
        assert reader.drain() == []
        os.close(write_fd)
        write_fd = None
        assert reader.drain() == []
        assert reader.eof
        assert reader.torn_bytes == len(torn)
    finally:
        if write_fd is not None:
            os.close(write_fd)
        reader.close()


def test_order_inside_and_across_multi_message_frames():
    read_fd, write_fd = new_outbox_pipe()
    reader, writer = OutboxReader(read_fd), OutboxWriter(write_fd)
    try:
        writer.send(("heartbeat", 0, 1, 1, 0.0))
        writer.send_many([("summary", 0, job, 0, False, 0.0) for job in range(5)])
        writer.send_many([("verdict", 0, 9, "v"), ("summary", 0, 9, 1, False, 0.0)])
        writer.send(("done", 0))
        got = reader.drain()
    finally:
        writer.close()
        reader.close()
    assert [m[0] for m in got] == (
        ["heartbeat"] + ["summary"] * 5 + ["verdict", "summary", "done"]
    )
    assert [m[2] for m in got[1:6]] == list(range(5))


def test_frame_larger_than_the_pipe_completes_against_a_draining_reader():
    """The writer blocks once the pipe is full; a reader draining
    concurrently (and seeing only partial frames for a while) lets it
    finish, and the frame arrives whole."""
    read_fd, write_fd = new_outbox_pipe()
    reader, writer = OutboxReader(read_fd), OutboxWriter(write_fd)
    blob = os.urandom(3 * PIPE_CAPACITY)
    messages = [("verdict", 0, 1, blob), ("summary", 0, 1, 2, False, 0.0)]
    sender = threading.Thread(target=writer.send_many, args=(messages,))
    sender.start()
    got: list = []
    deadline = time.monotonic() + 30.0
    try:
        while not got and time.monotonic() < deadline:
            got = reader.drain()  # [] until the last byte has arrived
            time.sleep(0.001)
        sender.join(timeout=10.0)
        assert not sender.is_alive()
    finally:
        writer.close()
        reader.close()
    assert got == messages


# ----------------------------------------------------------------------
# The inbox direction: a windowed, non-blocking writer with a tail
# ----------------------------------------------------------------------
def test_window_holds_posts_in_the_tail_until_acked_and_the_tail_evicts():
    read_fd, write_fd = new_outbox_pipe()
    reader, writer = OutboxReader(read_fd), OutboxWriter(write_fd, window=2)
    try:
        for n in range(4):
            writer.post(("batch", n))
        assert writer.pending == 4
        assert reader.drain() == [("batch", 0), ("batch", 1)]
        assert writer.evict(lambda message: message[1] == 3) == ("batch", 3)
        assert writer.evict(lambda message: message[1] == 0) is None  # in the pipe
        writer.ack(2)
        assert reader.drain() == [("batch", 2)]
        assert writer.pending == 1
    finally:
        writer.close()
        reader.close()


def test_a_post_larger_than_the_pipe_completes_on_zero_acks():
    """What the pipe cannot take waits in the tail; each ``ack(0)`` (a
    reader that drained part of a frame) writes more, and the frame
    arrives whole."""
    read_fd, write_fd = new_outbox_pipe()
    reader, writer = OutboxReader(read_fd), OutboxWriter(write_fd, window=4)
    message = ("batch", os.urandom(3 * PIPE_CAPACITY))
    try:
        writer.post(message)
        got: list = []
        for _ in range(1000):
            got = reader.drain()
            if got:
                break
            writer.ack(0)
        assert got == [message]
        assert writer.pending == 1
    finally:
        writer.close()
        reader.close()


def test_a_post_to_a_closed_reader_is_dropped():
    read_fd, write_fd = new_outbox_pipe()
    writer = OutboxWriter(write_fd, window=4)
    os.close(read_fd)
    writer.post(("batch", 0))
    writer.post(("batch", 1))
    assert writer.pending == 0


# ----------------------------------------------------------------------
# The service reads eof/torn_bytes: a dead shard fails close() at once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ha", [False, True])
def test_close_fails_fast_on_a_killed_shard(small_workload, ha):
    """SIGKILL one of two workers: ``close()`` must not sit out
    ``DRAIN_TIMEOUT_S``, and must blame the dead shard only — the
    survivor finished its drain and said so."""
    jobs, batches = small_workload
    config = FleetConfig(n_shards=2)
    if ha:  # no automatic failover: the close path itself must notice
        service = HAFleetService(
            config, ha=HAConfig(heartbeat_every=None, auto_failover=False)
        )
    else:
        service = FleetService(config)
    service.start()
    try:
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            service.submit(batch)
        victim = service._workers[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        started = time.monotonic()
        with pytest.raises(FleetError) as caught:
            service.close()
        elapsed = time.monotonic() - started
    finally:
        if service.started:
            service._abort()
    assert elapsed < 1.0
    message = str(caught.value)
    assert "shard 1 (torn_bytes=" in message
    assert "shard 0" not in message
