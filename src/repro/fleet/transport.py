"""SIGKILL-safe worker→parent message transport.

``multiprocessing.Queue`` is the wrong channel for a process that may
be SIGKILLed mid-send: all writers share one pipe behind one lock, so a
worker killed while holding the lock wedges every surviving writer, and
a frame torn mid-write blocks the reader's next ``get()`` forever (the
4-byte size header arrives, the payload never does).  Both failure
modes are silent, intermittent, and fatal to a fleet whose whole job is
surviving shard kills.

This module replaces the shared queue with one raw ``os.pipe`` per
worker and moves the framing into userspace:

- :class:`OutboxWriter` (worker side) sends length-prefixed pickle
  frames with plain blocking ``os.write``.  A frame carries a *list* of
  messages — one per ``send``, a whole flush's worth per
  ``send_many`` (one ``pickle.dumps`` whose memo shares what the
  messages share, one write).  A kill mid-write tears at most this
  worker's own stream, and of that at most the frame being written.
- :class:`OutboxReader` (parent side) reads its pipe **non-blocking**
  and reassembles frames in a buffer.  ``drain()`` never blocks: a torn
  tail simply stays incomplete, and once the dead worker's write end
  closes the reader sees EOF and reports the junk via ``torn_bytes``
  instead of hanging.

The pipe is sized up to :data:`PIPE_CAPACITY` where the platform allows
(Linux ``F_SETPIPE_SZ``), so workers rarely block on verdict output;
when they do, the parent's one way of waiting for inbox room is to wait
on these pipes and read them, which keeps the pair deadlock-free (see
``FleetService._send``).

Requires fd inheritance across ``fork`` — the Linux default start
method, and the only one the chaos tooling (SIGKILL hooks) targets.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading

__all__ = ["OutboxReader", "OutboxWriter", "new_outbox_pipe"]

_HEADER = struct.Struct("<I")

#: Preferred kernel pipe buffer (best-effort; the 64 KiB default
#: otherwise).  Bigger buffer = fewer worker stalls on verdict bursts.
PIPE_CAPACITY = 1 << 20

#: Max bytes pulled per ``os.read`` while draining.
_READ_CHUNK = 1 << 16


def new_outbox_pipe() -> tuple[int, int]:
    """A fresh ``(read_fd, write_fd)`` pipe for one worker's outbox,
    widened to :data:`PIPE_CAPACITY` when the platform allows."""
    read_fd, write_fd = os.pipe()
    try:
        import fcntl

        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_CAPACITY)
    except (ImportError, AttributeError, OSError):
        pass
    return read_fd, write_fd


class OutboxWriter:
    """Worker-side framed sender over a blocking pipe fd."""

    def __init__(self, fd: int) -> None:
        self._fd = fd
        self._lock = threading.Lock()

    def send(self, message) -> None:
        self.send_many([message])

    def send_many(self, messages: list) -> None:
        """One frame carrying ``messages``; the reader hands them back
        one by one, in order."""
        payload = pickle.dumps(messages, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _HEADER.pack(len(payload)) + payload
        with self._lock:
            view = memoryview(frame)
            while view:
                written = os.write(self._fd, view)
                view = view[written:]

    def close(self) -> None:
        try:
            os.close(self._fd)
        except OSError:
            pass


class OutboxReader:
    """Parent-side non-blocking frame reassembler for one worker pipe.

    ``drain()`` returns every complete message currently available and
    never blocks — not on an empty pipe, and not on a frame whose
    writer died mid-send.
    """

    def __init__(self, fd: int) -> None:
        os.set_blocking(fd, False)
        self._fd = fd
        self._buffer = bytearray()
        self._eof = False
        self._closed = False

    def fileno(self) -> int:
        """The read fd, so ``multiprocessing.connection.wait`` takes a
        reader as it is (readable means a frame, or EOF)."""
        return self._fd

    @property
    def eof(self) -> bool:
        """True once every write end closed (the worker exited)."""
        return self._eof

    @property
    def torn_bytes(self) -> int:
        """Bytes of an incomplete trailing frame after EOF (a write
        torn by SIGKILL); always 0 while the worker lives."""
        return len(self._buffer) if self._eof else 0

    def drain(self) -> list:
        """All complete messages available right now, without blocking."""
        if self._closed:
            return []
        while not self._eof:
            try:
                chunk = os.read(self._fd, _READ_CHUNK)
            except BlockingIOError:
                break
            if not chunk:
                self._eof = True
                break
            self._buffer += chunk
        messages: list = []
        buffer = self._buffer
        available = len(buffer)
        cursor = 0
        # Unpickle straight out of the buffer; the view must be released
        # before the bytearray may shrink.
        with memoryview(buffer) as view:
            while available - cursor >= _HEADER.size:
                (size,) = _HEADER.unpack_from(view, cursor)
                end = cursor + _HEADER.size + size
                if end > available:
                    break
                messages.extend(pickle.loads(view[cursor + _HEADER.size : end]))
                cursor = end
        if cursor:
            del buffer[:cursor]
        return messages

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                os.close(self._fd)
            except OSError:
                pass
