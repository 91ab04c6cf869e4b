"""SIGKILL-safe framed pipes between the fleet's parent and its workers.

Every shard has two raw pipes carrying the same length-prefixed
pickle frames: the *inbox* (parent → worker: jobs,
batches, control messages) and the *outbox* (worker → parent: verdicts,
summaries, beacons, metrics); one writer class and one reader class
serve both.  A pipe has one writer process and one reader process, so
a SIGKILL tears at most the victim's own streams, never a lock or
channel shared with the survivors.

Who may block where:

- The **worker** blocks, and only there, waiting for its inbox to turn
  readable (or for a heartbeat interval to pass) and writing its outbox
  with plain blocking ``os.write`` (:meth:`OutboxWriter.send_many`).
- The **parent** never blocks on a pipe.  It writes inboxes with
  :meth:`OutboxWriter.post` on a non-blocking fd and reads outboxes with
  :meth:`OutboxReader.drain`; when it must wait — for inbox room, or for
  a drain to finish — it waits for an outbox to turn readable and reads
  it.  A worker stalled on its full outbox is thereby always unstuck,
  which keeps the pair deadlock-free (see ``FleetService._send``).

An inbox writer keeps a **window**: at most ``window`` messages the
worker has not yet reported taken.  The worker reports what it took in
the outbox frames it writes anyway (``("taken", shard, n)``; see
:func:`~repro.fleet.shard.shard_worker`), and :meth:`OutboxWriter.ack`
reopens the window by as much.  Messages beyond the window, and bytes
the kernel pipe cannot take yet, wait in the writer's parent-side
*tail*, the one place a message can still be taken back
(:meth:`OutboxWriter.evict`): bytes in a kernel pipe cannot be.

The reader reassembles frames in a buffer and never blocks: a torn
tail simply stays incomplete, and once the dead writer's end closes the
reader sees EOF and reports the junk via ``torn_bytes`` instead of
hanging.  Pipes are sized up to :data:`PIPE_CAPACITY` where the platform
allows (Linux ``F_SETPIPE_SZ``), so workers rarely stall on verdict
bursts.

Requires fd inheritance across ``fork`` — the Linux default start
method, and the only one the chaos tooling (SIGKILL hooks) targets.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
from collections import deque

__all__ = ["OutboxReader", "OutboxWriter", "new_outbox_pipe"]

_HEADER = struct.Struct("<I")

#: Preferred kernel pipe buffer (best-effort; the 64 KiB default
#: otherwise).  Bigger buffer = fewer worker stalls on verdict bursts.
PIPE_CAPACITY = 1 << 20

#: Max bytes pulled per ``os.read`` while draining.
_READ_CHUNK = 1 << 16


def new_outbox_pipe() -> tuple[int, int]:
    """A fresh ``(read_fd, write_fd)`` pipe for one inbox or outbox,
    widened to :data:`PIPE_CAPACITY` when the platform allows."""
    read_fd, write_fd = os.pipe()
    try:
        import fcntl

        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_CAPACITY)
    except (ImportError, AttributeError, OSError):
        pass
    return read_fd, write_fd


class OutboxWriter:
    """Framed sender over one pipe fd.

    Without a ``window`` (a worker's outbox) the fd stays blocking and
    :meth:`send_many` returns once the whole frame is in the pipe.  With
    one (a shard's inbox, parent side) the fd turns non-blocking and
    :meth:`post` never waits; a reader gone for good turns every later
    post into a no-op (the service learns of the death from the
    worker's outbox EOF).
    """

    def __init__(self, fd: int, window: int | None = None) -> None:
        self._fd = fd
        self._lock = threading.Lock()
        self.window = window
        #: Messages posted and not yet reported taken: the ones written
        #: (or being written) plus the tail.
        self.pending = 0
        self._tail: deque = deque()  # posted, not yet framed
        self._head: memoryview | None = None  # unwritten rest of a started frame
        if window is not None:
            os.set_blocking(fd, False)

    def send(self, message) -> None:
        self.send_many([message])

    def send_many(self, messages: list) -> None:
        """One frame carrying ``messages``; the reader hands them back
        one by one, in order."""
        payload = pickle.dumps(messages, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            view = memoryview(_HEADER.pack(len(payload)) + payload)
            while view:
                written = os.write(self._fd, view)
                view = view[written:]

    def post(self, message) -> None:
        """Queue one message (one frame) behind the window and write what
        the window and the pipe take now: with both open, that is one
        non-blocking ``os.write`` of this message, right here.  The tail
        keeps messages themselves, framed only when written."""
        if self._fd >= 0:
            self.pending += 1
            self._tail.append(message)
            self.ack(0)

    def ack(self, taken: int) -> None:
        """The reader took ``taken`` more messages (0: none, though it
        may have read part of a frame): reopen the window by as many and
        write what waits, as far as the pipe takes it."""
        if self._fd < 0:
            return
        self.pending -= taken
        while True:
            if self._head is None:
                if not self._tail or self.pending - len(self._tail) >= self.window:
                    return
                payload = pickle.dumps([self._tail.popleft()], protocol=pickle.HIGHEST_PROTOCOL)
                self._head = memoryview(_HEADER.pack(len(payload)) + payload)
            try:
                written = os.write(self._fd, self._head)
            except BlockingIOError:
                return
            except BrokenPipeError:
                self.close()
                return
            self._head = self._head[written:] if written < len(self._head) else None

    def evict(self, evictable):
        """Take back the oldest tail message ``evictable`` accepts (a
        started frame is the kernel's already); None if there is none."""
        for index, message in enumerate(self._tail):
            if evictable(message):
                del self._tail[index]
                self.pending -= 1
                return message
        return None

    def close(self) -> None:
        if self._fd >= 0:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = -1
        self.pending = 0
        self._tail.clear()
        self._head = None


class OutboxReader:
    """Non-blocking frame reassembler for one pipe's read end (an
    outbox in the parent, an inbox in its worker).

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
        """True once every write end closed (the writer exited)."""
        return self._eof

    @property
    def torn_bytes(self) -> int:
        """Bytes of an incomplete trailing frame after EOF (a write
        torn by SIGKILL); always 0 while the writer lives."""
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
