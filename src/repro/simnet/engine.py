"""Discrete-event simulation engine.

A small, deterministic event loop: events fire in (time, insertion
order), time is integer nanoseconds, and cancellation is O(1) via lazy
deletion.  Every stochastic component in the simulator draws from
explicitly seeded generators, so a run is a pure function of its seed.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class EventHandle(list):
    """Opaque handle returned by :meth:`Simulator.schedule`.

    The handle *is* the event's heap entry, ``[time, seq, callback,
    args]``: one allocation per scheduled event, ordered by the C-level
    list comparison (``seq`` is unique, so it never reaches the
    callback), cancelled by clearing the callback slot.  Handles are
    one-shot: cancelling an already-fired event is a harmless no-op.
    """

    __slots__ = ()

    @property
    def time(self) -> int:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self[2] = None

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def __hash__(self) -> int:
        return hash((self[0], self[1]))

    def __repr__(self) -> str:
        return f"EventHandle(time={self[0]}, seq={self[1]})"


class Simulator:
    """Deterministic discrete-event scheduler.

    Example::

        sim = Simulator()
        sim.schedule(10, lambda: print(sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        self._queue: list[EventHandle] = []
        self._seq = 0
        self.now: int = 0
        self.events_executed: int = 0
        self._running = False
        self._stopped = False
        #: Optional telemetry session (duck-typed; see
        #: :mod:`repro.telemetry.session`).  When set, every
        #: :meth:`run` emits one ``engine.run`` event with its
        #: event-loop throughput; the hot loop itself is untouched.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # The push is spelled out here and in schedule_at: this is the
        # simulator's most-called function and a shared helper would
        # cost one more Python call per event.
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle((self.now + delay, seq, callback, args))
        heappush(self._queue, handle)
        return handle

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time`` ns."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle((time, seq, callback, args))
        heappush(self._queue, handle)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when idle."""
        queue = self._queue
        while queue:
            time, _seq, callback, args = heappop(queue)
            if callback is None:  # lazily-cancelled event
                continue
            if time < self.now:
                raise SimulationError("event queue went backwards in time")
            self.now = time
            self.events_executed += 1
            callback(*args)
            return True
        return False

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until`` ns, or ``max_events``.

        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        started_wall = time.perf_counter() if self.telemetry is not None else 0.0
        started_now = self.now
        queue = self._queue
        try:
            # One heap pop per event: the head is inspected in place
            # (it must stay queued when `until` or `max_events` ends the
            # run) and popped only once it is known to fire or to have
            # been cancelled.
            while queue and not self._stopped:
                head = queue[0]
                callback = head[2]
                if callback is None:  # lazily-cancelled event
                    heappop(queue)
                    continue
                now = head[0]
                if until is not None and now > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                if now < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = now
                self.events_executed += 1
                executed += 1
                callback(*head[3])
            # Fast-forward the clock to `until` only when the queue is
            # actually drained up to it: if the run stopped early (via
            # stop() or max_events) with events still pending at or
            # before `until`, jumping the clock past them would make the
            # next run() raise "event queue went backwards in time".
            if until is not None and self.now < until and not self._stopped:
                next_time = self.peek_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            self._running = False
        if self.telemetry is not None:
            wall_s = time.perf_counter() - started_wall
            self.telemetry.emit(
                "engine.run",
                executed=executed,
                wall_s=wall_s,
                events_per_sec=executed / wall_s if wall_s > 0 else 0.0,
                start_ns=started_now,
                end_ns=self.now,
                pending=self.pending_events,
            )
            self.telemetry.counter("engine.events").inc(executed)
            self.telemetry.histogram("engine.run_wall_s").observe(wall_s)
        return executed

    def stop(self) -> None:
        """Stop :meth:`run` after the current event completes."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of scheduled (non-cancelled) events."""
        return sum(1 for entry in self._queue if entry[2] is not None)

    def peek_time(self) -> int | None:
        """Time of the next pending event, or None if the queue is idle."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heappop(queue)  # discard lazily-cancelled events
        return queue[0][0] if queue else None
