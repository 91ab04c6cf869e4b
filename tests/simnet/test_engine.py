"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet import SimulationError, Simulator


def test_starts_at_time_zero():
    assert Simulator().now == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10]
    assert sim.now == 10


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    for delay in (30, 10, 20):
        sim.schedule(delay, fired.append, delay)
    sim.run()
    assert fired == [10, 20, 30]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for label in ("a", "b", "c"):
        sim.schedule(5, fired.append, label)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(42, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 42


def test_cannot_schedule_into_past():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1, lambda: None)


def test_zero_delay_event_fires_now():
    sim = Simulator()
    sim.schedule(7, lambda: sim.schedule(0, fired.append, sim.now))
    fired = []
    sim.run()
    assert fired == [7]


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            sim.schedule(1, chain, depth + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=1000)
    assert sim.now == 1000


def test_run_max_events():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i + 1, lambda: None)
    executed = sim.run(max_events=3)
    assert executed == 3
    assert sim.pending_events == 7


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, 1)
    sim.schedule(2, sim.stop)
    sim.schedule(3, fired.append, 3)
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 3]


def test_cancel_prevents_event():
    sim = Simulator()
    fired = []
    handle = sim.schedule(5, fired.append, "cancelled")
    sim.schedule(6, fired.append, "kept")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == ["kept"]


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.schedule(1, lambda: None)
    sim.run()
    handle.cancel()  # must not raise


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    handle = sim.schedule(5, lambda: None)
    sim.schedule(6, lambda: None)
    assert sim.pending_events == 2
    handle.cancel()
    assert sim.pending_events == 1


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(5, lambda: None)
    sim.schedule(9, lambda: None)
    assert sim.peek_time() == 5
    first.cancel()
    assert sim.peek_time() == 9


def test_peek_time_empty_queue():
    assert Simulator().peek_time() is None


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, reenter)
    sim.run()


def test_callback_args_passed_through():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda a, b: seen.append((a, b)), "x", 2)
    sim.run()
    assert seen == [("x", 2)]


# ----------------------------------------------------------------------
# Edge cases: until/max_events interaction and cancelled-head handling
# ----------------------------------------------------------------------
def test_run_until_with_max_events_does_not_skip_clock_ahead():
    """Regression: when a run stops on max_events with events still
    pending at or before `until`, the clock must NOT fast-forward to
    `until` — doing so made the next run() raise "event queue went
    backwards in time" on the leftover events."""
    sim = Simulator()
    fired = []
    for t in (1, 2, 3, 4, 5):
        sim.schedule(t, fired.append, t)
    executed = sim.run(until=10, max_events=2)
    assert executed == 2
    assert fired == [1, 2]
    assert sim.now == 2  # not 10: events at 3..5 are still due

    # The leftover events must still run cleanly.
    sim.run()
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now == 5


def test_run_until_max_events_fast_forwards_when_drained():
    """When max_events is generous enough to drain everything due by
    `until`, the idle-clock fast-forward still applies."""
    sim = Simulator()
    fired = []
    sim.schedule(3, fired.append, 3)
    sim.schedule(50, fired.append, 50)
    executed = sim.run(until=10, max_events=100)
    assert executed == 1
    assert fired == [3]
    assert sim.now == 10


def test_run_until_with_cancelled_head_event():
    """A cancelled event sitting at the head of the queue before
    `until` must not let run() fire a later real event past `until`."""
    sim = Simulator()
    fired = []
    head = sim.schedule(5, fired.append, "cancelled")
    sim.schedule(20, fired.append, "late")
    head.cancel()
    executed = sim.run(until=10)
    assert executed == 0
    assert fired == []
    assert sim.now == 10
    sim.run()
    assert fired == ["late"]
    assert sim.now == 20


def test_stop_prevents_idle_fast_forward():
    """stop() mid-run leaves the clock at the stopping event even when
    `until` lies further ahead, so pending events stay runnable."""
    sim = Simulator()
    fired = []
    sim.schedule(3, sim.stop)
    sim.schedule(5, fired.append, 5)
    sim.run(until=100)
    assert sim.now == 3
    sim.run()
    assert fired == [5]


def test_cancel_all_then_run_is_idle():
    sim = Simulator()
    handles = [sim.schedule(t, lambda: None) for t in (1, 2, 3)]
    for handle in handles:
        handle.cancel()
    assert sim.run() == 0
    assert sim.now == 0
    assert sim.events_executed == 0


def test_peek_time_purges_cancelled_run_of_events():
    sim = Simulator()
    handles = [sim.schedule(t, lambda: None) for t in (1, 2, 3)]
    keeper = sim.schedule(7, lambda: None)
    for handle in handles:
        handle.cancel()
    assert sim.peek_time() == 7
    assert sim.pending_events == 1
    assert not keeper.cancelled


def test_run_until_exact_event_time_fires_event():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, 10)
    sim.run(until=10)
    assert fired == [10]
    assert sim.now == 10


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_property_events_always_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.integers(0, 1000), st.booleans()), min_size=1, max_size=100
    )
)
def test_property_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    handles = []
    for idx, (delay, cancel) in enumerate(entries):
        handles.append((sim.schedule(delay, fired.append, idx), cancel))
    expected = []
    for idx, (handle, cancel) in enumerate(handles):
        if cancel:
            handle.cancel()
        else:
            expected.append(idx)
    sim.run()
    assert sorted(fired) == expected


# ----------------------------------------------------------------------
# EventHandle contract: the handle is the heap entry, and everything a
# caller could do with the old handle still holds.
# ----------------------------------------------------------------------
def test_handle_exposes_time_and_seq():
    sim = Simulator()
    sim.run(until=100)
    first = sim.schedule(5, lambda: None)
    second = sim.schedule_at(250, lambda: None)
    third = sim.schedule(5, lambda: None)
    assert (first.time, second.time, third.time) == (105, 250, 105)
    assert (first.seq, second.seq, third.seq) == (0, 1, 2)
    assert "time=105" in repr(first) and "seq=0" in repr(first)


def test_handle_cancelled_before_and_after_firing():
    sim = Simulator()
    fired = []
    kept = sim.schedule(1, fired.append, "kept")
    dropped = sim.schedule(2, fired.append, "dropped")
    assert not kept.cancelled and not dropped.cancelled
    dropped.cancel()
    dropped.cancel()  # idempotent
    assert dropped.cancelled and not kept.cancelled
    sim.run()
    assert fired == ["kept"]
    assert not kept.cancelled  # firing is not cancelling
    kept.cancel()  # after the fact: harmless, and nothing re-fires
    assert kept.cancelled
    assert sim.run() == 0
    assert fired == ["kept"]
    assert sim.events_executed == 1


def test_handles_are_hashable_and_distinct():
    sim = Simulator()
    handles = [sim.schedule(7, lambda: None) for _ in range(50)]
    assert len(set(handles)) == 50
    owner = {handle: index for index, handle in enumerate(handles)}
    assert all(owner[handle] == index for index, handle in enumerate(handles))
    handles[3].cancel()  # cancelling must not move it in a dict or set
    assert owner[handles[3]] == 3 and handles[3] in set(handles)
    assert handles[0] != handles[1]


def test_pending_events_ignores_cancelled_anywhere_in_the_heap():
    sim = Simulator()
    handles = [sim.schedule(delay, lambda: None) for delay in (9, 3, 7, 1, 5)]
    for handle in handles[::2]:
        handle.cancel()
    assert sim.pending_events == 2
    assert sim.run() == 2
    assert sim.pending_events == 0


def test_ten_thousand_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for index in range(10_000):
        sim.schedule(5, fired.append, index)
    assert sim.run() == 10_000
    assert fired == list(range(10_000))


def test_bounded_runs_execute_each_event_exactly_once():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(1 + index % 7, fired.append, index) for index in range(100)]
    for handle in handles[::10]:
        handle.cancel()
    assert sim.run(max_events=25) == 25
    assert len(fired) == 25
    assert sim.run(max_events=0) == 0
    assert sim.run() == 65
    assert sorted(fired) == [i for i in range(100) if i % 10]
    assert len(set(fired)) == 90
    assert sim.events_executed == 90
    assert sim.pending_events == 0


def test_step_and_run_share_one_queue():
    sim = Simulator()
    fired = []
    for label in "abcd":
        sim.schedule(3, fired.append, label)
    sim.schedule(1, fired.append, "first").cancel()
    assert sim.step() and fired == ["a"]
    assert sim.run(max_events=2) == 2
    assert sim.step() and not sim.step()
    assert fired == list("abcd")
    assert sim.events_executed == 4
