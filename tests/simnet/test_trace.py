"""Tests for the tracer."""

from __future__ import annotations

from repro.simnet import DropFault, Network, PacketKind, Tracer
from repro.topology import ClosSpec


def run_traced(predicate=None, max_events=100_000):
    tracer = Tracer(max_events=max_events, predicate=predicate)
    net = Network(ClosSpec(n_leaves=2, n_spines=2), seed=0, mtu=1000, tracer=tracer)
    net.host(1).on_message(lambda *a: None)
    net.host(0).send(1, 5_000)
    net.run()
    return tracer


def test_records_events_with_counts():
    tracer = run_traced()
    assert tracer.counts["tx"] > 0
    assert tracer.counts["rx"] > 0
    assert "drop" not in tracer.counts


def test_events_for_packet_in_time_order():
    tracer = run_traced()
    pid = tracer.events[0].pid
    events = tracer.events_for_packet(pid)
    times = [e.time_ns for e in events]
    assert times == sorted(times)


def test_links_crossed_gives_full_path():
    tracer = run_traced()
    data_pids = {e.pid for e in tracer.events if e.kind == "data"}
    pid = min(data_pids)
    path = tracer.links_crossed(pid)
    assert path[0].startswith("hostup:")
    assert path[-1].startswith("hostdown:")
    assert len(path) == 4  # host->leaf->spine->leaf->host


def test_predicate_filters_recorded_events():
    tracer = run_traced(predicate=lambda p: p.kind is PacketKind.DATA)
    kinds = {e.kind for e in tracer.events}
    assert kinds == {"data"}
    # Counts agree with the recorded buffer; `seen` keeps the totals
    # including the ACKs the predicate filtered out.
    assert tracer.counts["rx"] == len([e for e in tracer.events if e.event == "rx"])
    assert tracer.seen["rx"] > tracer.counts["rx"]


def test_seen_equals_counts_without_predicate():
    tracer = run_traced()
    assert tracer.seen == tracer.counts


def test_bounded_buffer_evicts_oldest():
    tracer = run_traced(max_events=5)
    assert len(tracer.events) == 5


def test_summary_mentions_counts():
    tracer = run_traced()
    summary = tracer.summary()
    assert "tx=" in summary and "rx=" in summary


def test_event_str_is_informative():
    tracer = run_traced()
    text = str(tracer.events[0])
    assert "hostup:" in text or "up:" in text


def test_same_seed_runs_trace_identically_pids_included():
    # Packet ids are numbered per network, so a run's trace (and the
    # forensic events keyed by pid) does not depend on what the process
    # simulated before it.
    def trace():
        tracer = Tracer()
        net = Network(ClosSpec(n_leaves=2, n_spines=2), seed=4, mtu=1000, tracer=tracer)
        net.inject_fault("up:L0->S1", DropFault(0.3))
        net.host(1).on_message(lambda *a: None)
        net.host(0).send(1, 20_000)
        net.run()
        return list(tracer.events)

    first, second = trace(), trace()
    assert any(e.event == "drop" for e in first)
    assert first == second
    assert min(e.pid for e in first) == 0
