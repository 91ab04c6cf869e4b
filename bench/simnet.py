"""Packet-simulator workload: detect → localize → disable → recover.

``simnet_closed_loop`` runs the closed-loop driver on an 8×4 fabric
with a 50 % drop fault injected at iteration 2.  Host time is what is
measured; every simulated quantity (events, packet-hops,
retransmissions, drops, final simulated clock) is deterministic in the
seed and doubles as the correctness digest.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from statistics import median

from repro.collectives.demand import DemandMatrix
from repro.collectives.ring import locality_optimized_ring, ring_reduce_scatter_stages
from repro.collectives.schedule import StagedCollectiveRunner
from repro.core.detection import DetectionConfig
from repro.core.monitor import FlowPulseMonitor
from repro.core.prediction import AnalyticalPredictor
from repro.scenarios.closed_loop import SimnetClosedLoopConfig, SimnetClosedLoopDriver
from repro.scenarios.script import FaultEvent
from repro.simnet import DropFault, Network, Simulator
from repro.telemetry import TelemetrySession
from repro.topology.graph import ClosSpec

from harness import (
    NULL_TRACER,
    cpu_seconds,
    digest,
    end_to_end_metrics,
    overhead_share,
    pinned,
    summarize,
    timed_passes,
    traced_pairs,
)

WORKLOADS = ("simnet_closed_loop",)

CONFIG = SimnetClosedLoopConfig(
    n_leaves=8, n_spines=4, collective_bytes=100_000, mtu=512, n_iterations=8
)
#: Profiled by the traced run of non-simnet workloads (control values).
PROBE = replace(CONFIG, collective_bytes=50_000)
FAULT_ITERATION = 2
FAULT_LINK = "up:L2->S1"
#: (detection iteration, remediation iteration, recovered, stalled)
EXPECTED_STORY = (2, 3, True, False)
SETUP_REPEATS = 9
SETUP_BATCH = 20
BARE_EVENTS = 200_000
P2P_BYTES = 1_000_000


def build_driver(config: SimnetClosedLoopConfig, telemetry=None, faulty: bool = True):
    faults = {FAULT_ITERATION: [FaultEvent(0, "inject", FAULT_LINK, DropFault(0.5))]}
    return SimnetClosedLoopDriver(
        config, iteration_faults=faults if faulty else None, telemetry=telemetry
    )


class Run:
    """One closed-loop pass and what it simulated."""

    def __init__(self, config: SimnetClosedLoopConfig, tracer=NULL_TRACER) -> None:
        started = time.perf_counter()
        driver = build_driver(config)
        self.build_s = time.perf_counter() - started
        # Host time of each simulated iteration, stamped where the
        # driver hands the iteration's records to the monitor.
        boundary = driver.runner.on_iteration_done
        stamps = []

        def on_iteration_done(iteration: int, now: int) -> None:
            with tracer.span("scenarios.closed_loop.boundary", group=iteration):
                boundary(iteration, now)
            stamps.append(time.perf_counter())

        driver.runner.on_iteration_done = on_iteration_done
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        with tracer.span("scenarios.closed_loop.run"):
            result = driver.run()
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = cpu_seconds() - cpu0
        self.iteration_s = [b - a for a, b in zip([t0] + stamps, stamps)]
        network = driver.network
        self.events = network.sim.events_executed
        self.hops = sum(link.delivered_packets for link in network.links.values())
        self.retx = sum(host.transport.retransmitted_packets for host in network.hosts)
        self.drops = network.total_fault_drops()
        self.sim_ns = network.now
        self.attempted = config.n_iterations
        self.completed = result.iterations_completed
        self.failed_messages = result.failed_messages
        self.story = (
            result.detection_iteration,
            result.remediation_iteration,
            result.recovered,
            result.stalled,
        )
        scores = [step.max_score for step in result.steps]
        self.signature = digest(
            [self.events, self.hops, self.retx, self.drops, self.sim_ns, scores]
        )

    def failed(self, pin: str | None) -> tuple[int, list[str]]:
        """Failed iterations of this pass, with reasons."""
        reasons = []
        failed = (self.attempted - self.completed) + self.failed_messages
        if failed:
            reasons.append(
                f"{self.completed}/{self.attempted} iterations, "
                f"{self.failed_messages} failed messages"
            )
        if self.story != EXPECTED_STORY:
            failed = self.attempted
            reasons.append(f"story {self.story} != {EXPECTED_STORY}")
        if pin is not None and self.signature != pin:
            failed = self.attempted
            reasons.append(f"digest {self.signature} != pinned {pin}")
        return min(failed, self.attempted), reasons


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    config = replace(CONFIG, seed=seed)
    # A build takes about a millisecond, so a set-up sample times
    # SETUP_BATCH of them (one timer read is then noise-free and one
    # collector pause cannot double it).
    builds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        for _ in range(SETUP_BATCH):
            build_driver(config)
        builds.append((time.perf_counter() - started) / SETUP_BATCH)
    runs = timed_passes(lambda: Run(config), seconds)
    attempted, failed, reasons = summarize(runs, pinned(name, seed))
    rates = [run.hops / run.wall_s for run in runs]
    cpu = [run.cpu_s / run.hops * 1e6 for run in runs]
    iteration_s = [s for run in runs for s in run.iteration_s]
    return {
        "metrics": end_to_end_metrics(median(builds[1:]), rates, cpu, iteration_s),
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "work_unit": "packet-hops",
            "packet_hops": runs[0].hops,
            "events": runs[0].events,
            "timed_passes": len(runs),
            "passes": {"setup_s": builds[1:], "work_per_s": rates, "cpu_s_per_mwork": cpu},
            "rtt_samples": len(iteration_s),
            "digest": runs[0].signature,
            "failures": reasons,
        },
    }


# ----------------------------------------------------------------------
# Layer probes
# ----------------------------------------------------------------------
def bare_events_per_s() -> float:
    """No-op events through ``Simulator``: 256 self-rescheduling chains,
    so the heap stays the size a busy fabric keeps it."""
    sim = Simulator()
    left = BARE_EVENTS

    def tick() -> None:
        nonlocal left
        if left > 0:
            left -= 1
            sim.schedule(1000, tick)

    started = time.perf_counter()
    for chain in range(256):
        sim.schedule(chain, tick)
    executed = sim.run()
    return executed / (time.perf_counter() - started)


def p2p_us_per_packet(mtu: int) -> float:
    """One message between two hosts of a 2×1 fabric: link, queue,
    switch and transport with no collective on top."""
    network = Network(ClosSpec(n_leaves=2, n_spines=1), seed=0, mtu=mtu)
    network.host(0).send(1, P2P_BYTES)
    started = time.perf_counter()
    network.run()
    return (time.perf_counter() - started) / math.ceil(P2P_BYTES / mtu) * 1e6


def healthy_iteration(config: SimnetClosedLoopConfig):
    """One fault-free ring iteration driven directly through
    ``StagedCollectiveRunner``; returns (wall ms, the leaves' records,
    the demand) so the monitor can be timed on real records."""
    spec = config.spec()
    network = Network(
        spec, seed=config.seed, spray=config.spray, mtu=config.mtu, rto_ns=config.rto_ns
    )
    ring = locality_optimized_ring(spec.n_hosts, spec.hosts_per_leaf)
    stages = ring_reduce_scatter_stages(ring, config.collective_bytes)
    collectors = network.install_collectors(job_id=config.job_id)
    runner = StagedCollectiveRunner(
        network, config.job_id, stages, iterations=1, seed=config.seed
    )
    started = time.perf_counter()
    runner.run()
    wall_ms = (time.perf_counter() - started) * 1e3
    records = [collector.finalize(network.now) for collector in collectors]
    return wall_ms, records, DemandMatrix.from_stages(stages)


def monitor_iteration_us(config: SimnetClosedLoopConfig, records, demand) -> float:
    monitor = FlowPulseMonitor(
        AnalyticalPredictor(config.spec(), demand),
        DetectionConfig(threshold=config.threshold),
    )
    times = []
    for _ in range(200):
        started = time.perf_counter()
        monitor.process_iteration(records)
        times.append(time.perf_counter() - started)
    return median(times) * 1e6


def telemetry_overhead_share(config: SimnetClosedLoopConfig) -> float:
    """A 2-iteration healthy closed loop with a live telemetry session
    against the same run with none (best of 3 each)."""
    short = replace(config, n_iterations=2)

    def wall(session_factory) -> float:
        best = math.inf
        for _ in range(3):
            driver = build_driver(short, telemetry=session_factory(), faulty=False)
            started = time.perf_counter()
            driver.run()
            best = min(best, time.perf_counter() - started)
        return best

    off = wall(lambda: None)
    return (wall(TelemetrySession) - off) / off


def layers(name: str | None, seed: int, seconds: float, tracer) -> dict:
    native = name is not None
    config = replace(CONFIG if native else PROBE, seed=seed)
    plain, traced = traced_pairs(lambda t: Run(config, t), tracer, seconds / 2, native)
    attempted, failed, reasons = summarize(
        plain + traced, pinned(name, seed) if native else None
    )

    builds = []
    for _ in range(5):
        started = time.perf_counter()
        Network(config.spec(), seed=seed, spray=config.spray, mtu=config.mtu)
        builds.append(time.perf_counter() - started)
    iter_ms, records, demand = healthy_iteration(config)
    run = plain[0]
    plain_wall = median(r.wall_s for r in plain)
    return {
        "metrics": {
            "simnet.engine.events_per_s": run.events / plain_wall,
            "simnet.engine.bare_events_per_s": bare_events_per_s(),
            "simnet.engine.events_per_hop": run.events / run.hops,
            "simnet.network.p2p_us_per_pkt": p2p_us_per_packet(config.mtu),
            "simnet.network.build_ms": median(builds) * 1e3,
            "collectives.schedule.healthy_iter_ms": iter_ms,
            "core.monitor.iter_us": monitor_iteration_us(config, records, demand),
            "simnet.transport.retx_pkts": float(run.retx),
            "simnet.faults.drops": float(run.drops),
            "simnet.engine.sim_ns": float(run.sim_ns),
            "telemetry.simnet_overhead_share": telemetry_overhead_share(config),
        },
        "attempted": attempted,
        "failed": failed,
        "trace_overhead_share": overhead_share(plain, traced),
        "detail": {
            "config": "native" if native else "probe",
            "packet_hops": run.hops,
            "events": run.events,
            "pairs": len(plain),
            "digest": run.signature,
            "failures": reasons,
        },
    }
