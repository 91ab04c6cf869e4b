"""Statistical-simulator workload: the radix ladder of a Fig. 5 sweep.

``fastsim_radix_sweep`` runs fault and healthy trials at three fabric
radices through ``SweepRunner``.  Per-trial fixed cost dominates the
small rung and array size the large one, so a vectorisation gain and a
set-up-cost gain land on different rungs.  The collective is scaled
with the square of the radix so the 1 % threshold stays clear of
spraying noise on every rung (no false positives, no misses).
"""

from __future__ import annotations

import time
from statistics import median

from repro.analysis.experiments import (
    ExperimentConfig,
    build_trial,
    make_predictor,
    run_trial,
    run_trial_with_verdict,
)
from repro.analysis.sweeps import SweepRunner
from repro.core.detection import DetectionConfig
from repro.core.monitor import FlowPulseMonitor
from repro.fastsim.model import run_iterations
from repro.telemetry import TelemetrySession
from repro.units import GIB

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

WORKLOADS = ("fastsim_radix_sweep",)

#: (radix, trials per polarity): every rung runs that many fault trials
#: and as many healthy ones.
LADDER = ((32, 50), (64, 8), (256, 1))
#: Profiled by the traced run of non-fastsim workloads (control values).
PROBE = ((32, 20), (64, 4), (256, 1))
SETUP_REPEATS = 5
RTT_TRIALS = 20  # single-trial latencies taken after every ladder pass
POOL_TRIALS = 100


def config_for(radix: int) -> ExperimentConfig:
    return ExperimentConfig(
        n_leaves=radix,
        n_spines=radix // 2,
        collective_bytes=int(8 * GIB * (radix / 32) ** 2),
    )


def n_trials(ladder) -> int:
    return sum(2 * n for _radix, n in ladder)


def outcome_row(outcome) -> list:
    return [
        outcome.injected,
        outcome.triggered,
        outcome.first_detection_iteration,
        outcome.fault_link,
        sorted(outcome.suspected_links),
        outcome.score,
    ]


class LadderPass:
    """One pass over the ladder: per-rung wall time and outcomes."""

    def __init__(self, ladder, seed: int, tracer=NULL_TRACER) -> None:
        self.ladder = ladder
        self.attempted = n_trials(ladder)
        self.rung_s = []
        self.errors = []  # per rung: false positives + false negatives
        self.digests = []
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        for rung, (radix, n) in enumerate(ladder):
            started = time.perf_counter()
            with tracer.span("analysis.sweeps.run_batch", group=rung):
                batch = SweepRunner(jobs=1).run_batch(
                    config_for(radix), n_trials=n, base_seed=seed
                )
            self.rung_s.append(time.perf_counter() - started)
            confusion = batch.confusion()
            self.errors.append(confusion.fp + confusion.fn)
            self.digests.append(
                digest([outcome_row(o) for o in batch.positives + batch.negatives])
            )
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = cpu_seconds() - cpu0
        self.signature = tuple(self.digests)

    def failed(self, pins: list | None) -> tuple[int, list[str]]:
        failed = 0
        reasons = []
        for rung, (radix, n) in enumerate(self.ladder):
            bad = self.errors[rung]
            if bad:
                reasons.append(f"r{radix}: {bad} false positives/negatives")
            if pins is not None and self.digests[rung] != pins[rung]:
                bad = 2 * n
                reasons.append(f"r{radix}: digest {self.digests[rung]} != pinned {pins[rung]}")
            failed += bad
        return failed, reasons


def sweep_fixed_cost(ladder, seed: int) -> float:
    """What a sweep pays once per rung before its first trial: the known
    network state and its predictor baseline."""
    started = time.perf_counter()
    for radix, _n in ladder:
        config = config_for(radix)
        make_predictor(config, build_trial(config, base_seed=seed)).predict()
    return time.perf_counter() - started


def trial_latencies(seed: int, count: int) -> list[float]:
    """Seconds from a trial's first record being simulated to its run
    verdict, one trial at a time at radix 32 (warm baseline cache)."""
    config = config_for(32)
    cache: dict = {}
    run_trial(config, injected=True, base_seed=seed, trial=0, predictor_cache=cache)
    samples = []
    for trial in range(count):
        started = time.perf_counter()
        run_trial(
            config, injected=trial % 2 == 0, base_seed=seed, trial=trial, predictor_cache=cache
        )
        samples.append(time.perf_counter() - started)
    return samples


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    setups = [sweep_fixed_cost(LADDER, seed) for _ in range(SETUP_REPEATS)]
    def cycle() -> tuple[LadderPass, list[float]]:
        return LadderPass(LADDER, seed), trial_latencies(seed, RTT_TRIALS)

    cycles = timed_passes(cycle, seconds)
    passes = [ladder_pass for ladder_pass, _latencies in cycles]
    latencies = [sample for _pass, samples in cycles for sample in samples]
    attempted, failed, reasons = summarize(passes, pinned(name, seed))
    trials = n_trials(LADDER)
    rates = [trials / p.wall_s for p in passes]
    cpu = [p.cpu_s / trials * 1e6 for p in passes]
    return {
        "metrics": end_to_end_metrics(median(setups[1:]), rates, cpu, latencies),
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "work_unit": "trials",
            "trials": trials,
            "ladder": [list(rung) for rung in LADDER],
            "timed_passes": len(passes),
            "passes": {"setup_s": setups[1:], "work_per_s": rates, "cpu_s_per_mwork": cpu},
            "rtt_samples": len(latencies),
            "digests": passes[0].digests,
            "failures": reasons,
        },
    }


# ----------------------------------------------------------------------
# Layer probes
# ----------------------------------------------------------------------
def trial_walk(radix: int, count: int, seed: int, tracer) -> None:
    """The calls ``run_trial`` makes, one span each: build → predictor →
    simulate → detect (no baseline cache, so the predictor is paid)."""
    config = config_for(radix)
    tag = f"_r{radix}"
    for trial in range(count):
        with tracer.span("analysis.experiments.build" + tag, group=trial):
            setup = build_trial(config, base_seed=seed, trial=trial)
        with tracer.span("analysis.experiments.predict" + tag, group=trial):
            predictor = make_predictor(config, setup)
            predictor.predict()
        with tracer.span("fastsim.model.simulate" + tag, group=trial):
            records = run_iterations(
                setup.model, setup.demand, config.n_iterations, seed=seed + trial,
                job_id=config.job_id,
                fault_schedule=lambda _i: {setup.fault_link: config.drop_rate},
            )
        with tracer.span("core.monitor.run" + tag, group=trial):
            FlowPulseMonitor(
                predictor, DetectionConfig(threshold=config.threshold)
            ).process_run(records)


def pool_speedup(seed: int, trials: int) -> float:
    """Two pool workers against the inline runner on the same trials."""
    config = config_for(32)
    walls = []
    for jobs in (1, 2):
        started = time.perf_counter()
        SweepRunner(jobs=jobs).run_batch(config, n_trials=trials, base_seed=seed)
        walls.append(time.perf_counter() - started)
    return walls[0] / walls[1]


def audit_overhead_share(seed: int, trials: int) -> float:
    """Trials with the monitor's audit trail on against the same trials
    with it off."""
    config = config_for(32)

    def wall(session_factory) -> float:
        cache: dict = {}
        started = time.perf_counter()
        for trial in range(trials):
            run_trial_with_verdict(
                config, injected=True, base_seed=seed, trial=trial,
                predictor_cache=cache, telemetry=session_factory(),
            )
        return time.perf_counter() - started

    wall(lambda: None)  # warm
    off = wall(lambda: None)
    return (wall(TelemetrySession) - off) / off


def layers(name: str | None, seed: int, seconds: float, tracer) -> dict:
    native = name is not None
    ladder = LADDER if native else PROBE
    plain, traced = traced_pairs(
        lambda t: LadderPass(ladder, seed, t), tracer, seconds / 2, native
    )
    attempted, failed, reasons = summarize(plain + traced, pinned(name, seed) if native else None)
    walk_trials = {32: 20, 256: 2}
    for radix, count in walk_trials.items():
        trial_walk(radix, count, seed, tracer)
    self_s = tracer.self_times()
    metrics = {}
    for rung, (radix, n) in enumerate(ladder):
        metrics[f"analysis.sweeps.trials_per_s_r{radix}"] = (
            2 * n / median([p.rung_s[rung] for p in plain])
        )
    for radix, count in walk_trials.items():
        for layer, span in (
            ("analysis.experiments.build_ms", "analysis.experiments.build"),
            ("analysis.experiments.predict_ms", "analysis.experiments.predict"),
            ("fastsim.model.simulate_ms", "fastsim.model.simulate"),
            ("core.monitor.run_ms", "core.monitor.run"),
        ):
            metrics[f"{layer}_r{radix}"] = self_s[f"{span}_r{radix}"] / count * 1e3
    pool_trials = POOL_TRIALS if native else POOL_TRIALS // 4
    metrics["analysis.sweeps.pool_speedup_j2"] = pool_speedup(seed, pool_trials)
    metrics["telemetry.audit_overhead_share"] = audit_overhead_share(seed, 20)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "trace_overhead_share": overhead_share(plain, traced),
        "detail": {
            "ladder": [list(rung) for rung in ladder],
            "pairs": len(plain),
            "digests": plain[0].digests,
            "failures": reasons,
        },
    }
