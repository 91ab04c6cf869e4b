"""Sweep engine: determinism contract, serial parity, and stats."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import (
    ExperimentConfig,
    SweepError,
    SweepRunner,
    SweepStats,
    SweepTask,
)
from repro.analysis.experiments import ExperimentError, run_batch, run_trial, sweep
from repro.units import MIB

CONFIG = ExperimentConfig(
    n_leaves=8,
    n_spines=4,
    collective_bytes=64 * MIB,
    mtu=1024,
    drop_rate=0.02,
    n_iterations=4,
)


def small_tasks(n=3, base_seed=7):
    return [
        SweepTask(config=CONFIG, injected=injected, base_seed=base_seed, trial=t)
        for injected in (True, False)
        for t in range(n)
    ]


# ----------------------------------------------------------------------
# Determinism contract
# ----------------------------------------------------------------------
def test_jobs4_bit_identical_to_jobs1():
    """The acceptance criterion: a pool of 4 workers produces exactly
    the per-trial outcomes (verdicts, scores, suspects) of the inline
    path, for a fixed base_seed."""
    tasks = small_tasks(n=3, base_seed=123)
    serial = SweepRunner(jobs=1).run_tasks(tasks)
    pooled = SweepRunner(jobs=4).run_tasks(tasks)
    assert pooled == serial
    assert [o.score for o in pooled] == [o.score for o in serial]


def test_worker_count_independence():
    tasks = small_tasks(n=2, base_seed=5)
    by_jobs = {j: SweepRunner(jobs=j).run_tasks(tasks) for j in (1, 2, 3)}
    assert by_jobs[1] == by_jobs[2] == by_jobs[3]


def test_chunksize_does_not_change_results():
    tasks = small_tasks(n=2, base_seed=9)
    a = SweepRunner(jobs=2, chunksize=1).run_tasks(tasks)
    b = SweepRunner(jobs=2, chunksize=4).run_tasks(tasks)
    assert a == b


def test_baseline_cache_is_correctness_neutral():
    """Cold (filling the cache) and warm (every baseline a hit) runs
    both equal direct ``run_trial`` calls that share no predictor
    cache."""
    tasks = small_tasks(n=2, base_seed=11)
    uncached = [
        run_trial(t.config, injected=t.injected, base_seed=t.base_seed, trial=t.trial)
        for t in tasks
    ]
    runner = SweepRunner(jobs=1)
    assert runner.run_tasks(tasks) == uncached
    assert runner.run_tasks(tasks) == uncached


def test_baseline_cache_stays_bounded_and_keeps_pair_hits(monkeypatch):
    """With pre-existing faults every trial has its own known state and
    baseline; the cache stays within its bound while each trial's
    healthy run still reuses the baseline its fault run built."""
    from repro.analysis import experiments, sweeps

    builds = []
    make_predictor = experiments.make_predictor

    def counting(config, setup, *args, **kwargs):
        builds.append(setup.model.known_disabled)
        return make_predictor(config, setup, *args, **kwargs)

    sweeps._BASELINE_CACHE.clear()
    config = replace(CONFIG, n_preexisting=2, n_iterations=2)
    n_trials = 50
    for base_seed in range(3):
        builds.clear()
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "make_predictor", counting)
            batch = SweepRunner(jobs=1).run_batch(config, n_trials=n_trials, base_seed=base_seed)
        assert len(sweeps._BASELINE_CACHE) <= sweeps._BASELINE_CACHE_SIZE
        assert len(builds) <= n_trials  # every healthy run hit its pair's entry
        for polarity, outcomes in ((True, batch.positives), (False, batch.negatives)):
            assert list(outcomes) == [
                run_trial(config, injected=polarity, base_seed=base_seed, trial=t)
                for t in range(n_trials)
            ]


# ----------------------------------------------------------------------
# Parity with the serial experiments API
# ----------------------------------------------------------------------
def test_run_tasks_matches_run_trial():
    tasks = small_tasks(n=2, base_seed=3)
    outcomes = SweepRunner(jobs=1).run_tasks(tasks)
    for task, outcome in zip(tasks, outcomes):
        assert outcome == run_trial(
            task.config,
            injected=task.injected,
            base_seed=task.base_seed,
            trial=task.trial,
        )


def test_run_batch_matches_serial_run_batch():
    fast = SweepRunner(jobs=1).run_batch(CONFIG, n_trials=3, base_seed=42)
    serial = run_batch(CONFIG, n_trials=3, base_seed=42)
    assert fast.positives == serial.positives
    assert fast.negatives == serial.negatives
    assert fast.confusion() == serial.confusion()


def test_sweep_matches_serial_sweep():
    values = [0.01, 0.03]
    fast = SweepRunner(jobs=1).sweep(
        CONFIG, "drop_rate", values, n_trials=2, base_seed=17
    )
    serial = sweep(CONFIG, "drop_rate", values, n_trials=2, base_seed=17)
    assert list(fast) == values
    for value in values:
        assert fast[value].positives == serial[value].positives
        assert fast[value].negatives == serial[value].negatives
        assert fast[value].config.drop_rate == value


# ----------------------------------------------------------------------
# Stats and validation
# ----------------------------------------------------------------------
def test_stats_recorded_per_call():
    runner = SweepRunner(jobs=1)
    assert runner.last_stats is None
    runner.run_tasks(small_tasks(n=1))
    stats = runner.last_stats
    assert isinstance(stats, SweepStats)
    assert stats.n_trials == 2
    assert stats.jobs == 1
    assert stats.elapsed_s > 0
    assert stats.trials_per_sec > 0


def test_empty_task_list_is_a_noop():
    runner = SweepRunner(jobs=1)
    assert runner.run_tasks([]) == []
    assert runner.last_stats is None


def test_jobs_zero_means_cpu_count():
    assert SweepRunner(jobs=0).jobs >= 1


def test_negative_jobs_rejected():
    with pytest.raises(SweepError):
        SweepRunner(jobs=-1)


def test_sweep_rejects_empty_values():
    with pytest.raises(SweepError):
        SweepRunner().sweep(CONFIG, "drop_rate", [], n_trials=1)


@pytest.mark.parametrize(
    "entry, error",
    [(SweepRunner().sweep, SweepError), (sweep, ExperimentError)],
    ids=["runner", "serial"],
)
def test_sweep_rejects_duplicate_values(entry, error):
    # Results are keyed by value: a repeat would run both grids and
    # report one (1 == 1.0 collide the same way as literal repeats).
    with pytest.raises(error, match="duplicate drop_rate"):
        entry(CONFIG, "drop_rate", [0.01, 0.02, 0.01], n_trials=1)
    with pytest.raises(error, match="duplicate n_iterations"):
        entry(CONFIG, "n_iterations", [1, 1.0], n_trials=1)


def test_run_batch_rejects_zero_trials():
    with pytest.raises(ExperimentError):
        SweepRunner().run_batch(CONFIG, n_trials=0)


# ----------------------------------------------------------------------
# Instrumentation (telemetry + progress) stays observation-only
# ----------------------------------------------------------------------
def test_instrumented_serial_run_matches_plain():
    from repro.telemetry import TelemetrySession

    tasks = small_tasks(n=2, base_seed=21)
    plain = SweepRunner(jobs=1).run_tasks(tasks)
    session = TelemetrySession()
    instrumented = SweepRunner(jobs=1, telemetry=session).run_tasks(tasks)
    assert instrumented == plain


def test_instrumented_pool_run_matches_plain():
    from repro.telemetry import TelemetrySession

    tasks = small_tasks(n=2, base_seed=22)
    plain = SweepRunner(jobs=1).run_tasks(tasks)
    session = TelemetrySession()
    instrumented = SweepRunner(jobs=2, telemetry=session).run_tasks(tasks)
    assert instrumented == plain


def test_telemetry_emits_per_trial_and_run_events():
    from repro.telemetry import TelemetrySession

    tasks = small_tasks(n=2, base_seed=23)
    session = TelemetrySession()
    runner = SweepRunner(jobs=2, telemetry=session)
    outcomes = runner.run_tasks(tasks)
    trial_events = session.events.of_type("sweep.trial")
    assert len(trial_events) == len(tasks)
    assert [e["index"] for e in trial_events] == list(range(len(tasks)))
    for event, task, outcome in zip(trial_events, tasks, outcomes):
        assert event["injected"] == task.injected
        assert event["score"] == outcome.score
        assert event["wall_s"] > 0
    (run_event,) = session.events.of_type("sweep.run")
    assert run_event["n_trials"] == len(tasks)
    assert run_event["jobs"] == 2
    assert 0 < run_event["worker_utilization"] <= 1.0
    assert session.counter("sweep.trials").value == len(tasks)
    assert session.histogram("sweep.trial_wall_s").count == len(tasks)


def test_progress_callback_sees_every_trial():
    calls = []
    tasks = small_tasks(n=2, base_seed=24)
    runner = SweepRunner(jobs=1, progress=lambda d, t, e: calls.append((d, t, e)))
    plain = SweepRunner(jobs=1).run_tasks(tasks)
    assert runner.run_tasks(tasks) == plain
    assert [d for d, _t, _e in calls] == list(range(1, len(tasks) + 1))
    assert all(t == len(tasks) for _d, t, _e in calls)
    elapsed = [e for _d, _t, e in calls]
    assert elapsed == sorted(elapsed)


def test_stats_record_utilization_when_instrumented():
    from repro.telemetry import TelemetrySession

    runner = SweepRunner(jobs=1, telemetry=TelemetrySession())
    runner.run_tasks(small_tasks(n=1))
    stats = runner.last_stats
    assert stats.busy_s > 0
    assert 0 < stats.utilization <= 1.0
    # Uninstrumented runs don't pay for timing: busy_s stays zero.
    plain = SweepRunner(jobs=1)
    plain.run_tasks(small_tasks(n=1))
    assert plain.last_stats.busy_s == 0.0
    assert plain.last_stats.utilization == 0.0
