"""Parallel, deterministic sweep engine for trial grids (Fig. 5).

The paper's evaluation grids need hundreds of monitored trials per
point.  Each trial is an independent pure function of ``(config,
injected, base_seed, trial)`` — all of its randomness derives from
``numpy.random.SeedSequence([base_seed, trial, injected]).spawn(...)``
(see :mod:`repro.analysis.experiments`) — so a grid can fan out over a
``multiprocessing`` pool with a hard determinism contract:

* **Bit-identical to serial**: a worker never draws from a shared
  stream; its RNG is derived per-trial from the spawned seed sequence,
  so ``jobs=N`` produces exactly the per-trial verdicts and scores of
  ``jobs=1``, for any ``N`` and any scheduling order.
* **Worker-count independent**: results depend only on ``base_seed``
  and the task list, never on pool size, chunking, or completion order
  (results are reassembled in task order).

On top of the fan-out, the runner shares two kinds of derived state
between trials of the same configuration (both caches are
correctness-neutral — they only skip recomputation of pure functions):

* the ring-collective demand matrix, and
* stateless predictor baselines (the ``expected_iteration`` of the
  healthy view), keyed by the *known* network state — see
  :func:`repro.analysis.experiments.predictor_baseline_key` — in a
  small least-recently-used cache per process.

Throughput is recorded per call in :attr:`SweepRunner.last_stats` so
benchmarks can track trials/sec.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from ..core.calibration import CalibrationError, RocPoint, roc_curve
from .experiments import (
    BatchResult,
    ExperimentConfig,
    ExperimentError,
    LRUCache,
    TrialOutcome,
    run_trial,
)

__all__ = [
    "SweepError",
    "SweepStats",
    "SweepTask",
    "SweepRunner",
]


class SweepError(RuntimeError):
    """Raised for malformed sweep requests."""


@dataclass(frozen=True)
class SweepTask:
    """One trial of a sweep grid: a pure, picklable work unit."""

    config: ExperimentConfig
    injected: bool
    base_seed: int = 0
    trial: int = 0


@dataclass(frozen=True)
class SweepStats:
    """Throughput of the most recent runner call.

    ``busy_s`` (only measured on instrumented runs, else 0) is the sum
    of per-trial wall times across all workers; ``utilization`` divides
    it by the pool's total capacity ``jobs * elapsed_s`` — the fraction
    of worker-seconds spent inside trials rather than on pickling,
    scheduling, or idling at the tail of the task list.
    """

    n_trials: int
    elapsed_s: float
    jobs: int
    busy_s: float = 0.0

    @property
    def trials_per_sec(self) -> float:
        return self.n_trials / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    @property
    def utilization(self) -> float:
        capacity = self.jobs * self.elapsed_s
        return self.busy_s / capacity if capacity > 0 else 0.0


#: How many predictor baselines one process keeps.  With pre-existing
#: faults every trial has its own known network state, hence its own
#: baseline (an r256 one is several MiB); a trial's fault and healthy
#: runs are dispatched back to back, so a few entries keep every pair's
#: hit.
_BASELINE_CACHE_SIZE = 8

#: Per-process predictor-baseline cache.  Plain module state: every
#: worker process (and the parent, for ``jobs=1``) keeps its own copy,
#: so no cross-process synchronisation is needed and cached entries are
#: reused across the tasks a worker handles.
_BASELINE_CACHE = LRUCache(_BASELINE_CACHE_SIZE)


def _run_task(task: SweepTask) -> TrialOutcome:
    """Worker entry point: run one trial with baseline caching."""
    return run_trial(
        task.config,
        injected=task.injected,
        base_seed=task.base_seed,
        trial=task.trial,
        predictor_cache=_BASELINE_CACHE,
    )


def _run_task_timed(task: SweepTask) -> tuple[TrialOutcome, float]:
    """Instrumented worker: ``(outcome, trial_wall_seconds)``.

    The wall time is measured inside the worker process and shipped
    back with the result — a cross-process telemetry session cannot
    observe it, and the parent needs it for worker-utilization
    accounting.  The trial itself is byte-for-byte :func:`_run_task`.
    """
    started = time.perf_counter()
    outcome = _run_task(task)
    return outcome, time.perf_counter() - started


@dataclass
class SweepRunner:
    """Fans trial grids out over a process pool, deterministically.

    ``jobs=1`` (the default) runs inline in the calling process —
    no pool, no pickling.  ``jobs=N`` uses a ``multiprocessing`` pool of
    ``N`` workers; ``jobs=0`` means one worker per CPU.  Results are
    identical in all cases.

    ``telemetry`` (a duck-typed session, see
    :mod:`repro.telemetry.session`) and ``progress`` (a callable
    ``progress(done, total, elapsed_s)`` invoked after every finished
    trial) switch the runner onto its instrumented path: workers time
    each trial and results stream back in task order through ``imap``.
    Both are pure observation — the trials executed, their seeds, and
    their outcomes are bit-identical to the uninstrumented run.
    """

    jobs: int = 1
    chunksize: int | None = None
    telemetry: Any = field(default=None, compare=False)
    progress: Any = field(default=None, compare=False)
    last_stats: SweepStats | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise SweepError("jobs cannot be negative")
        if self.jobs == 0:
            self.jobs = os.cpu_count() or 1

    @property
    def _instrumented(self) -> bool:
        return self.telemetry is not None or self.progress is not None

    # ------------------------------------------------------------------
    def run_tasks(self, tasks: Sequence[SweepTask]) -> list[TrialOutcome]:
        """Run a task list; returns outcomes in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        started = time.perf_counter()
        if self.jobs == 1:
            if self._instrumented:
                outcomes = []
                busy = 0.0
                for index, t in enumerate(tasks):
                    outcome, trial_wall = _run_task_timed(t)
                    busy += trial_wall
                    outcomes.append(outcome)
                    self._observe_trial(
                        index, len(tasks), t, outcome, trial_wall, started
                    )
            else:
                busy = 0.0
                outcomes = [_run_task(t) for t in tasks]
        else:
            chunksize = self.chunksize or max(
                1, len(tasks) // (4 * self.jobs) or 1
            )
            with multiprocessing.Pool(processes=self.jobs) as pool:
                if self._instrumented:
                    outcomes = []
                    busy = 0.0
                    for index, (outcome, trial_wall) in enumerate(
                        pool.imap(_run_task_timed, tasks, chunksize=chunksize)
                    ):
                        busy += trial_wall
                        outcomes.append(outcome)
                        self._observe_trial(
                            index, len(tasks), tasks[index], outcome,
                            trial_wall, started,
                        )
                else:
                    busy = 0.0
                    outcomes = pool.map(_run_task, tasks, chunksize=chunksize)
        elapsed = time.perf_counter() - started
        self.last_stats = SweepStats(
            n_trials=len(tasks), elapsed_s=elapsed, jobs=self.jobs, busy_s=busy
        )
        if self.telemetry is not None:
            stats = self.last_stats
            self.telemetry.emit(
                "sweep.run",
                n_trials=stats.n_trials,
                elapsed_s=stats.elapsed_s,
                jobs=stats.jobs,
                trials_per_sec=stats.trials_per_sec,
                busy_s=stats.busy_s,
                worker_utilization=stats.utilization,
            )
            self.telemetry.counter("sweep.runs").inc()
            self.telemetry.counter("sweep.trials").inc(stats.n_trials)
            self.telemetry.gauge("sweep.jobs").set(stats.jobs)
        return outcomes

    # ------------------------------------------------------------------
    def map(self, fn, items: Sequence) -> list:
        """Generic fan-out: apply ``fn`` to every item, in item order.

        The escape hatch for work units that are not
        :class:`SweepTask` trials (the gray-failure study's cells, for
        one).  ``fn`` must be a module-level callable and every item
        picklable when ``jobs > 1``; determinism is the caller's
        contract — ``fn`` must derive all randomness from the item.
        Throughput lands in :attr:`last_stats` like any other run.
        """
        items = list(items)
        if not items:
            return []
        started = time.perf_counter()
        if self.jobs == 1:
            results = [fn(item) for item in items]
        else:
            chunksize = self.chunksize or 1
            with multiprocessing.Pool(processes=self.jobs) as pool:
                results = pool.map(fn, items, chunksize=chunksize)
        elapsed = time.perf_counter() - started
        self.last_stats = SweepStats(
            n_trials=len(items), elapsed_s=elapsed, jobs=self.jobs
        )
        if self.telemetry is not None:
            self.telemetry.emit(
                "sweep.map",
                n_items=len(items),
                elapsed_s=elapsed,
                jobs=self.jobs,
            )
        return results

    # ------------------------------------------------------------------
    def _observe_trial(
        self,
        index: int,
        total: int,
        task: SweepTask,
        outcome: TrialOutcome,
        trial_wall: float,
        run_started: float,
    ) -> None:
        """Report one finished trial (instrumented path only)."""
        if self.telemetry is not None:
            self.telemetry.emit(
                "sweep.trial",
                index=index,
                trial=task.trial,
                injected=task.injected,
                wall_s=trial_wall,
                score=outcome.score,
                triggered=outcome.triggered,
            )
            self.telemetry.histogram("sweep.trial_wall_s").observe(trial_wall)
        if self.progress is not None:
            self.progress(index + 1, total, time.perf_counter() - run_started)

    # ------------------------------------------------------------------
    def run_batch(
        self,
        config: ExperimentConfig,
        n_trials: int = 20,
        base_seed: int = 0,
    ) -> BatchResult:
        """``n_trials`` fault trials plus ``n_trials`` healthy trials.

        Trial-for-trial identical to
        :func:`repro.analysis.experiments.run_batch`.
        """
        if n_trials < 1:
            raise ExperimentError("need at least one trial")
        return _batch_result(config, self.run_tasks(_batch_tasks(config, n_trials, base_seed)))

    def sweep(
        self,
        config: ExperimentConfig,
        parameter: str,
        values: Iterable,
        n_trials: int = 20,
        base_seed: int = 0,
    ) -> dict:
        """A batch per value of one config parameter, as one flat grid.

        Returns ``{value: BatchResult}`` in the given value order; every
        batch matches what :meth:`run_batch` (and the serial
        ``experiments.sweep``) would produce for that value.  Values
        key the result, so duplicates are a :class:`SweepError`.  All
        ``2 * n_trials * len(values)`` trials are dispatched to the pool
        together, so workers stay busy across value boundaries.
        """
        values = list(values)
        if not values:
            raise SweepError("need at least one parameter value")
        if len(set(values)) != len(values):
            raise SweepError(f"duplicate {parameter} values: {values}")
        if n_trials < 1:
            raise ExperimentError("need at least one trial")
        configs = [replace(config, **{parameter: value}) for value in values]
        tasks = [
            task for step in configs for task in _batch_tasks(step, n_trials, base_seed)
        ]
        outcomes = self.run_tasks(tasks)
        per_value = 2 * n_trials
        return {
            value: _batch_result(step, outcomes[idx * per_value : (idx + 1) * per_value])
            for idx, (value, step) in enumerate(zip(values, configs))
        }


    def roc(
        self,
        config: ExperimentConfig,
        drop_rates: Iterable[float],
        thresholds: Sequence[float],
        n_trials: int = 20,
        base_seed: int = 0,
    ) -> list[tuple[BatchResult, list[RocPoint]]]:
        """The Fig. 5(a) grid: one ROC curve per drop rate.

        Healthy trials do not depend on the fault, so ``n_trials`` of
        them run once, first, at ``config``; each drop rate's
        ``n_trials`` fault trials follow in the same task list.  Returns
        a ``(batch, curve)`` pair per drop rate, in the given order:
        every batch carries the shared negatives, and its curve is
        :func:`~repro.core.calibration.roc_curve` at ``thresholds``.
        Bad input raises before any trial runs.
        """
        if n_trials < 1:
            raise ExperimentError("need at least one trial")
        if any(threshold <= 0 for threshold in thresholds):
            raise CalibrationError("thresholds must be positive")
        steps = [replace(config, drop_rate=drop) for drop in drop_rates]
        tasks = [SweepTask(config, False, base_seed, t) for t in range(n_trials)]
        tasks += [SweepTask(step, True, base_seed, t) for step in steps for t in range(n_trials)]
        outcomes = self.run_tasks(tasks)
        negatives = tuple(outcomes[:n_trials])
        grid = []
        for index, step in enumerate(steps, start=1):
            positives = tuple(outcomes[index * n_trials : (index + 1) * n_trials])
            batch = BatchResult(config=step, positives=positives, negatives=negatives)
            grid.append(
                (batch, roc_curve(batch.positive_scores, batch.negative_scores, thresholds))
            )
        return grid

def _batch_tasks(config: ExperimentConfig, n_trials: int, base_seed: int) -> list[SweepTask]:
    """A batch's tasks, each trial's fault run directly followed by its
    healthy run: the two share the trial's known network state, so the
    second finds the predictor baseline the first cached."""
    return [
        SweepTask(config=config, injected=injected, base_seed=base_seed, trial=t)
        for t in range(n_trials)
        for injected in (True, False)
    ]


def _batch_result(config: ExperimentConfig, outcomes: list[TrialOutcome]) -> BatchResult:
    """Outcomes of :func:`_batch_tasks`, split back by polarity."""
    return BatchResult(
        config=config, positives=tuple(outcomes[0::2]), negatives=tuple(outcomes[1::2])
    )
