"""Fig. 5(a) — ROC for different per-link packet drop rates.

Paper: sweeping the detection threshold for faults of various drop
rates, a 1 % threshold is a *perfect* classifier for drop rates
>= 1.5 %; lower drop rates degrade the classifier.

Here: the same sweep on the default 32x16 fabric, 31-stage ring
collective, analytical predictor, reporting FPR/TPR per (threshold,
drop rate).  Absolute crossover depends on the noise floor of per-packet
spraying, which our model reproduces: deficit ~ p(1-1/s) against
multinomial noise ~ sqrt(s/n).
"""

from __future__ import annotations

import os

from repro.analysis import (
    ExperimentConfig,
    SweepRunner,
    format_percent,
    format_table,
)
from repro.units import GIB

DROP_RATES = (0.005, 0.008, 0.010, 0.015, 0.020, 0.030)
THRESHOLDS = (0.0025, 0.005, 0.0075, 0.010, 0.015, 0.020)
N_TRIALS = 12
JOBS = int(os.environ.get("REPRO_JOBS", "1"))
BASE = dict(
    n_leaves=32,
    n_spines=16,
    collective_bytes=8 * GIB,
    mtu=1024,
    n_iterations=5,
)


def experiment():
    # The one ROC grid (shared with `repro roc`): negative trials are
    # fault-independent, so they run once and score every rate's curve.
    runner = SweepRunner(jobs=JOBS)
    grid = runner.roc(
        ExperimentConfig(**BASE), DROP_RATES, THRESHOLDS, n_trials=N_TRIALS, base_seed=100
    )
    curves = {batch.config.drop_rate: points for batch, points in grid}
    return curves, grid[0][0].negative_scores, runner.last_stats


def test_fig5a_roc(run_once):
    curves, negative_scores, stats = run_once(experiment)

    print()
    rows = []
    for drop, points in curves.items():
        for point in points:
            rows.append(
                [
                    format_percent(drop, 1),
                    format_percent(point.threshold, 2),
                    format_percent(point.fpr, 1),
                    format_percent(point.tpr, 1),
                ]
            )
    print(
        format_table(
            ["drop rate", "threshold", "FPR", "TPR"],
            rows,
            title="Fig. 5(a): ROC per faulty-link drop rate "
            f"({N_TRIALS} fault + {N_TRIALS} healthy trials each)",
        )
    )
    from repro.analysis import maybe_export

    maybe_export(
        "fig5a_roc",
        ["drop_rate", "threshold", "fpr", "tpr"],
        [
            [drop, point.threshold, point.fpr, point.tpr]
            for drop, points in curves.items()
            for point in points
        ],
    )
    print(
        f"\nhealthy-run noise floor: max deviation "
        f"{format_percent(max(negative_scores))}"
    )
    print(
        f"sweep engine: {stats.n_trials} trials in {stats.elapsed_s:.2f}s "
        f"({stats.trials_per_sec:.1f} trials/sec, jobs={stats.jobs})"
    )

    def point(drop, threshold):
        return next(p for p in curves[drop] if p.threshold == threshold)

    # Paper shape 1: the 1% threshold is a perfect classifier for
    # drop rates >= 1.5%.
    for drop in (0.015, 0.020, 0.030):
        assert point(drop, 0.010).perfect, f"1% threshold not perfect at {drop}"

    # Paper shape 2: it stops being perfect for low drop rates.
    assert point(0.005, 0.010).tpr < 0.5

    # Paper shape 3: lowering the threshold buys TPR at the cost of FPR
    # (the ROC trade-off the figure sweeps).
    assert point(0.005, 0.0025).tpr > point(0.005, 0.010).tpr
    assert point(0.005, 0.0025).fpr > point(0.005, 0.010).fpr

    # The healthy noise floor sits below 1%, which is why the paper's
    # threshold avoids false positives.
    assert max(negative_scores) < 0.010
