"""Gray-failure study matrix: FP/latency sweep under a latency budget.

The study's acceptance is a *matrix* claim, not a point claim: across
every spray policy and congestion level, ``congested_healthy`` cells
must produce zero false positives (congestion alone is not a fault) and
``gray_conditional`` cells must detect every fault the policy actually
routed traffic into, within the latency budget.  This benchmark runs
the 24-cell (2 kinds x 4 policies x 3 congestion levels) matrix through
:func:`repro.greylab.run_greylab_study` — fanned out over
``SweepRunner`` when ``REPRO_JOBS`` allows — prints the study table
and its wall clock, and asserts the matrix-wide invariants.
"""

from __future__ import annotations

import os
import time

from repro.analysis import SweepRunner
from repro.greylab import StudyConfig, run_greylab_study

JOBS = int(os.environ.get("REPRO_JOBS", "1"))

#: ``cotenant`` cells cost ~4x the others and their cross-talk alarms
#: are reported as data, not asserted; the benchmark matrix sticks to
#: the two families with hard invariants.
CONFIG = StudyConfig(
    kinds=("congested_healthy", "gray_conditional"),
    seeds_per_cell=1,
)


def test_greylab_matrix_invariants_under_budget(run_once):
    runner = SweepRunner(jobs=JOBS)

    def experiment():
        started = time.perf_counter()
        study = run_greylab_study(CONFIG, runner=runner)
        return study, time.perf_counter() - started

    study, elapsed = run_once(experiment)

    header = f"{'kind':<20} {'spray':<12} {'congestion':<10} {'FP':>3} {'det':>4} {'missed':>7}"
    print()
    print(header)
    for row in study.rows():
        print(
            f"{row['kind']:<20} {row['spray']:<12} {row['congestion']:<10} "
            f"{row['false_positives']:>3} {row['detections']:>4} {row['missed']:>7}"
        )
    print(study.summary())
    print(f"wall clock: {elapsed:.1f} s ({JOBS} job(s))")

    cells = study.cells
    assert len(cells) == 24
    assert study.ok, study.summary()

    # Congestion is not a fault: zero alarms in every congested_healthy
    # cell, under every policy and every marking threshold.
    healthy = [c for c in cells if c.cell.kind == "congested_healthy"]
    assert len(healthy) == 12
    assert sum(c.false_positives for c in healthy) == 0
    assert sum(c.detections for c in healthy) == 0

    # Every demanded gray detection fired, within the latency budget
    # (study.ok already vetoed late ones).
    gray = [c for c in cells if c.cell.kind == "gray_conditional"]
    assert len(gray) == 12
    assert sum(c.missed for c in gray) == 0
    demanded = sum(c.demanded_detections for c in gray)
    assert sum(c.detections for c in gray) >= demanded > 0
