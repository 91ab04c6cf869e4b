"""`repro roc` is the Fig. 5(a) ROC: same grid, same table, same exits."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.analysis import format_percent
from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

SMALL = ["--leaves", "8", "--spines", "4", "--collective-gib", "1"]


def _fig5a():
    """The Fig. 5(a) benchmark module (``benchmarks/`` is no package)."""
    spec = importlib.util.spec_from_file_location(
        "fig5a_roc", ROOT / "benchmarks" / "test_fig5a_roc.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_roc_table_is_pinned(capsys):
    code = main(
        ["roc", *SMALL, "--trials", "3", "--drop-rates", "0.02", "--thresholds", "0.01"]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "ROC (3+3 trials per drop rate)\n"
        "drop rate  threshold  FPR   TPR   \n"
        "---------  ---------  ----  ------\n"
        "2.0%       1.00%      0.0%  100.0%\n"
    )


def test_roc_prints_the_figure_rows(capsys, monkeypatch):
    """The CLI's defaults and flags build the benchmark's grid: at its
    seed, `repro roc` prints the rows Fig. 5(a) tabulates."""
    fig5a = _fig5a()
    drops, thresholds = (0.005, 0.015), (0.005, 0.010)
    monkeypatch.setattr(fig5a, "N_TRIALS", 2)
    monkeypatch.setattr(fig5a, "DROP_RATES", drops)
    monkeypatch.setattr(fig5a, "THRESHOLDS", thresholds)
    monkeypatch.setattr(fig5a, "JOBS", 1)
    curves, _negatives, _stats = fig5a.experiment()
    expected = [
        [
            format_percent(drop, 1),
            format_percent(point.threshold, 2),
            format_percent(point.fpr, 1),
            format_percent(point.tpr, 1),
        ]
        for drop, points in curves.items()
        for point in points
    ]
    code = main(
        [
            "roc",
            "--trials", "2",
            "--seed", "100",
            "--drop-rates", *map(str, drops),
            "--thresholds", *map(str, thresholds),
        ]
    )
    assert code == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[3:]]
    assert rows == expected


@pytest.mark.parametrize(
    "flags",
    [["--trials", "0"], ["--thresholds", "0"]],
    ids=["zero-trials", "zero-threshold"],
)
def test_roc_bad_input_exits_two_before_any_trial(capsys, flags):
    code = main(["roc", *SMALL, "--trials", "2", "--progress", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
