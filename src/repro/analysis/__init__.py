"""Experiment runner, metrics, and report formatting."""

from .closed_loop import run_closed_loop, run_fastsim_loop
from .experiments import (
    BatchResult,
    ExperimentConfig,
    ExperimentError,
    TrialOutcome,
    TrialSetup,
    build_trial,
    make_predictor,
    run_batch,
    run_trial,
    sweep,
)
from .export import ExportError, ResultsWriter, maybe_export, results_writer
from .metrics import ConfusionCounts, MetricsError, confusion_from_scores
from .report import CableEvidence, incident_report, rank_cables
from .reporting import banner, format_percent, format_series, format_table
from .sweeps import SweepError, SweepRunner, SweepStats, SweepTask

__all__ = [
    "BatchResult",
    "CableEvidence",
    "incident_report",
    "rank_cables",
    "run_closed_loop",
    "run_fastsim_loop",
    "ConfusionCounts",
    "ExportError",
    "ResultsWriter",
    "maybe_export",
    "results_writer",
    "ExperimentConfig",
    "ExperimentError",
    "MetricsError",
    "TrialOutcome",
    "TrialSetup",
    "banner",
    "build_trial",
    "confusion_from_scores",
    "format_percent",
    "format_series",
    "format_table",
    "make_predictor",
    "run_batch",
    "run_trial",
    "sweep",
    "SweepError",
    "SweepRunner",
    "SweepStats",
    "SweepTask",
]
