"""Trial runner for the paper's evaluation (§6).

A trial reproduces one monitored training run on the fast simulator:
build the fabric (optionally with pre-existing known faults), derive
the ring collective's demand, construct the chosen load predictor from
the *known* network state, then simulate iterations — with or without
an injected silent fault — and monitor them with FlowPulse.

All randomness derives from (base_seed, trial_index, injected?) via
``numpy.random.SeedSequence``, so every figure is exactly reproducible.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from ..collectives.demand import DemandMatrix
from ..collectives.ring import locality_optimized_ring, ring_demand
from ..core.detection import DetectionConfig
from ..core.monitor import FlowPulseMonitor, RunVerdict, score_for_roc
from ..core.prediction import (
    AnalyticalPredictor,
    LearnedPredictor,
    LoadPredictor,
    SimulationPredictor,
)
from ..fastsim.model import FabricModel, run_segments
from ..units import GIB
from ..topology.fattree import random_preexisting_faults
from ..topology.graph import ClosSpec, down_link, up_link


class ExperimentError(RuntimeError):
    """Raised for inconsistent experiment configurations."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one evaluation condition.

    Defaults match the paper's setup: a 32-leaf / 16-spine non-blocking
    fat tree, one host per leaf, a 31-stage ring collective, a 1 %
    detection threshold, and a silent drop fault on a single leaf-spine
    link.
    """

    n_leaves: int = 32
    n_spines: int = 16
    collective_bytes: int = 8 * GIB
    allreduce: bool = False  # False = the paper's (N-1)-stage ring pass
    mtu: int = 1024
    spraying: str = "random"
    threshold: float = 0.01
    drop_rate: float = 0.015
    fault_direction: str = "down"  # which side of the leaf-spine cable fails
    n_preexisting: int = 0
    known_gray: dict[str, float] = field(default_factory=dict)
    predictor: str = "analytical"  # analytical | simulation | learned
    warmup_iterations: int = 3  # learned predictor only
    n_iterations: int = 5
    fault_start_iteration: int = 0
    job_id: int = 1

    def __post_init__(self) -> None:
        if self.fault_direction not in ("down", "up"):
            raise ExperimentError("fault_direction must be 'down' or 'up'")
        if self.predictor not in ("analytical", "simulation", "learned"):
            raise ExperimentError(f"unknown predictor {self.predictor!r}")
        if not 0.0 < self.drop_rate <= 1.0:
            raise ExperimentError("drop_rate must be in (0, 1]")
        if self.n_iterations < 1:
            raise ExperimentError("need at least one iteration")
        if self.predictor == "learned":
            detectable = self.n_iterations - self.warmup_iterations - 1
            if detectable < 1:
                raise ExperimentError(
                    "learned predictor leaves no monitored iterations: "
                    "raise n_iterations or lower warmup_iterations"
                )

    def spec(self) -> ClosSpec:
        return ClosSpec(
            n_leaves=self.n_leaves, n_spines=self.n_spines, hosts_per_leaf=1
        )


@dataclass(frozen=True)
class TrialSetup:
    """Everything needed to run one trial."""

    config: ExperimentConfig
    model: FabricModel  # known network state (no silent faults)
    demand: DemandMatrix
    fault_link: str  # where the silent fault goes if injected


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one monitored run."""

    injected: bool
    score: float  # worst observed |deviation| (ROC score)
    triggered: bool  # alarm at the config threshold
    fault_link: str
    suspected_links: frozenset[str]
    first_detection_iteration: int | None

    @property
    def localized_correctly(self) -> bool:
        """The injected fault's cable is among the suspects.

        Both directions of a cable count: a leaf observing a deficit
        cannot tell which direction of the *remote* cable dropped the
        packets, so suspicion of either direction is a correct
        localization at cable granularity.
        """
        if not self.injected:
            return False
        return any(
            _same_cable(link, self.fault_link) for link in self.suspected_links
        )


def _same_cable(a: str, b: str) -> bool:
    from ..topology.graph import parse_fabric_link

    _dir_a, leaf_a, spine_a = parse_fabric_link(a)
    _dir_b, leaf_b, spine_b = parse_fabric_link(b)
    return (leaf_a, spine_a) == (leaf_b, spine_b)


# ----------------------------------------------------------------------
# Trial construction
# ----------------------------------------------------------------------
def _trial_rng(base_seed: int, trial: int, injected: bool) -> np.random.SeedSequence:
    return np.random.SeedSequence([base_seed, trial, int(injected)])


class LRUCache(OrderedDict):
    """Least-recently-used dict of at most ``maxsize`` entries, behind the
    ``get`` / item assignment its users call."""

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize

    def get(self, key, default=None):
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > self.maxsize:
            self.popitem(last=False)


#: How many demand matrices one process keeps.  A sweep or a fleet
#: shard uses a handful of collective sizes at a time; a long-lived
#: worker that sees many must not keep every one alive.
_DEMAND_CACHE_SIZE = 8

#: Ring-demand matrices are pure functions of (n_hosts, bytes, allreduce)
#: and are never mutated after construction, so trials sharing a config
#: can share one instance instead of rebuilding it per trial.
_DEMAND_CACHE = LRUCache(_DEMAND_CACHE_SIZE)


def demand_for(config: ExperimentConfig) -> DemandMatrix:
    """The (cached) ring-collective demand matrix for a configuration."""
    key = (config.spec().n_hosts, config.collective_bytes, config.allreduce)
    demand = _DEMAND_CACHE.get(key)
    if demand is None:
        ring = locality_optimized_ring(key[0])
        demand = ring_demand(ring, config.collective_bytes, allreduce=config.allreduce)
        _DEMAND_CACHE[key] = demand
    return demand


def build_trial(
    config: ExperimentConfig, base_seed: int = 0, trial: int = 0
) -> TrialSetup:
    """Construct the fabric model, demand, and fault location."""
    spec = config.spec()
    seq = _trial_rng(base_seed, trial, False)
    build_seed, _sim_seed = seq.spawn(2)
    rng = np.random.Generator(np.random.PCG64(build_seed))

    # Place the candidate new fault on a random leaf-spine cable, then
    # scatter pre-existing faults elsewhere.
    fault_leaf = int(rng.integers(spec.n_leaves))
    fault_spine = int(rng.integers(spec.n_spines))
    if config.fault_direction == "down":
        fault_link = down_link(fault_spine, fault_leaf)
    else:
        fault_link = up_link(fault_leaf, fault_spine)
    protect = frozenset(
        {up_link(fault_leaf, fault_spine), down_link(fault_spine, fault_leaf)}
    )
    disabled = (
        random_preexisting_faults(spec, config.n_preexisting, rng, protect=protect)
        if config.n_preexisting
        else frozenset()
    )

    model = FabricModel(
        spec=spec,
        known_disabled=disabled,
        known_gray=dict(config.known_gray),
        spraying=config.spraying,
        mtu=config.mtu,
    )
    demand = demand_for(config)
    return TrialSetup(config=config, model=model, demand=demand, fault_link=fault_link)


def make_predictor(
    config: ExperimentConfig, setup: TrialSetup, seed: int = 0
) -> LoadPredictor:
    """Build the configured load predictor from the known state."""
    if config.predictor == "analytical":
        return AnalyticalPredictor(
            setup.model.spec, setup.demand, known_disabled=setup.model.known_disabled
        )
    if config.predictor == "simulation":
        return SimulationPredictor(setup.model, setup.demand, backend="expected")
    return LearnedPredictor(
        warmup_iterations=config.warmup_iterations,
        deviation_trigger=config.threshold,
    )


def predictor_baseline_key(
    config: ExperimentConfig, setup: TrialSetup
) -> tuple | None:
    """Cache key under which a trial's predictor baseline may be shared.

    The analytical and simulation predictors are pure functions of the
    *known* network state (fabric shape, demand, disabled links, gray
    rates) — never of the silent fault or the trial index — so trials
    sharing that state can reuse one prediction instead of recomputing
    :func:`~repro.fastsim.model.expected_iteration` per trial.  The
    learned predictor is stateful (it trains on the trial's own
    records), so it returns ``None``: never cached.
    """
    if config.predictor == "learned":
        return None
    return (
        config.predictor,
        config.n_leaves,
        config.n_spines,
        config.collective_bytes,
        config.allreduce,
        config.mtu,
        config.spraying,
        tuple(sorted(config.known_gray.items())),
        setup.model.known_disabled,
    )


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------
def run_trial_with_verdict(
    config: ExperimentConfig,
    injected: bool,
    base_seed: int = 0,
    trial: int = 0,
    predictor_cache: dict | None = None,
    telemetry=None,
) -> tuple[TrialOutcome, RunVerdict]:
    """Run one monitored training run; returns the outcome plus the full
    per-iteration verdict (for reports and drill-down).

    ``predictor_cache`` (a plain dict owned by the caller, e.g. the
    sweep runner) shares stateless predictor baselines between trials
    with the same known network state; passing one cannot change any
    result, only skip recomputation.

    ``telemetry`` (duck-typed session) hands the monitor an audit
    trail sink — every iteration's observed-vs-predicted table, alarms,
    and localization verdicts are emitted as ``audit.*`` events (see
    :mod:`repro.telemetry.audit`).  Observation only; verdicts are
    bit-identical with or without it.
    """
    setup = build_trial(config, base_seed=base_seed, trial=trial)
    seq = _trial_rng(base_seed, trial, injected)
    _build_seed, sim_seed = seq.spawn(2)

    def fault_schedule(iteration: int) -> dict[str, float]:
        if injected and iteration >= config.fault_start_iteration:
            return {setup.fault_link: config.drop_rate}
        return {}

    segments = run_segments(
        setup.model,
        setup.demand,
        config.n_iterations,
        seed=int(sim_seed.generate_state(1)[0]),
        job_id=config.job_id,
        fault_schedule=fault_schedule,
    )
    predictor = None
    cache_key = None
    if predictor_cache is not None:
        cache_key = predictor_baseline_key(config, setup)
        if cache_key is not None:
            predictor = predictor_cache.get(cache_key)
    if predictor is None:
        predictor = make_predictor(config, setup)
        if cache_key is not None:
            predictor_cache[cache_key] = predictor
    monitor = FlowPulseMonitor(
        predictor, DetectionConfig(threshold=config.threshold), telemetry=telemetry
    )
    verdict = monitor.process_run(segments)
    return _outcome(verdict, setup, injected), verdict


def run_trial(
    config: ExperimentConfig,
    injected: bool,
    base_seed: int = 0,
    trial: int = 0,
    predictor_cache: dict | None = None,
) -> TrialOutcome:
    """Run one monitored training run and return its outcome."""
    outcome, _verdict = run_trial_with_verdict(
        config,
        injected,
        base_seed=base_seed,
        trial=trial,
        predictor_cache=predictor_cache,
    )
    return outcome


def _outcome(verdict: RunVerdict, setup: TrialSetup, injected: bool) -> TrialOutcome:
    return TrialOutcome(
        injected=injected,
        score=score_for_roc(verdict),
        triggered=verdict.triggered,
        fault_link=setup.fault_link,
        suspected_links=verdict.suspected_links(),
        first_detection_iteration=verdict.first_detection_iteration,
    )


@dataclass(frozen=True)
class BatchResult:
    """Scores and outcomes of a positive+negative trial batch."""

    config: ExperimentConfig
    positives: tuple[TrialOutcome, ...]
    negatives: tuple[TrialOutcome, ...]

    @property
    def positive_scores(self) -> list[float]:
        return [t.score for t in self.positives]

    @property
    def negative_scores(self) -> list[float]:
        return [t.score for t in self.negatives]

    def confusion(self, threshold: float | None = None):
        from .metrics import confusion_from_scores

        return confusion_from_scores(
            self.positive_scores,
            self.negative_scores,
            threshold if threshold is not None else self.config.threshold,
        )

    @property
    def localization_rate(self) -> float:
        """Fraction of detected faults whose cable was correctly named."""
        detected = [t for t in self.positives if t.triggered]
        if not detected:
            return 0.0
        return sum(t.localized_correctly for t in detected) / len(detected)


def run_batch(
    config: ExperimentConfig,
    n_trials: int = 20,
    base_seed: int = 0,
) -> BatchResult:
    """Run ``n_trials`` fault trials and ``n_trials`` healthy trials."""
    if n_trials < 1:
        raise ExperimentError("need at least one trial")
    positives = tuple(
        run_trial(config, injected=True, base_seed=base_seed, trial=t)
        for t in range(n_trials)
    )
    negatives = tuple(
        run_trial(config, injected=False, base_seed=base_seed, trial=t)
        for t in range(n_trials)
    )
    return BatchResult(config=config, positives=positives, negatives=negatives)


def sweep(
    config: ExperimentConfig,
    parameter: str,
    values,
    n_trials: int = 20,
    base_seed: int = 0,
) -> dict:
    """Run a batch per value of one config parameter.

    Returns ``{value: BatchResult}`` in the given value order.  Results
    are keyed by value, so a repeated value is rejected rather than run
    twice and reported once.
    """
    values = list(values)
    if len(set(values)) != len(values):
        raise ExperimentError(f"duplicate {parameter} values: {values}")
    results = {}
    for value in values:
        step = replace(config, **{parameter: value})
        results[value] = run_batch(step, n_trials=n_trials, base_seed=base_seed)
    return results
