"""Tests for the trial runner."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import (
    ExperimentConfig,
    ExperimentError,
    build_trial,
    make_predictor,
    run_batch,
    run_trial,
    sweep,
)
from repro.topology import parse_fabric_link
from repro.units import MIB


# Small-but-clean config: 8 leaves x 4 spines.  The collective is large
# enough that spray noise (~sqrt(s/n)) sits near 0.25 %, well under the
# 1 % threshold even across 32 ports x 3 iterations of negative trials.
FAST = dict(
    n_leaves=8,
    n_spines=4,
    collective_bytes=512 * MIB,
    mtu=1024,
    n_iterations=3,
)


def cfg(**kwargs):
    params = dict(FAST)
    params.update(kwargs)
    return ExperimentConfig(**params)


def test_config_validation():
    with pytest.raises(ExperimentError):
        cfg(fault_direction="sideways")
    with pytest.raises(ExperimentError):
        cfg(predictor="oracle")
    with pytest.raises(ExperimentError):
        cfg(drop_rate=0.0)
    with pytest.raises(ExperimentError):
        cfg(n_iterations=0)
    with pytest.raises(ExperimentError):
        cfg(predictor="learned", n_iterations=3, warmup_iterations=3)


def test_build_trial_places_fault_on_fabric_link():
    setup = build_trial(cfg(), base_seed=1, trial=0)
    direction, leaf, spine = parse_fabric_link(setup.fault_link)
    assert direction == "down"
    assert 0 <= leaf < 8 and 0 <= spine < 4


def test_build_trial_up_direction():
    setup = build_trial(cfg(fault_direction="up"), base_seed=1, trial=0)
    assert setup.fault_link.startswith("up:")


def test_build_trial_protects_fault_link_from_preexisting():
    config = cfg(n_preexisting=4)
    for trial in range(5):
        setup = build_trial(config, base_seed=2, trial=trial)
        assert setup.fault_link not in setup.model.known_disabled


def test_trials_deterministic():
    a = run_trial(cfg(), injected=True, base_seed=3, trial=1)
    b = run_trial(cfg(), injected=True, base_seed=3, trial=1)
    assert a == b


def test_trials_vary_across_indices():
    a = run_trial(cfg(), injected=False, base_seed=3, trial=1)
    b = run_trial(cfg(), injected=False, base_seed=3, trial=2)
    assert a.score != b.score


def test_positive_trial_detected_and_localized():
    outcome = run_trial(cfg(drop_rate=0.05), injected=True, base_seed=4, trial=0)
    assert outcome.triggered
    assert outcome.score > 0.01
    assert outcome.localized_correctly
    assert outcome.first_detection_iteration == 0


def test_negative_trial_quiet():
    outcome = run_trial(cfg(), injected=False, base_seed=4, trial=0)
    assert not outcome.triggered
    assert not outcome.localized_correctly


def test_up_direction_fault_detected():
    outcome = run_trial(
        cfg(drop_rate=0.05, fault_direction="up"), injected=True, base_seed=5, trial=0
    )
    assert outcome.triggered
    assert outcome.localized_correctly


def test_batch_confusion_perfect_at_high_drop():
    batch = run_batch(cfg(drop_rate=0.05), n_trials=5, base_seed=6)
    confusion = batch.confusion()
    assert confusion.perfect
    assert batch.localization_rate == 1.0


def test_batch_scores_exposed():
    batch = run_batch(cfg(drop_rate=0.05), n_trials=3, base_seed=7)
    assert len(batch.positive_scores) == 3
    assert len(batch.negative_scores) == 3
    assert min(batch.positive_scores) > max(batch.negative_scores)


def test_batch_validation():
    with pytest.raises(ExperimentError):
        run_batch(cfg(), n_trials=0)


def test_sweep_runs_each_value():
    results = sweep(cfg(), "drop_rate", [0.03, 0.06], n_trials=2, base_seed=8)
    assert set(results) == {0.03, 0.06}
    for batch in results.values():
        assert len(batch.positives) == 2


def test_simulation_predictor_trial():
    outcome = run_trial(
        cfg(predictor="simulation", drop_rate=0.05), injected=True, base_seed=9, trial=0
    )
    assert outcome.triggered


def test_learned_predictor_trial_detects_mid_run_fault():
    config = cfg(
        predictor="learned",
        warmup_iterations=2,
        n_iterations=6,
        fault_start_iteration=4,
        drop_rate=0.05,
    )
    outcome = run_trial(config, injected=True, base_seed=10, trial=0)
    assert outcome.triggered
    assert outcome.first_detection_iteration >= 4


def test_preexisting_faults_do_not_break_detection():
    config = cfg(n_preexisting=3, drop_rate=0.05)
    pos = run_trial(config, injected=True, base_seed=11, trial=0)
    neg = run_trial(config, injected=False, base_seed=11, trial=0)
    assert pos.triggered
    assert not neg.triggered


def test_config_is_frozen():
    config = cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.drop_rate = 0.5


def test_demand_cache_stays_bounded_and_returns_the_same_demands():
    """A long-lived process that builds trials for more collective sizes
    than the cache holds keeps only the most recent ones, and an evicted
    size rebuilds to the same matrix."""
    from repro.analysis import experiments
    from repro.collectives import locality_optimized_ring, ring_demand

    experiments._DEMAND_CACHE.clear()
    bound = experiments._DEMAND_CACHE_SIZE
    configs = [cfg(collective_bytes=(64 + size) * MIB) for size in range(bound + 5)]
    first = [experiments.demand_for(config) for config in configs]
    assert len(experiments._DEMAND_CACHE) == bound
    # The oldest sizes were evicted; the newest are still shared.
    assert experiments.demand_for(configs[-1]) is first[-1]
    again = experiments.demand_for(configs[0])
    assert again is not first[0]
    assert len(experiments._DEMAND_CACHE) == bound
    for config, demand in zip(configs, first):
        direct = ring_demand(
            locality_optimized_ring(config.spec().n_hosts),
            config.collective_bytes,
            allreduce=config.allreduce,
        )
        assert demand.leaf_pairs(config.spec()) == direct.leaf_pairs(config.spec())
    assert again.leaf_pairs(configs[0].spec()) == first[0].leaf_pairs(configs[0].spec())


def test_lru_cache_evicts_the_least_recently_used_entry():
    from repro.analysis.experiments import LRUCache

    cache = LRUCache(2)
    cache["a"], cache["b"] = 1, 2
    assert cache.get("a") == 1  # "a" is now the most recent
    cache["c"] = 3
    assert list(cache) == ["a", "c"]
    assert cache.get("b") is None and cache.get("b", 0) == 0
