"""Chaos harness tests: seeded scenarios, invariants, determinism."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.scenarios import (
    ChaosConfig,
    check_invariants,
    generate_scenario,
    run_chaos_batch,
    run_scenario,
)
from repro.scenarios.chaos import KINDS

CHAOS = ChaosConfig()


def test_generation_is_deterministic_and_varied():
    first = [generate_scenario(seed, CHAOS) for seed in range(25)]
    second = [generate_scenario(seed, CHAOS) for seed in range(25)]
    for a, b in zip(first, second):
        assert a == b
    assert {s.kind for s in first} == set(KINDS)
    for scenario in first:
        assert 4 <= scenario.config.n_leaves <= 6
        assert 3 <= scenario.config.n_spines <= 4
        if scenario.kind != "healthy":
            assert scenario.fault_link is not None
            assert 1 <= scenario.fault_iteration <= 3


def test_chaos_batch_of_20_seeded_scenarios_holds_every_invariant():
    report = run_chaos_batch(ChaosConfig(n_scenarios=20, base_seed=0))
    assert len(report.outcomes) == 20
    assert report.ok, report.summary()


#: Literal outcome digests: tier-1's pin against a simnet change that
#: silently moves a chaos outcome (kind is asserted so a generator
#: change reads as such, not as a digest mismatch).
PINNED_DIGESTS = {
    1: (
        "persistent_drop",
        "64ae39ee37be8b713289ba83777e0bd836e164d558ed00775736bf510a054052",
    ),
    7: (
        "silent_disconnect",
        "366e9f59e8fb1b15178108a64ab592901db5f27fd6239874c210a35efc0acc4d",
    ),
}


def test_same_seed_reproduces_same_outcome_digest():
    for seed, (kind, digest) in PINNED_DIGESTS.items():
        scenario = generate_scenario(seed, CHAOS)
        assert scenario.kind == kind
        first = run_scenario(scenario, CHAOS)
        again = run_scenario(scenario, CHAOS)
        assert first.ok, first.violations
        assert first.digest == again.digest == digest


def test_invariant_checker_flags_missed_detection():
    # A healthy run rebadged as "should have been detected": the
    # checker must report the missing detection and remediation, not
    # silently pass.
    healthy = generate_scenario(2, CHAOS)
    assert healthy.kind == "healthy"
    rigged = replace(
        healthy,
        kind="persistent_drop",
        detectable=True,
        fault_iteration=1,
        fault_link="up:L0->S0",
    )
    outcome = run_scenario(rigged, CHAOS)
    assert any(v.startswith("detection:") for v in outcome.violations)
    assert any(v.startswith("recovery:") for v in outcome.violations)


def test_invariant_checker_flags_conservation_breach():
    from repro.scenarios import SimnetClosedLoopDriver

    scenario = generate_scenario(2, CHAOS)  # healthy, cheap
    driver = SimnetClosedLoopDriver(scenario.config)
    result = driver.run()
    assert check_invariants(scenario, result, driver, CHAOS) == []
    # Lose a packet from the books: conservation must trip.
    link = next(iter(driver.network.links.values()))
    link.tx_packets += 1
    violations = check_invariants(scenario, result, driver, CHAOS)
    assert any(v.startswith("conservation:") for v in violations)


def test_report_summary_names_failing_scenarios():
    scenario = generate_scenario(0, CHAOS)
    outcome = run_scenario(scenario, CHAOS)
    outcome.violations.append("detection: synthetic failure")
    from repro.scenarios import ChaosReport

    report = ChaosReport(config=CHAOS, outcomes=[outcome])
    summary = report.summary()
    assert "0/1 scenarios passed" in summary
    assert "synthetic failure" in summary


# ----------------------------------------------------------------------
# Kind selection
# ----------------------------------------------------------------------
def test_default_kind_selection_is_rng_driven_not_modular():
    kinds = [generate_scenario(seed, CHAOS).kind for seed in range(25)]
    assert kinds != [KINDS[seed % len(KINDS)] for seed in range(25)]
    assert set(kinds) == set(KINDS)


def test_kinds_filter_restricts_generation():
    config = ChaosConfig(kinds=("healthy", "transient"))
    kinds = {generate_scenario(seed, config).kind for seed in range(16)}
    assert kinds <= {"healthy", "transient"}
    assert len(kinds) == 2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ChaosConfig(kinds=("healthy", "blue_smoke"))


# ----------------------------------------------------------------------
# Greylab scenario kinds
# ----------------------------------------------------------------------
def test_congested_healthy_scenarios_force_the_congestion_layer():
    config = ChaosConfig(kinds=("congested_healthy",), fabric=(4, 3))
    for seed in range(6):
        scenario = generate_scenario(seed, config)
        assert scenario.kind == "congested_healthy"
        assert scenario.config.ecn_threshold_bytes in (4096, 8192, 16384)
        assert scenario.config.congestion is not None
        assert scenario.fault_link is None
        assert not scenario.detectable


def test_gray_conditional_scenarios_are_conditional_with_onset():
    config = ChaosConfig(kinds=("gray_conditional",), fabric=(4, 3))
    for seed in range(6):
        scenario = generate_scenario(seed, config)
        assert scenario.conditional
        assert scenario.fault_link is not None
        assert scenario.fault_iteration is not None
        assert scenario.iteration_faults
        # Onset leaves room for detection inside the run.
        assert scenario.fault_iteration < scenario.config.n_iterations - 1


def test_cotenant_scenarios_carry_background_jobs():
    config = ChaosConfig(kinds=("cotenant",), fabric=(4, 3))
    for seed in range(4):
        scenario = generate_scenario(seed, config)
        background = scenario.config.background_jobs
        assert background in (1, 2)
        assert scenario.config.hosts_per_leaf == 1 + background


def test_congested_healthy_batch_never_alarms():
    # The headline acceptance: congestion alone, with the right
    # per-policy calibration, must not produce asymmetry alarms.
    # The predictor is derived from the policy (ecmp -> learned).
    for spray, threshold in (
        ("round_robin", 0.05),
        ("random", 0.2),
        ("ecmp", 0.05),
    ):
        config = ChaosConfig(
            kinds=("congested_healthy",),
            fabric=(4, 3),
            spray=spray,
            threshold=threshold,
            collective_bytes=600_000,
            n_iterations=6,
            mtu=512,
        )
        for seed in range(2):
            outcome = run_scenario(generate_scenario(seed, config), config)
            assert outcome.ok, (spray, seed, outcome.violations)
            assert outcome.result.detection_iteration is None, (spray, seed)
