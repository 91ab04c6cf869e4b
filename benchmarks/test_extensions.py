"""Supplementary experiments for the paper's §7 extensions.

Not figures in the paper — each row demonstrates a future-work item the
paper sketches, implemented in this repo:

- **three-level fabrics**: two-tier monitoring catches pod-level and
  core-level faults and blames the right layer;
- **dynamic demand (expert parallelism)**: per-iteration prediction
  keeps AllToAll traffic monitorable; a stale static prediction false
  alarms;
- **closed-loop remediation**: detect -> confirm -> disable -> recover,
  with detection-to-drain latency in iterations;
- **parallel links**: a single trunk member's silent fault is caught in
  the virtual-spine view and reported in physical terms.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table, run_closed_loop
from repro.collectives import (
    expert_parallel_demand,
    locality_optimized_ring,
    ring_demand,
)
from repro.core import (
    AnalyticalPredictor,
    ConfirmationPolicy,
    DetectionConfig,
    FlowPulseMonitor,
)
from repro.core.dynamic import DynamicDemandMonitor
from repro.fastsim import FabricModel, run_iterations, simulate_iteration
from repro.simnet import FlowTag
from repro.threelevel import (
    ThreeLevelModel,
    ThreeLevelMonitor,
    ThreeLevelSpec,
    core_down_link,
    pod_down_link,
    pod_up_link,
    run_iterations3,
)
from repro.topology import ClosSpec, down_link, virtualize
from repro.units import GIB


def test_extension_three_level(run_once):
    def experiment():
        spec = ThreeLevelSpec(
            n_pods=4, leaves_per_pod=4, spines_per_pod=2, cores_per_spine=2
        )
        demand = ring_demand(locality_optimized_ring(spec.n_hosts), 4 * GIB)
        outcomes = {}
        for label, fault in (
            ("pod tier", pod_down_link(1, 0, 2)),
            ("core tier", core_down_link(1, 2, 0)),
            ("pod tier (inter-pod up-link)", pod_up_link(0, 3, 0)),
        ):
            model = ThreeLevelModel(spec, silent={fault: 0.05}, mtu=1024)
            runs = run_iterations3(model, demand, 3, seed=31)
            monitor = ThreeLevelMonitor(model, demand, DetectionConfig(threshold=0.01))
            verdicts = monitor.process_run(runs)
            outcomes[label] = (fault, verdicts)
        return outcomes

    outcomes = run_once(experiment)
    print()
    rows = []
    for label, (fault, verdicts) in outcomes.items():
        suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
        rows.append([label, fault, "yes" if any(v.triggered for v in verdicts) else "no",
                     ", ".join(sorted(suspected))])
    print(format_table(
        ["fault tier", "injected", "detected", "suspects"],
        rows,
        title="Extension: two-tier monitoring on a 3-level fabric (5% drop)",
    ))
    for label, (fault, verdicts) in outcomes.items():
        assert any(v.triggered for v in verdicts), label
        suspected = frozenset().union(*(v.suspected_links() for v in verdicts))
        assert fault in suspected, label
        wrong_tier = (
            [l for l in suspected if l.startswith("cs")]
            if label.startswith("pod tier")
            else [l for l in suspected if l.startswith(("up:", "down:"))]
        )
        assert not wrong_tier, label


def test_extension_dynamic_demand(run_once):
    def experiment():
        spec = ClosSpec(n_leaves=16, n_spines=8, hosts_per_leaf=1)
        rng = np.random.Generator(np.random.PCG64(33))
        demands = [
            expert_parallel_demand(list(range(spec.n_hosts)), 2 * GIB, rng)
            for _ in range(4)
        ]
        fault = down_link(3, 7)
        model = FabricModel(spec, silent={fault: 0.03}, mtu=1024)
        sim_rng = np.random.Generator(np.random.PCG64(34))
        dynamic = DynamicDemandMonitor(spec, config=DetectionConfig(threshold=0.01))
        static = FlowPulseMonitor(
            AnalyticalPredictor(spec, demands[0]), DetectionConfig(threshold=0.01)
        )
        dynamic_hits, static_false = 0, 0
        healthy = model.healthy_view()
        for i, demand in enumerate(demands):
            records = simulate_iteration(model, demand, sim_rng, tag=FlowTag(1, i))
            if dynamic.process_iteration(demand, records).triggered:
                dynamic_hits += 1
            clean = simulate_iteration(healthy, demand, sim_rng, tag=FlowTag(2, i))
            if i > 0 and static.process_iteration(clean).triggered:
                static_false += 1
        return dynamic_hits, static_false, len(demands)

    dynamic_hits, static_false, n = run_once(experiment)
    print()
    print(f"  dynamic monitor: detected the 3% fault in {dynamic_hits}/{n} "
          f"MoE AllToAll iterations")
    print(f"  static (stale) prediction: {static_false}/{n - 1} false alarms "
          f"on healthy iterations with shifted demand")
    assert dynamic_hits == n
    assert static_false == n - 1


def test_extension_closed_loop(run_once):
    def experiment():
        spec = ClosSpec(n_leaves=32, n_spines=16, hosts_per_leaf=1)
        demand = ring_demand(locality_optimized_ring(spec.n_hosts), 8 * GIB)
        model = FabricModel(spec, mtu=1024)
        fault = down_link(6, 11)
        return run_closed_loop(
            model,
            demand,
            {fault: 0.05},
            n_iterations=9,
            fault_start_iteration=2,
            policy=ConfirmationPolicy(confirm_after=2, window=4),
            seed=35,
        ), fault

    result, fault = run_once(experiment)
    print()
    print(f"  fault at iteration 2 -> detected {result.detection_iteration}, "
          f"drained {result.remediation_iteration}, recovered={result.recovered}")
    assert result.detection_iteration == 2
    assert result.remediation_iteration == 3
    assert fault in result.actions[0].disabled_links
    assert result.recovered


def test_extension_cusum_subthreshold(run_once):
    """Beyond the paper's blind spot: a 0.5% fault — explicitly
    undetectable at the 1% instantaneous threshold (§7) — is caught by
    the sequential CUSUM extension within tens of iterations."""

    def experiment():
        from repro.core import DetectionConfig
        from repro.core.sequential import CusumConfig, CusumMonitor
        from repro.core.threshold_model import port_noise_sigma

        spec = ClosSpec(n_leaves=32, n_spines=16, hosts_per_leaf=1)
        demand = ring_demand(locality_optimized_ring(spec.n_hosts), 8 * GIB)
        sigma = port_noise_sigma(8 * GIB - 8 * GIB // 32, 16, 1024)
        fault = down_link(3, 17)
        model = FabricModel(spec, silent={fault: 0.005}, mtu=1024)
        records = run_iterations(model, demand, 40, seed=39)

        instant = FlowPulseMonitor(
            AnalyticalPredictor(spec, demand), DetectionConfig(threshold=0.01)
        )
        instant_verdict = instant.process_run(records)

        cusum = CusumMonitor(
            predictor=AnalyticalPredictor(spec, demand),
            config=CusumConfig.from_noise(sigma),
        )
        first = None
        for verdict in cusum.process_run(records):
            if verdict.triggered and first is None:
                first = verdict
        healthy = CusumMonitor(
            predictor=AnalyticalPredictor(spec, demand),
            config=CusumConfig.from_noise(sigma),
        )
        clean = run_iterations(FabricModel(spec, mtu=1024), demand, 40, seed=40)
        healthy_alarms = sum(v.triggered for v in healthy.process_run(clean))
        return instant_verdict.triggered, first, healthy_alarms, fault

    instant_triggered, first, healthy_alarms, fault = run_once(experiment)
    print()
    print(f"  0.5% fault, 1% instantaneous threshold: detected={instant_triggered}")
    print(f"  0.5% fault, CUSUM: first alarm at iteration "
          f"{first.iteration} on (leaf {first.alarms[0].leaf}, "
          f"spine {first.alarms[0].spine}); healthy-run CUSUM alarms over "
          f"40 iterations: {healthy_alarms}")
    assert not instant_triggered
    assert first is not None
    assert (first.alarms[0].leaf, first.alarms[0].spine) == (17, 3)
    assert healthy_alarms == 0


def test_extension_spine_corroboration(run_once):
    """Resolving the single-sender localization ambiguity with the
    spine's own ingress counters (the two-tier trick of §7, applied one
    level down): up-link vs down-link faults become distinguishable."""

    def experiment():
        from repro.core import DetectionConfig, SpineCorroborator
        from repro.fastsim import simulate_iteration_with_spines
        from repro.simnet import FlowTag

        spec = ClosSpec(n_leaves=16, n_spines=8, hosts_per_leaf=1)
        demand = ring_demand(locality_optimized_ring(spec.n_hosts), 4 * GIB)
        outcomes = {}
        for label, fault in (
            ("down-link fault", down_link(3, 9)),
            ("up-link fault", "up:L8->S3"),
        ):
            model = FabricModel(spec, silent={fault: 0.05}, mtu=1024)
            rng = np.random.Generator(np.random.PCG64(43))
            leaves, spines = simulate_iteration_with_spines(
                model, demand, rng, tag=FlowTag(1, 0)
            )
            monitor = FlowPulseMonitor(
                AnalyticalPredictor(spec, demand), DetectionConfig(threshold=0.01)
            )
            verdict = monitor.process_iteration(leaves)
            suspicions = [
                s for loc in verdict.localizations for s in loc.suspicions
            ]
            corroborator = SpineCorroborator(spec, demand)
            resolved = corroborator.resolve(suspicions, spines)
            outcomes[label] = (fault, {s.link for s in suspicions}, resolved)
        return outcomes

    outcomes = run_once(experiment)
    print()
    for label, (fault, candidates, resolved) in outcomes.items():
        print(f"  {label} {fault}: leaf-only candidates={sorted(candidates)}; "
              f"corroborated -> {resolved[0].link} "
              f"(ruled out {resolved[0].ruled_out})")
    for label, (fault, candidates, resolved) in outcomes.items():
        assert len(candidates) == 2  # the ambiguity exists at the leaf
        assert len(resolved) == 1
        assert resolved[0].link == fault  # and the spine resolves it


def test_extension_switch_cost(run_once):
    """Deployability: FlowPulse's data-plane state on the paper fabric."""

    def experiment():
        from repro.core import fabric_cost_report, leaf_switch_cost
        from repro.topology import paper_default_spec

        spec = paper_default_spec()
        return (
            fabric_cost_report(spec, monitored_jobs=4),
            leaf_switch_cost(spec, monitored_jobs=4),
        )

    report, cost = run_once(experiment)
    print()
    print(f"  {report}")
    assert cost.fits_one_stage
    assert cost.sram_fraction_of_stage < 0.01


def test_extension_parallel_links(run_once):
    def experiment():
        fabric = virtualize(ClosSpec(n_leaves=16, n_spines=4, hosts_per_leaf=1), 2)
        spec = fabric.virtual_spec()
        demand = ring_demand(locality_optimized_ring(spec.n_hosts), 8 * GIB)
        fault = fabric.virtual_down_link(2, 1, 5)  # spine2 member1 -> leaf5
        model = FabricModel(spec, silent={fault: 0.03}, mtu=1024)
        records = run_iterations(model, demand, 3, seed=37)
        monitor = FlowPulseMonitor(
            AnalyticalPredictor(spec, demand), DetectionConfig(threshold=0.01)
        )
        return monitor.process_run(records), fault, fabric

    verdict, fault, fabric = run_once(experiment)
    print()
    print(f"  3% fault on one trunk member: detected={verdict.triggered}; "
          f"virtual suspects={sorted(verdict.suspected_links())}")
    print(f"  physical identity: {fabric.physical_description(fault)}")
    assert verdict.triggered
    assert fault in verdict.suspected_links()
    assert fabric.physical_description(fault) == "down:S2->L5#1"
