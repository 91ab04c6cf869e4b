"""A miniature of every workload, driven through the Python entry
points the command uses (sizes are shrunk by patching the workload
tables, not through a CLI knob)."""

import json
from dataclasses import replace

import pytest

import fastsim
import fleet
import harness
import run
import simnet

SPEC = run.load_spec()
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"] for m in SPEC["per_layer"]}
SEED = 5


@pytest.fixture
def miniature(monkeypatch):
    for name, spec in fleet.WORKLOADS.items():
        monkeypatch.setitem(fleet.WORKLOADS, name, replace(spec, n_jobs=4, n_iterations=10))
    monkeypatch.setattr(fleet, "PROBE", replace(fleet.PROBE, n_jobs=4, n_iterations=10))
    monkeypatch.setattr(fleet, "SETUP_REPEATS", 2)
    monkeypatch.setattr(simnet, "CONFIG", simnet.PROBE)
    monkeypatch.setattr(simnet, "BARE_EVENTS", 5_000)
    monkeypatch.setattr(simnet, "P2P_BYTES", 50_000)
    monkeypatch.setattr(fastsim, "LADDER", ((32, 2), (64, 1), (256, 1)))
    monkeypatch.setattr(fastsim, "PROBE", ((32, 2), (64, 1), (256, 1)))
    monkeypatch.setattr(fastsim, "RTT_TRIALS", 10)
    monkeypatch.setattr(fastsim, "POOL_TRIALS", 4)


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_miniature(workload, miniature, capsys):
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.3"])
    line = last_line(capsys)
    assert code == 0 and line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == E2E
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", ["fleet_tcp_v2", "fleet_inproc_v1_storm", "simnet_closed_loop"])
def test_traced_miniature(workload, miniature, capsys, tmp_path):
    code = run.main(
        ["--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
         "--trace", "1", "--trace-dir", str(tmp_path)]
    )
    line = last_line(capsys)
    assert code == 0 and line["correct"] is True
    assert set(line["metrics"]) == LAYERS
    trace = json.loads((tmp_path / f"{workload}.trace.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"core.monitor.block", "scenarios.closed_loop.run", "fastsim.model.simulate_r32"} <= names


def test_same_seed_same_digests(miniature):
    assert simnet.Run(replace(simnet.CONFIG, seed=3)).signature == simnet.Run(
        replace(simnet.CONFIG, seed=3)
    ).signature
    assert fastsim.LadderPass(fastsim.LADDER, 3).digests == fastsim.LadderPass(fastsim.LADDER, 3).digests
    spec = fleet.WORKLOADS["fleet_inproc_v1_storm"]
    walks = [fleet.layer_walk(spec, fleet.build_stream(spec, 3)).reference.digest() for _ in range(2)]
    assert walks[0] == walks[1]
    assert walks[0] != fleet.layer_walk(spec, fleet.build_stream(spec, 4)).reference.digest()


def test_wrong_pinned_digest_fails_the_command(miniature, monkeypatch, capsys):
    pins = {"simnet_closed_loop": "0" * 16, "fastsim_radix_sweep": ["0" * 16] * 3}
    monkeypatch.setattr(harness, "load_pins", lambda: pins)
    for workload in pins:
        argv = ["--workload", workload, "--seconds", "0.3", "--seed"]
        assert run.main(argv + [str(harness.DEFAULT_SEED)]) == 1
        line = last_line(capsys)
        assert line["correct"] is False and line["failed"] == line["attempted"]
        # Another seed has no pinned digest to disagree with.
        assert run.main(argv + [str(SEED)]) == 0
        capsys.readouterr()


def test_one_corrupted_verdict_fails_the_command(miniature, monkeypatch, capsys):
    real_walk = fleet.layer_walk

    def tampered_walk(spec, stream, tracer=fleet.NULL_TRACER):
        walk = real_walk(spec, stream, tracer)
        key = next(iter(walk.reference.triggered))
        walk.reference.triggered[key] = "corrupted"
        return walk

    monkeypatch.setattr(fleet, "layer_walk", tampered_walk)
    argv = ["--workload", "fleet_inproc_v1_storm", "--seed", str(SEED), "--seconds", "0.3"]
    assert run.main(argv) == 1
    out = capsys.readouterr().out
    line = json.loads(out.splitlines()[-1])
    assert line["correct"] is False and 1 <= line["failed"] < line["attempted"]
    assert "FAILED verdicts differ" in out


def test_pinned_digests_cover_the_default_seed():
    pins = harness.load_pins()
    assert isinstance(pins["simnet_closed_loop"], str)
    assert len(pins["fastsim_radix_sweep"]) == len(fastsim.LADDER)
