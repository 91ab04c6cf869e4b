import copy
import json

import compare
from compare import verdict


def test_verdict_table():
    assert verdict(100, 104, "lower", 0.10) == "unchanged"
    assert verdict(100, 110, "lower", 0.10) == "unchanged"  # at the bound is within it
    assert verdict(100, 111, "lower", 0.10) == "regressed"
    assert verdict(100, 85, "lower", 0.10) == "improved"
    assert verdict(100, 85, "higher", 0.10) == "regressed"
    assert verdict(100, 115, "higher", 0.10) == "improved"
    # Passes spread wider than the bound: nothing can be said ...
    noisy = [60, 80, 100, 120, 140]
    assert verdict(100, 111, "lower", 0.10, noisy, [111] * 5) == "unresolved"
    assert verdict(100, 100, "lower", 0.10, [100] * 5, noisy) == "unresolved"
    # ... unless every pass of B beats every pass of A.
    assert verdict(100, 40, "lower", 0.10, noisy, [38, 40, 42]) == "improved"
    assert verdict(100, 200, "higher", 0.10, noisy, [190, 200, 210]) == "improved"


def result(spec, value=100.0, failed_share=0.0, seed=11):
    workloads = {}
    for workload in spec["workloads"]:
        workloads[workload["name"]] = {
            "failed_share": failed_share,
            "end_to_end": {m["name"]: {"value": value} for m in spec["end_to_end"]},
            "per_layer": {name: {"value": 5.0} for name in compare.DETERMINISTIC},
            "detail": {"end_to_end": {"passes": {}}},
        }
    return {"seed": seed, "workloads": workloads}


def spec():
    return json.loads((compare.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def outcomes(rows):
    return {(w, m): o for w, m, _a, _b, o in rows}


def test_compare_flags_failures_and_determinism(tmp_path, capsys):
    s = spec()
    a = result(s)
    assert set(outcomes(compare.compare(a, a, s)).values()) == {"unchanged"}

    b = copy.deepcopy(a)
    b["workloads"]["fleet_tcp_v2"]["failed_share"] = 0.001
    b["workloads"]["simnet_closed_loop"]["per_layer"]["simnet.engine.sim_ns"]["value"] = 6.0
    b["workloads"]["fastsim_radix_sweep"]["end_to_end"]["work_per_s"]["value"] = 70.0
    got = outcomes(compare.compare(a, b, s))
    assert got[("fleet_tcp_v2", "failed_share")] == "regressed"
    assert got[("simnet_closed_loop", "simnet.engine.sim_ns")] == "differs"
    assert got[("fastsim_radix_sweep", "work_per_s")] == "regressed"
    assert got[("fastsim_radix_sweep", "setup_s")] == "unchanged"

    # A different seed is allowed to simulate something different.
    other_seed = copy.deepcopy(b)
    other_seed["seed"] = 12
    assert ("simnet_closed_loop", "simnet.engine.sim_ns") not in outcomes(
        compare.compare(a, other_seed, s)
    )

    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert compare.main([str(pa), str(pa)]) == 0
    assert compare.main([str(pa), str(pb)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(pa)]) == 2
