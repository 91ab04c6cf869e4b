#!/usr/bin/env python3
"""One command for every benchmark number.

``python3 bench/run.py`` runs each workload of ``BENCHMARK.json`` in a
fresh subprocess — once with tracing off for the end-to-end metrics,
once traced for the per-layer metrics — prints every metric by name
with its unit, checks outputs, and (``--out``) writes one JSON result
with the machine fingerprint.  It exits non-zero if any operation of
any workload failed.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this process and prints, as its last line, the
``{"correct", "attempted", "failed", "metrics"}`` object the benchmark
driver reads.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

DETAIL_PREFIX = "DETAIL "


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, trace_dir) -> dict:
    """Measure one workload in this process.

    Untraced: the workload's end-to-end metrics.  Traced: per-layer
    metrics of all three pipelines — the workload's own pipeline on the
    workload's own input (with the traced-vs-untraced overhead), the
    other two on small probe inputs, so every layer has a measured
    control value on every workload."""
    import fastsim
    import fleet
    import simnet
    from harness import Tracer

    pipelines = (fleet, simnet, fastsim)
    own = next((p for p in pipelines if name in p.WORKLOADS), None)
    if own is None:
        raise SystemExit(f"unknown workload {name!r}")
    if not trace:
        return own.end_to_end(name, seed, seconds)
    tracer = Tracer()
    outcome = {"metrics": {}, "attempted": 0, "failed": 0, "detail": {}}
    for pipeline in (own, *(p for p in pipelines if p is not own)):
        part = pipeline.layers(name if pipeline is own else None, seed, seconds, tracer)
        outcome["metrics"].update(part["metrics"])
        outcome["attempted"] += part["attempted"]
        outcome["failed"] += part["failed"]
        outcome["detail"][pipeline.__name__] = part["detail"]
        if pipeline is own:
            outcome["metrics"]["bench.trace_overhead_share"] = part["trace_overhead_share"]
    outcome["detail"]["failures"] = [
        why for part in outcome["detail"].values() for why in part["failures"]
    ]
    outcome["detail"]["spans"] = len(tracer.spans)
    if trace_dir is not None:
        tracer.write_chrome_trace(pathlib.Path(trace_dir) / f"{name}.trace.json")
    return outcome


def driver_line(outcome: dict, declared: list[dict]) -> dict:
    """The result object of the benchmark contract: every declared
    metric, each with its unit, and nothing else."""
    metrics = {}
    for entry in declared:
        value = outcome["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def single(args, spec: dict) -> int:
    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.trace_dir
    )
    line = driver_line(outcome, spec["per_layer" if args.trace else "end_to_end"])
    for name, metric in line["metrics"].items():
        print(f"{args.workload}  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for why in outcome["detail"].get("failures", ()):
        print(f"{args.workload}  FAILED {why}")
    print(DETAIL_PREFIX + json.dumps(outcome["detail"]))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def spawn(name: str, args, trace: int) -> tuple[dict, dict]:
    """One workload in a fresh interpreter; returns (result, detail)."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if trace and args.trace_dir:
        command += ["--trace-dir", args.trace_dir]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    for text in lines[:-2]:
        print(text)
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name} (trace={trace}) crashed with code {done.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2][len(DETAIL_PREFIX):])


def full(args, spec: dict) -> int:
    from harness import fingerprint

    started = time.time()
    names = [w["name"] for w in spec["workloads"]]
    workloads = {}
    for name in names:
        plain, plain_detail = spawn(name, args, trace=0)
        traced, traced_detail = spawn(name, args, trace=1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        workloads[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "detail": {"end_to_end": plain_detail, "per_layer": traced_detail},
        }
        print(f"{name}  failed_share {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "schema": 1,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "wall_s": time.time() - started,
        "fingerprint": fingerprint(),
        "workloads": workloads,
    }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {args.out}")
    bad = [name for name, w in workloads.items() if not w["correct"]]
    if bad:
        print(f"FAILED operations on: {', '.join(bad)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result JSON here (all-workloads mode)")
    parser.add_argument("--trace-dir", help="write one Chrome trace per traced workload here")
    args = parser.parse_args(argv)
    return single(args, spec) if args.workload else full(args, spec)


if __name__ == "__main__":
    sys.exit(main())
