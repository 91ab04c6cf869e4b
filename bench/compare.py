#!/usr/bin/env python3
"""Compare two full benchmark results: ``compare.py A.json B.json``.

For every workload × end-to-end metric prints *improved*, *unchanged*,
*regressed* or *unresolved*, judging B against A with the bounds in
``BENCHMARK.json``.  A metric is unresolved when either file's own
timed passes spread (interquartile, as a share of their median) wider
than the bound — unless every pass of B beats every pass of A.  Any
rise in ``failed_share`` is a regression, and so is a simulated or
encoded quantity that should repeat exactly and does not.  Exits 1 on
any regression.
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import quartile_spread  # noqa: E402

#: Per-layer values that are properties of the seeded input or of the
#: simulated fabric, never of the host: equal seeds must reproduce them
#: bit for bit.
DETERMINISTIC = (
    "fleet.codec.wire_bytes_per_record",
    "core.monitor.triggered_share",
    "fleet.transport.bytes_per_msg",
    "fleet.ha.journal_bytes",
    "simnet.engine.events_per_hop",
    "simnet.transport.retx_pkts",
    "simnet.faults.drops",
    "simnet.engine.sim_ns",
)


def verdict(a, b, better: str, bound: float, passes_a=(), passes_b=()) -> str:
    """Judge value ``b`` against ``a`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b - a) / a
    spread = max(quartile_spread(list(passes_a)), quartile_spread(list(passes_b)))
    if spread > bound:
        if passes_a and passes_b:
            clear_win = (
                max(passes_b) < min(passes_a)
                if better == "lower"
                else min(passes_b) > max(passes_a)
            )
            if clear_win:
                return "improved"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> list[tuple[str, str, float, float, str]]:
    """Rows of (workload, metric, value in A, value in B, verdict)."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            rows.append((workload, "(whole workload)", 0.0, 0.0, "missing"))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = wa["end_to_end"][name]["value"]
            vb = wb["end_to_end"][name]["value"]
            pa = wa["detail"]["end_to_end"].get("passes", {}).get(name, ())
            pb = wb["detail"]["end_to_end"].get("passes", {}).get(name, ())
            rows.append(
                (workload, name, va, vb, verdict(va, vb, metric["better"], metric["bound"], pa, pb))
            )
        fa, fb = wa["failed_share"], wb["failed_share"]
        rows.append((workload, "failed_share", fa, fb, "regressed" if fb > fa else "unchanged"))
        if a.get("seed") == b.get("seed"):
            for name in DETERMINISTIC:
                va = wa["per_layer"][name]["value"]
                vb = wb["per_layer"][name]["value"]
                if va != vb:
                    rows.append((workload, name, va, vb, "differs"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    for workload, metric, va, vb, outcome in rows:
        change = (vb - va) / va * 100 if va else 0.0
        print(f"{workload:<24} {metric:<36} {va:>14.6g} {vb:>14.6g} {change:>+8.2f}%  {outcome}")
    counts: dict[str, int] = {}
    for *_rest, outcome in rows:
        counts[outcome] = counts.get(outcome, 0) + 1
    print(", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items())))
    return 1 if any(k in counts for k in ("regressed", "differs", "missing")) else 0


if __name__ == "__main__":
    sys.exit(main())
