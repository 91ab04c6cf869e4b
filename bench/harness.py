"""Measurement plumbing shared by every workload.

Nothing here knows about fleets or simulators: nearest-rank percentiles,
process CPU/RSS readers, the timed-pass loop, the in-memory span tracer
with self-time arithmetic and Chrome trace export, order-stable digests,
and the machine fingerprint.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Seed the pinned digests in ``pins.json`` were recorded at.
DEFAULT_SEED = 11


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (no interpolation, so the
    result is always a value that was measured).  The benchmark keeps
    its own statistics: a change to the program must not be able to
    change how it is measured."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median — the spread the
    benchmark contract bounds."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has waited
    for (shard workers are joined inside ``close()``, so a delta around
    a whole service pass includes them).  ``os.times()`` would do but
    ticks in hundredths of a second."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def settle_heap() -> None:
    """Collect, then move every survivor out of the collector's reach.

    Called after set-up and before any ``start()``: forked shard workers
    otherwise re-walk (and copy-on-write) the whole workload on their
    first collection, and the benchmark measures its own heap."""
    gc.collect()
    gc.freeze()


@contextmanager
def scratch_dir():
    """A private directory under the checkout (never the system temp
    dir), removed on exit."""
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still has a directory there


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
class Budget:
    """Wall-clock allowance for one measuring phase."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def timed_passes(run_pass, seconds: float, min_timed: int = 2) -> list:
    """Run ``run_pass()`` once discarded (caches fill, lazy imports
    finish), then repeatedly until ``seconds`` are used, at least
    ``min_timed`` times.  A pass is only started when the previous
    pass's duration still fits.  Returns the timed passes' results."""
    budget = Budget(seconds)
    run_pass()
    results = []
    while True:
        started = time.perf_counter()
        results.append(run_pass())
        took = time.perf_counter() - started
        if len(results) >= min_timed and budget.left() < took:
            return results


def traced_pairs(run_pass, tracer, seconds: float, repeat: bool) -> tuple[list, list]:
    """``run_pass(tracer)`` once discarded, then in untraced/traced
    pairs: one pair, or with ``repeat`` as many as fit in ``seconds``."""
    run_pass(NULL_TRACER)
    budget = Budget(seconds)
    plain, traced = [], []
    while True:
        started = time.perf_counter()
        plain.append(run_pass(NULL_TRACER))
        traced.append(run_pass(tracer))
        if not repeat or budget.left() < time.perf_counter() - started:
            return plain, traced


def overhead_share(plain: list, traced: list) -> float:
    """How much longer the traced passes took (by ``wall_s`` medians)."""
    plain_wall = statistics.median(p.wall_s for p in plain)
    return (statistics.median(p.wall_s for p in traced) - plain_wall) / plain_wall


def end_to_end_metrics(setup_s: float, rates, cpu_per_mwork, latencies_s) -> dict:
    """The five end-to-end metrics every workload reports."""
    return {
        "setup_s": setup_s,
        "work_per_s": statistics.median(rates),
        "cpu_s_per_mwork": statistics.median(cpu_per_mwork),
        "verdict_rtt_p50_ms": percentile(latencies_s, 50) * 1e3,
        "peak_rss_mb": peak_rss_mib(),
    }


def summarize(passes: list, pinned) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over simulator passes.  A pass has
    ``attempted``, ``failed(pinned) -> (count, reasons)`` and a
    ``signature`` that every pass of one seed must share."""
    attempted = failed = 0
    reasons: list[str] = []
    for one in passes:
        bad, why = one.failed(pinned)
        attempted += one.attempted
        failed += bad
        reasons += why
    if len({one.signature for one in passes}) > 1:
        failed = attempted
        reasons.append("passes of one seed disagree")
    return attempted, failed, reasons


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent id, group id)``; its id is its
    index in :attr:`spans`.  Parents come from a per-thread stack, so
    spans recorded by a client thread and by the serving thread nest
    independently.  Nothing is written until :meth:`write_chrome_trace`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, group: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if group is None and parent is not None:
            group = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, group]
        self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict[str, float]:
        """Σ over spans of (duration − time covered by direct children),
        by span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _name, start, end, parent, _group in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent, _group) in enumerate(self.spans):
            covered = covered_length(children.get(index, ()), start, end)
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for name, *_rest in self.spans:
            totals[name] = totals.get(name, 0) + 1
        return totals

    def write_chrome_trace(self, path: pathlib.Path) -> None:
        """Chrome trace-event JSON (load in https://ui.perfetto.dev)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 0 if group is None else group,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent, group) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]`` —
    overlapping children are not subtracted twice."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class _NullTracer:
    """Tracing off: ``span`` hands back one shared do-nothing context."""

    def span(self, name: str, group: int | None = None):
        return self

    def __enter__(self):
        return None

    def __exit__(self, *_exc):
        return False


NULL_TRACER = _NullTracer()


# ----------------------------------------------------------------------
# Digests and fingerprint
# ----------------------------------------------------------------------
def digest(value) -> str:
    """Short stable hash of a JSON-able value (floats are rounded to 9
    significant digits first so a last-bit difference between numpy
    builds cannot flip a pinned digest)."""
    canonical = json.dumps(_rounded(value), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.9g}") if math.isfinite(value) else repr(value)
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_rounded(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _rounded(v) for k, v in value.items()}
    return value


def load_pins() -> dict:
    return json.loads((BENCH_DIR / "pins.json").read_text())


def pinned(name: str, seed: int):
    """The workload's pinned digest(s); only the default seed has any."""
    return load_pins().get(name) if seed == DEFAULT_SEED else None


def fingerprint() -> dict:
    """Where and on what a result was measured."""
    import numpy

    model = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": sha,
    }
