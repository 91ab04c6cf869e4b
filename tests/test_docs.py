"""Documentation consistency: the docs must track the code."""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.collectives",
    "repro.core",
    "repro.core.prediction",
    "repro.fastsim",
    "repro.fleet",
    "repro.fleet.ha",
    "repro.greylab",
    "repro.report",
    "repro.scenarios",
    "repro.simnet",
    "repro.telemetry",
    "repro.threelevel",
    "repro.topology",
    "repro.workloads",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_public_api_importable(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} exported but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_symbol_documented(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"{package}.{name} has no docstring"


def test_design_module_map_matches_tree():
    design = (ROOT / "DESIGN.md").read_text()
    for module in (
        "engine.py",
        "spraying.py",
        "transport.py",
        "counters.py",
        "analytical.py",
        "learning.py",
        "detection.py",
        "localization.py",
        "calibration.py",
        "baselines.py",
        "experiments.py",
        "closed_loop.py",
        "recursive.py",
        "hierarchical.py",
    ):
        assert module in design, f"DESIGN.md does not mention {module}"
    # And the named modules actually exist.
    for path in re.findall(r"(\w+/[\w/]+\.py)", design):
        candidate = ROOT / "src" / "repro" / path
        if not candidate.exists():
            candidate = ROOT / "src" / "repro" / path.split("/", 1)[-1]
        assert candidate.exists() or (ROOT / path).exists(), path


def test_readme_quickstart_snippet_runs():
    """The README's programmatic quickstart must execute as written."""
    readme = (ROOT / "README.md").read_text()
    match = re.search(
        r"```python\n(from repro.analysis import.*?)```", readme, re.S
    )
    assert match, "README quickstart snippet missing"
    snippet = match.group(1)
    # Shrink the fabric so the doc snippet stays fast in CI.
    namespace: dict = {}
    exec(compile(snippet, "<README>", "exec"), namespace)  # noqa: S102


def test_experiments_covers_every_benchmark():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for bench in (ROOT / "benchmarks").glob("test_*.py"):
        assert bench.name in experiments or bench.stem.split("test_")[1] in (
            experiments.lower()
        ), f"EXPERIMENTS.md does not reference {bench.name}"


def test_docs_name_only_files_and_targets_that_exist():
    """The reverse direction: a deleted benchmark, test file, baseline
    or make target must not survive in the living docs (``CHANGES.md``
    and ``ROADMAP.md`` are history and may name what is gone)."""
    makefile = (ROOT / "Makefile").read_text()
    targets = set(re.findall(r"^([\w-]+):", makefile, re.M))
    files = {
        path.name
        for top in ("benchmarks", "tests", "bench")
        for path in (ROOT / top).rglob("*")
    }
    for doc in ("README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile"):
        text = (ROOT / doc).read_text()
        for name in re.findall(r"\bbenchmarks/(\w+\.py)\b", text):
            assert (ROOT / "benchmarks" / name).exists(), f"{doc} names benchmarks/{name}"
        for name in re.findall(r"\b(test_\w+\.py|\w+_baseline\.json)\b", text):
            assert name in files, f"{doc} names {name}"
        # `make x` in backticks, at the start of a code line, or in a
        # Makefile comment — not the English verb mid-sentence.
        for target in re.findall(r"(?:^|`|# )make ([\w-]+)", text, re.M):
            assert target in targets, f"{doc} names `make {target}`"


def test_examples_listed_in_readme():
    readme = (ROOT / "README.md").read_text()
    for example in (ROOT / "examples").glob("*.py"):
        if example.name == "quickstart.py":
            continue  # featured separately
        assert example.name in readme, f"README does not list {example.name}"
