"""Self-tests of the benchmark harness (``python -m pytest bench/tests -q``).

Not part of the repository's tier-1 suite: they test the measuring
code, not the program.
"""

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
