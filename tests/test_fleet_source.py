"""Source-level guards on ``src/repro/fleet``: one way to wait, one way
to hand a shard a message.

The fleet waits on file descriptors — outbox pipes, inbox pipes,
sockets — never on a clock, and every message bound for a shard inbox
goes through ``FleetService._send``, the one place that knows how to
wait for room without deadlocking against a worker stalled on its
output.  A ``time.sleep`` poll or a bare inbox write anywhere else is
how both properties were lost before.
"""

from __future__ import annotations

import ast
import pathlib
import re

FLEET = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "fleet"
SOURCES = sorted(FLEET.rglob("*.py"))


def test_nothing_in_the_fleet_sleeps():
    sleeps = [
        f"{path.relative_to(FLEET)}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b(time|asyncio)\.sleep\b", line)
    ]
    assert sleeps == []


def test_inbox_puts_live_in_one_function():
    """Only a shard inbox's writer has a ``.post(`` (the windowed,
    non-blocking write), so every ``.post(`` call is an inbox write.
    (Also what shows the guards are reading the real package: an empty
    scan fails here.)"""
    putters = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "post"
                ):
                    putters.add((str(path.relative_to(FLEET)), function.name))
    assert putters == {("service.py", "_send")}
