"""Timing discipline for the serving and telemetry layers.

Latency spans, latency histograms, and trace timestamps must come from
the **monotonic** clocks (``time.perf_counter`` / ``perf_counter_ns`` /
``time.monotonic``): wall clocks step under NTP corrections and DST, so
one adjustment mid-request poisons a latency histogram or
produces a negative-duration span in an exported trace.  The
``wall-clock-in-serve`` rule forbids ``time.time()`` and naive
``datetime.now()`` anywhere under ``src/repro/serve/`` and
``src/repro/telemetry/`` — the two packages whose job is measuring
durations.  Code that genuinely needs a wall-clock timestamp (e.g. the
bench trajectory stamper) lives outside these packages.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.lint import LintRule, ModuleContext

__all__ = ["WallClockInServeRule"]

# Path fragments that put a module inside the rule's jurisdiction.
_GUARDED_PATH = re.compile(r"repro[/\\](serve|telemetry)[/\\]")

# Dotted call names that read the wall clock.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
})

# Suffixes that catch module aliases (``import datetime as dt``).
_WALL_CLOCK_SUFFIXES = (".datetime.now", ".datetime.utcnow")


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute/name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _bare_time_imported(tree: ast.AST) -> bool:
    """True when ``from time import time`` makes bare ``time()`` a call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "time" and alias.asname is None:
                    return True
    return False


class WallClockInServeRule(LintRule):
    """Forbid wall-clock reads in the serve/telemetry packages."""

    name = "wall-clock-in-serve"
    description = (
        "latency measurement under repro.serve / repro.telemetry must use "
        "the monotonic clocks (time.perf_counter()/perf_counter_ns()/"
        "monotonic()); time.time() and naive datetime.now() step with NTP "
        "and DST"
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, str]]:
        if not _GUARDED_PATH.search(ctx.path):
            return
        bare_time = _bare_time_imported(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            if (name in _WALL_CLOCK_CALLS
                    or name.endswith(_WALL_CLOCK_SUFFIXES)
                    or (bare_time and name == "time")):
                yield node.lineno, (
                    f"wall-clock call `{name}()` in the serving/telemetry "
                    "layer; use time.perf_counter()/perf_counter_ns()/"
                    "monotonic() so latency spans survive NTP steps"
                )
