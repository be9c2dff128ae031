"""A small repo-specific AST lint framework.

Generic linters cannot see this repo's contracts: that the compiled
executor and the scalar reference promise *bitwise* equality (so a
``@``/``einsum`` lowering that re-associates a float reduction is a
correctness bug, not a style choice), or that :mod:`repro.serve` mixes
``threading`` locks with asyncio (so holding a lock across an ``await``
stalls the event loop).  This module provides the scaffolding those checks
share; the checks themselves live in :mod:`repro.analysis.rules`.

Markers
-------
``# repro: bit-exact``
    Declares a bit-exactness region.  In the module preamble (any line
    before the first top-level ``def``/``class``) it covers the whole
    module; on a ``def``/``async def`` line (or the line directly above
    it) it covers that function.  Rules that guard the bit-exactness
    contract only fire inside these regions.
``# repro: noqa <rule>[, <rule>...]``
    Suppresses the named rules on that line.  ``# repro: noqa`` with no
    rule names suppresses every rule.  Suppressed findings are still
    collected (``Finding.suppressed``) so tooling can audit them; only
    unsuppressed findings fail a lint run.

Rules subclass :class:`LintRule` and yield ``(line, message)`` pairs from
:meth:`LintRule.check` over a :class:`ModuleContext` (parsed AST, source
lines, marker maps).  :func:`lint_paths` walks files/directories and
returns every finding, suppressed or not.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "LintRule",
    "ModuleContext",
    "bit_exact_lines",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
]

_BIT_EXACT_RE = re.compile(r"#\s*repro:\s*bit-exact\b")
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\b\s*(?P<rules>[\w\-, ]*)")


@dataclass(frozen=True)
class Finding:
    """One lint finding.

    ``suppressed`` marks findings silenced by a ``# repro: noqa`` on their
    line; they are reported for auditability but do not fail a run.
    """

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False

    def __str__(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{tag}"


def parse_suppressions(lines: Sequence[str]) -> dict[int, set[str]]:
    """Per-line suppression sets; ``{"*"}`` suppresses every rule."""
    out: dict[int, set[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = _NOQA_RE.search(line)
        if m is None:
            continue
        names = {r.strip() for r in m.group("rules").split(",") if r.strip()}
        out[i] = names or {"*"}
    return out


def bit_exact_lines(tree: ast.Module, lines: Sequence[str]) -> set[int]:
    """The set of source lines covered by ``# repro: bit-exact`` markers.

    A marker in the module preamble covers every line.  A marker on (or
    directly above) a ``def``/``async def`` covers that function's span.
    """
    first_code = min((node.lineno for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                           ast.ClassDef))),
                     default=len(lines) + 1)
    for i, line in enumerate(lines, start=1):
        if i >= first_code:
            break
        if _BIT_EXACT_RE.search(line):
            return set(range(1, len(lines) + 1))
    covered: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        marked = _BIT_EXACT_RE.search(lines[node.lineno - 1]) or (
            node.lineno >= 2 and _BIT_EXACT_RE.search(lines[node.lineno - 2]))
        if marked:
            covered.update(range(node.lineno, (node.end_lineno or node.lineno) + 1))
    return covered


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule needs to check one module."""

    path: str
    source: str
    lines: tuple[str, ...]
    tree: ast.Module
    bit_exact: frozenset[int]
    suppressions: dict[int, set[str]]

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> ModuleContext:
        lines = tuple(source.splitlines())
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, lines=lines, tree=tree,
                   bit_exact=frozenset(bit_exact_lines(tree, lines)),
                   suppressions=parse_suppressions(lines))

    def is_bit_exact(self, line: int) -> bool:
        return line in self.bit_exact


class LintRule:
    """Base class for repo lint rules.

    Subclasses set ``name`` (the id used by ``# repro: noqa``) and
    ``description``, and implement :meth:`check` yielding ``(line,
    message)`` pairs.
    """

    name: str = "abstract-rule"
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, str]]:
        raise NotImplementedError

    def run(self, ctx: ModuleContext) -> list[Finding]:
        findings = []
        for line, message in self.check(ctx):
            suppressed_here = ctx.suppressions.get(line, set())
            suppressed = "*" in suppressed_here or self.name in suppressed_here
            findings.append(Finding(rule=self.name, path=ctx.path, line=line,
                                    message=message, suppressed=suppressed))
        return findings


def lint_source(source: str, path: str = "<string>",
                rules: Sequence[LintRule] | None = None) -> list[Finding]:
    """Run rules over one module's source; returns all findings."""
    if rules is None:
        from repro.analysis.rules import default_rules
        rules = default_rules()
    ctx = ModuleContext.from_source(source, path)
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.run(ctx))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: Iterable[str | Path],
               rules: Sequence[LintRule] | None = None) -> list[Finding]:
    """Run rules over every ``.py`` file under ``paths`` (files or dirs)."""
    if rules is None:
        from repro.analysis.rules import default_rules
        rules = default_rules()
    findings: list[Finding] = []
    for file in _iter_python_files(paths):
        findings.extend(lint_source(file.read_text(), str(file), rules))
    return findings
