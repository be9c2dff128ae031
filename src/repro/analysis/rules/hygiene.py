"""General hygiene rules.

Mutable default arguments are the classic Python footgun, but in this
repo they have a sharper edge: worker callables built in
:mod:`repro.serve.workers` run on executor threads, so a shared
mutable default becomes cross-request shared state that no lock
guards.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint import LintRule, ModuleContext

__all__ = ["MutableDefaultArgRule"]

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "OrderedDict", "defaultdict", "deque", "Counter"}
)


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        return name in _MUTABLE_CALLS
    return False


class MutableDefaultArgRule(LintRule):
    """Flag mutable default argument values (lists, dicts, sets, ...)."""

    name = "mutable-default-argument"
    description = (
        "default values are evaluated once and shared across every call "
        "(and every worker thread); use None and construct inside"
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
                if _is_mutable_default(default):
                    fn_name = getattr(node, "name", "<lambda>")
                    yield default.lineno, (
                        f"mutable default argument in `{fn_name}` is shared "
                        "across calls (and worker threads); default to None "
                        "and construct inside the body"
                    )
