"""Rules guarding the serve layer's concurrency discipline.

:mod:`repro.serve` deliberately mixes ``threading`` locks (the decode
scheduler runs on the server's driver thread, the worker pools on executor
threads) with asyncio (the server front-end).  Two failure modes recur in
that mix:

* a ``threading.Lock`` held across an ``await`` or a
  ``run_in_executor`` hop blocks the entire event loop until the
  off-loop work completes — a deadlock magnet;
* a class that owns a lock but mutates its shared attributes outside
  of it has a data race the tests will only catch probabilistically.

Both are statically checkable shapes.  The shared-state rule is opt-in
by construction: only classes that create a lock in ``__init__`` are
held to the discipline, and methods named ``*_locked`` are exempt (the
repo's caller-holds-the-lock convention, e.g.
``_outstanding_growth_locked``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint import LintRule, ModuleContext

__all__ = ["LockAcrossAwaitRule", "UnlockedSharedStateRule"]

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_lockish(node: ast.expr) -> bool:
    """Heuristic: the expression names a lock (``self._lock``, ``lock``)."""
    name = _terminal_name(node)
    return name is not None and "lock" in name.lower()


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _root_self_attr(node: ast.expr) -> str | None:
    """``self.X[.Y...]`` -> ``"X"`` (the attribute rooted at self)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        direct = _self_attr(node) if isinstance(node, ast.Attribute) else None
        if direct is not None:
            return direct
        node = node.value
    return None


class LockAcrossAwaitRule(LintRule):
    """Forbid holding a threading lock across an await/executor boundary."""

    name = "lock-across-await"
    description = (
        "a threading lock held across `await`/`run_in_executor` blocks the "
        "event loop; release it before handing off"
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                lock_items = [it for it in node.items if _is_lockish(it.context_expr)]
                if not lock_items:
                    continue
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Await):
                        yield node.lineno, (
                            "lock held across `await` (line "
                            f"{inner.lineno}); release it before suspending "
                            "the coroutine"
                        )
                        break
                    if (
                        isinstance(inner, ast.Call)
                        and _terminal_name(inner.func) == "run_in_executor"
                    ):
                        yield node.lineno, (
                            "lock held across a `run_in_executor` hop (line "
                            f"{inner.lineno}); the executor thread may need "
                            "the same lock"
                        )
                        break
            elif isinstance(node, ast.AsyncFunctionDef):
                for inner in ast.walk(node):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "acquire"
                        and _is_lockish(inner.func.value)
                        and not any(
                            kw.arg == "blocking"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is False
                            for kw in inner.keywords
                        )
                    ):
                        yield inner.lineno, (
                            "blocking `.acquire()` on a threading lock inside "
                            "an async function stalls every coroutine; use a "
                            "`with` block around non-awaiting code or hand "
                            "off to an executor"
                        )


class UnlockedSharedStateRule(LintRule):
    """Lock-owning classes must mutate shared attributes under the lock."""

    name = "unlocked-shared-state"
    description = (
        "a class that creates a threading lock in __init__ must write its "
        "shared attributes inside `with <lock>:` (methods named *_locked "
        "are exempt: caller holds the lock)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node)

    def _check_class(self, cls: ast.ClassDef) -> Iterator[tuple[int, str]]:
        locks = self._lock_attrs(cls)
        if not locks:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("__") and item.name.endswith("__"):
                continue
            if item.name.endswith("_locked"):
                continue
            yield from self._check_body(item.body, cls.name, locks, locked=False)

    @staticmethod
    def _lock_attrs(cls: ast.ClassDef) -> frozenset[str]:
        """Attribute names assigned a Lock()/RLock()/... in ``__init__``."""
        names: set[str] = set()
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for node in ast.walk(item):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not (
                        isinstance(node.value, ast.Call)
                        and _terminal_name(node.value.func) in _LOCK_FACTORIES
                    ):
                        continue
                    for tgt in node.targets:
                        attr = _self_attr(tgt)
                        if attr is not None:
                            names.add(attr)
        return frozenset(names)

    def _check_body(
        self, stmts: list[ast.stmt], cls_name: str, locks: frozenset[str], locked: bool
    ) -> Iterator[tuple[int, str]]:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = any(_self_attr(it.context_expr) in locks for it in stmt.items)
                yield from self._check_body(stmt.body, cls_name, locks, locked or holds)
                continue
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                if not locked:
                    for tgt in targets:
                        attr = _root_self_attr(tgt)
                        if attr is not None and attr not in locks:
                            yield stmt.lineno, (
                                f"`self.{attr}` written outside `with "
                                f"self.{sorted(locks)[0]}:` in lock-owning "
                                f"class {cls_name}; take the lock or rename "
                                "the method *_locked"
                            )
            # Recurse into nested statement bodies (if/for/try/def...), keeping
            # the current locked state; nested `with` blocks are handled by the
            # branch above when encountered as statements.
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field, None)
                if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
                    yield from self._check_body(inner, cls_name, locks, locked)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._check_body(handler.body, cls_name, locks, locked)
