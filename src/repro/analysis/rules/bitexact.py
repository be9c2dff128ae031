"""Rules guarding the bit-exactness contract.

The compiled executor promises outputs and stats *bitwise* identical to
the scalar reference (compiled == reference).  Float addition is not
associative, so any lowering that hands the reduction order to a BLAS
kernel (``@``, ``np.dot``, ``einsum``, ``tensordot``) or collapses an
accumulation axis with ``sum`` can silently change results between the
two, BLAS builds, or thread counts.  Inside ``# repro: bit-exact`` regions
these must be replaced with an explicit sequential accumulation loop (see
``build_lut_tables``) — or individually justified with
``# repro: noqa reassociating-reduction`` when the executor and the
reference share the *same* reduction (consistent-by-construction).

Accumulator dtypes are a contract input too: ``MPUConfig`` decides the
accumulation precision, so a ``dtype=np.float32`` literal inside a
bit-exact region silently pins what should be configurable.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint import LintRule, ModuleContext

__all__ = ["AccumulatorDtypeLiteralRule", "ReassociatingReductionRule"]

#: Callables whose reduction order is delegated to the backing BLAS/ufunc
#: machinery and therefore not reproducible bit-for-bit across builds.
_REASSOCIATING_CALLS = frozenset(
    {"dot", "einsum", "tensordot", "matmul", "vdot", "inner", "trace"}
)

#: Reduction names that collapse an axis in one shot (``x.sum(axis=...)``,
#: ``np.sum``): pairwise summation order is an implementation detail.
_SUM_CALLS = frozenset({"sum", "nansum"})

#: Accumulator dtypes that must come from ``MPUConfig``, not literals.
#: float64 is the reference dtype and stays allowed.
_FORBIDDEN_DTYPE_ATTRS = frozenset({"float16", "float32", "half", "single"})
_FORBIDDEN_DTYPE_STRINGS = frozenset({"float16", "float32", "f2", "f4", "<f2", "<f4"})


def _terminal_name(node: ast.expr) -> str | None:
    """``a.b.c`` -> ``"c"``; ``name`` -> ``"name"``; else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_numpy_ref(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in {"np", "numpy"}


class ReassociatingReductionRule(LintRule):
    """Forbid reduction-order-delegating ops inside bit-exact regions."""

    name = "reassociating-reduction"
    description = (
        "matmul/einsum/sum reassociate float reductions; bit-exact code "
        "must accumulate sequentially or justify with a noqa"
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, str]]:
        if not ctx.bit_exact:
            return
        for node in ast.walk(ctx.tree):
            line = getattr(node, "lineno", None)
            if line is None or not ctx.is_bit_exact(line):
                continue
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield line, (
                    "`@` delegates the reduction order to BLAS inside a "
                    "bit-exact region; use an explicit sequential accumulation"
                )
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
                yield line, (
                    "`@=` delegates the reduction order to BLAS inside a "
                    "bit-exact region; use an explicit sequential accumulation"
                )
            elif isinstance(node, ast.Call):
                fn = _terminal_name(node.func)
                if fn in _REASSOCIATING_CALLS:
                    yield line, (
                        f"`{fn}` reassociates its float reduction inside a "
                        "bit-exact region; use an explicit sequential "
                        "accumulation"
                    )
                elif fn in _SUM_CALLS:
                    yield line, (
                        f"`{fn}` collapses an accumulation axis with "
                        "implementation-defined (pairwise) ordering inside a "
                        "bit-exact region; accumulate sequentially or justify "
                        "with `# repro: noqa reassociating-reduction`"
                    )


class AccumulatorDtypeLiteralRule(LintRule):
    """Flag accumulator-dtype literals that bypass ``MPUConfig``."""

    name = "accumulator-dtype-literal"
    description = (
        "accumulation dtype must flow from MPUConfig/parameters, not "
        "np.float32/np.float16 literals, inside bit-exact regions"
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, str]]:
        if not ctx.bit_exact:
            return
        for node in ast.walk(ctx.tree):
            line = getattr(node, "lineno", None)
            if line is None or not ctx.is_bit_exact(line):
                continue
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _FORBIDDEN_DTYPE_ATTRS
                and _is_numpy_ref(node.value)
            ):
                yield line, (
                    f"`np.{node.attr}` literal pins the accumulator precision "
                    "inside a bit-exact region; take the dtype from MPUConfig "
                    "or a parameter"
                )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg == "dtype"
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)
                        and kw.value.value in _FORBIDDEN_DTYPE_STRINGS
                    ):
                        yield line, (
                            f'dtype="{kw.value.value}" literal pins the '
                            "accumulator precision inside a bit-exact region; "
                            "take the dtype from MPUConfig or a parameter"
                        )
