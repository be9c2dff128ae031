#!/usr/bin/env python
"""Run the :mod:`repro.analysis` static passes over the repo.

    python scripts/analyze.py [paths...] [--show-suppressed]
                              [--skip-lint] [--skip-verify] [--skip-pool]

Three passes, all execution-free (no GEMM ever runs):

1. **lint** — the repo-specific AST rules (bit-exactness, serve-layer
   concurrency discipline, hygiene) over ``src/`` (or the given paths).
   Unsuppressed findings fail the run; ``# repro: noqa <rule>`` markers
   are listed for auditability.
2. **verify** — ``verify_plan`` / ``verify_program`` over a canonical
   plan-family sweep: uniform and mixed precision, ragged and aligned
   shapes, several scale-group and µ geometries.
3. **pool** — the :class:`~repro.models.transformer.PagePool` /
   :class:`~repro.models.transformer.PagedKVCache` auditor over an
   allocate/share/release/register/map-prefix lifecycle, checked after
   every mutation.

Exit status 0 when every pass is clean — the blocking CI ``analysis``
job runs exactly this.
"""

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.analysis import (  # noqa: E402
    audit_page_pool,
    lint_paths,
    verify_plan,
    verify_program,
)


def run_lint(paths, show_suppressed: bool) -> int:
    findings = lint_paths(paths)
    live = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    for f in live:
        print(f"  {f}")
    if show_suppressed:
        for f in suppressed:
            print(f"  {f}")
    print(f"lint: {len(live)} finding(s), {len(suppressed)} suppressed, "
          f"over {', '.join(str(p) for p in paths)}")
    return len(live)


def _plan_family_sweep() -> int:
    """Verify plans and programs across canonical families."""
    from repro.core.mpu import MPUConfig, MatrixProcessingUnit
    from repro.core.program import compile_plan
    from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed

    rng = np.random.default_rng(2024)
    checked = 0
    cases = [
        # (m, n, bits, group_size, pe_rows, pe_cols, mu, k, mixed)
        (16, 32, 2, None, 4, 2, 4, 4, False),   # single scale group
        (16, 32, 3, 16, 4, 2, 4, 4, False),     # aligned groups
        (24, 40, 3, 16, 4, 2, 4, 4, True),      # mixed precision
        (33, 47, 2, 8, 4, 2, 4, 4, True),       # ragged rows and columns
        (24, 40, 4, 12, 4, 2, 4, 4, False),     # group not µ-aligned
        (20, 24, 2, 16, 2, 2, 2, 4, True),      # µ=2 geometry
        (16, 30, 3, 7, 8, 1, 2, 8, False),      # prime group size
    ]
    for m, n, bits, group_size, pe_rows, pe_cols, mu, k, mixed in cases:
        mpu = MatrixProcessingUnit(
            MPUConfig(pe_rows=pe_rows, pe_cols=pe_cols, mu=mu, k=k))
        weight = rng.standard_normal((m, n))
        if mixed:
            per_row = rng.integers(1, bits + 1, size=m)
            bcq = quantize_bcq_mixed(
                weight, per_row, BCQConfig(bits=bits, group_size=group_size))
        else:
            bcq = quantize_bcq(
                weight, BCQConfig(bits=bits, group_size=group_size))
        plan = mpu.plan(bcq)
        verify_plan(plan)
        program = compile_plan(plan, bcq)
        verify_program(program, plan=plan)
        checked += 1

        # The program prepare() embeds (what serving pools pin).
        verify_program(mpu.prepare(bcq, plan).program, plan=plan)
        checked += 1
    return checked


def run_verify() -> int:
    try:
        checked = _plan_family_sweep()
    except AssertionError as err:
        print(f"  {err}")
        print("verify: FAILED")
        return 1
    print(f"verify: {checked} compiled program(s) verified across the "
          "plan-family sweep")
    return 0


def run_pool_audit() -> int:
    from repro.models.transformer import PagePool, PagedKVCache

    pool = PagePool(n_layers=2, n_heads=2, d_head=4, num_pages=16,
                    page_size=4)
    caches: list = []
    failures = 0

    def check(stage: str) -> None:
        nonlocal failures
        violations = audit_page_pool(pool, caches)
        for v in violations:
            print(f"  after {stage}: {v}")
        failures += len(violations)

    check("init")
    cache = PagedKVCache(pool, capacity=32)
    caches.append(cache)
    row_pages = pool.allocate(3)
    cache.add_row(row_pages, prefix_key=0, length=10)
    check("allocate+add_row")
    # Register the first (completed) page and share it with a second row.
    pool.tokens[row_pages[0]] = np.arange(4)
    key = (0, tuple(range(4)))
    pool.register(row_pages[0], key)
    check("register")
    shared = [row_pages[0]] + pool.allocate(1)
    pool.acquire([row_pages[0]])
    cache.add_row(shared, prefix_key=hash(key), length=6)
    check("shared add_row")
    mapped, _, matched = pool.map_prefix(np.arange(4), 4)
    pool.release(mapped)
    check(f"map_prefix ({matched} token(s) matched)")
    cache.remove_rows([0])
    check("remove_rows")
    cache.release()
    caches.clear()
    check("release")
    if pool.num_free != pool.num_pages:
        print(f"  after release: {pool.num_pages - pool.num_free} page(s) "
              "leaked")
        failures += 1
    print("pool: lifecycle audited after every mutation")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Static analysis over the repo (lint + verifiers + "
                    "pool audit)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to lint (default: src/)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also list `# repro: noqa`-suppressed findings")
    parser.add_argument("--skip-lint", action="store_true")
    parser.add_argument("--skip-verify", action="store_true")
    parser.add_argument("--skip-pool", action="store_true")
    args = parser.parse_args(argv)
    paths = args.paths or [str(REPO_ROOT / "src")]

    failures = 0
    if not args.skip_lint:
        failures += run_lint(paths, args.show_suppressed)
    if not args.skip_verify:
        failures += run_verify()
    if not args.skip_pool:
        failures += run_pool_audit()
    status = "clean" if failures == 0 else f"{failures} failure(s)"
    print(f"analysis: {status}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
