"""Static analysis: verify the repo's contracts without executing them.

Three execution-free passes guard the invariants the test suite otherwise
only exercises dynamically:

* :mod:`repro.analysis.lint` — a repo-specific AST lint framework.  Rules
  live in :mod:`repro.analysis.rules`: reassociating float reductions are
  forbidden inside ``# repro: bit-exact`` regions, ``threading`` locks may
  not be held across ``await``/executor boundaries in :mod:`repro.serve`,
  lock-holding serve classes must mutate shared state under their lock,
  accumulator dtypes must flow from parameters rather than literals, and
  mutable default arguments are rejected.  ``# repro: noqa <rule>``
  suppresses one finding with an auditable marker.
* :mod:`repro.analysis.verify` — structural verifiers for
  :class:`~repro.core.dataflow.TileExecutionPlan` and
  :class:`~repro.core.program.CompiledProgram`: scatter-index disjointness,
  sentinel-row integrity, and every buffer against the plan it was
  compiled from — checkable on every compiled program without running a
  single GEMM (``REPRO_VERIFY=1`` does exactly that at compile time).
* :mod:`repro.analysis.pool_audit` — the :class:`~repro.models.transformer.
  PagePool` / :class:`~repro.models.transformer.PagedKVCache` invariant
  auditor: refcount conservation against live page tables, registry
  bijection, free-list/mapped-set disjointness.

``scripts/analyze.py`` runs all three over the repo; CI runs it as a
blocking job.  See ``docs/analysis.md``.
"""

from repro.analysis.lint import (
    Finding,
    LintRule,
    bit_exact_lines,
    lint_paths,
    lint_source,
)
from repro.analysis.pool_audit import PoolAuditError, assert_pool_consistent, audit_page_pool
from repro.analysis.verify import (
    PlanInvariantError,
    ProgramInvariantError,
    VerificationError,
    verify_plan,
    verify_program,
)

__all__ = [
    "Finding",
    "LintRule",
    "PlanInvariantError",
    "PoolAuditError",
    "ProgramInvariantError",
    "VerificationError",
    "assert_pool_consistent",
    "audit_page_pool",
    "bit_exact_lines",
    "lint_paths",
    "lint_source",
    "verify_plan",
    "verify_program",
]
