"""Plan compilation: lower a tile-execution plan to a flat executable program.

Walking a :class:`~repro.core.dataflow.TileExecutionPlan` directly means a
Python loop over column segments × bit planes × LUT groups on every call.
The plan and the weights are immutable per layer, so all of that control
flow can be resolved **once**.  :func:`compile_plan` lowers a plan into a
:class:`CompiledProgram` — flat buffers plus a short instruction list — and
:meth:`CompiledProgram.execute` replays it with a small, fixed number of
fused NumPy calls per GEMM (the Exo ``LoopIR_compiler`` shape: IR in, flat
program out).  It is the only executor
:meth:`repro.core.mpu.MatrixProcessingUnit.gemm` runs; the scalar
:meth:`~repro.core.mpu.MatrixProcessingUnit.gemm_reference` walk of the
same plan is its oracle.

Buffer layout
-------------
Segments are laid out in ``slots_per_segment`` (= max LUT groups over the
compiled segments) slots each, so every per-slot buffer is a dense matrix:

``lut_cols`` — ``(num_slots, µ)`` int64
    Gather indices into the activation matrix, padded with a sentinel row
    index ``n`` that points at an appended all-zero activation row.  One
    fancy-index builds every µ-group of every segment at once; the LUT
    tables of all segments are then built by a single
    :func:`~repro.core.lut.build_lut_tables` call, laid out ``(num_slots,
    2^µ, batch)`` so that ``(num_slots·2^µ, batch)`` is a free view.
``PlanePass.keys`` — ``(num_slots, rows_p)`` int32 per bit plane
    The RAC keys of every (slot, active row) pair.  Padded slots carry key
    0 into an all-zero LUT, so they contribute exactly ``+0.0``.
``PlanePass.rows`` / ``PlanePass.scales``
    The per-row-band plane masks of a mixed-precision tensor, baked into a
    dense scatter-index vector (``None`` when every row is active) and a
    ``(num_segments, rows_p)`` α matrix — no per-call
    ``plane_activity()`` or scale gathering.
``PlaneGroup.index`` / ``PlaneGroup.scales`` (fused tier)
    A plane group is a run of consecutive bit planes ``[lo, hi)`` whose
    buffers are stacked along the row axis: ``index`` holds the flat LUT
    addresses ``slot·2^µ + key`` of every (slot, stacked row) pair, so one
    ``np.take`` into the ``(num_slots·2^µ, batch)`` LUT view reads **all**
    of the group's RAC operands, and ``scales`` is the matching
    ``(num_segments, Σrows)`` α matrix.
``offsets`` / ``offset_slices``
    The owned scale groups' offset columns and column spans, walked in
    ascending group order exactly like the reference offset stage.

Lowering tiers
--------------
One buffer layout does not win at every shape, so :func:`compile_plan`
selects between lowering **tiers** from the plan's analytic working-set
estimate (:meth:`~repro.core.dataflow.TileExecutionPlan.
working_set_bytes`) at a compile-time ``batch_hint``:

``"fused"``
    The one-big-gather lowering above — one ``("plane", g)`` gather per
    plane group, then one ``("scale",)`` stage: an α multiply per group and
    the ``y`` updates.  Fastest when each op touches little data (batch-1
    decode), where Python dispatch, not arithmetic, dominates.  Planes are
    grouped at compile time while ``num_slots × Σrows`` fits
    ``_PLANE_GROUP_ELEMENTS``; at run time a group whose ``num_slots ×
    Σrows × batch`` exceeds that budget gathers one plane at a time (same
    code path, group width 1), which keeps large-batch gathers cache-sized.
``"blocked"``
    Segment-blocked gathers: ``("plane_block", p, lo, hi)`` instructions
    stream segment ranges ``[lo, hi)`` through a fixed reusable
    ``(rows, batch)`` scratch buffer, one ``np.take`` per (segment,
    µ-group) in the reference's per-group update order, so the tier stays
    **bitwise** identical to the fused tier and the reference on outputs
    and stats while never materialising the fused tier's ``(slots × rows ×
    batch)`` intermediate.  Selected automatically when the fused working
    set at ``batch_hint`` exceeds ``_BLOCKED_THRESHOLD_BYTES``.

Bit-exactness contract
----------------------
Compiled output and :class:`~repro.core.mpu.MPURunStats` are **identical**
to the scalar ``gemm_reference`` — not merely close — on both tiers.  Any
lowering that would re-associate a float summation is rejected:

* LUT tables are built by the same sequential-over-µ accumulation
  (:func:`~repro.core.lut.build_lut_tables`) — stacking segments adds
  batching, not reordering;
* per-plane partials accumulate group-position-by-group-position in the
  accumulator dtype, matching the reference's ascending group order; the
  padded tail slots add ``+0.0``, which is value-preserving in IEEE-754
  round-to-nearest (including for ``±inf``/NaN partials under fp16
  overflow).  Stacking planes along the row axis adds batching, not
  reordering: every (segment, row, column) partial still sums its own
  µ-groups in ascending order;
* the α multiply is elementwise (float64, as in the reference), so one
  multiply over a stacked partial is value-identical to one per
  (segment, plane); the ``y`` updates then replay the reference order
  exactly — segments ascending, bit planes innermost — and the offset
  stage reuses the same per-group ops.

No einsum/tensordot/pairwise-``np.sum`` over a reduction the reference
performs sequentially appears anywhere in :meth:`CompiledProgram.execute`.

Stats are attached at compile time: every counter of
:meth:`~repro.core.mpu.MatrixProcessingUnit.stats_from_plan` (or
:meth:`~repro.core.mpu.MatrixProcessingUnit.shard_stats` for a sub-program)
is affine in the batch size, so the program stores the exact integer
``(intercept, slope)`` pair per counter and :meth:`CompiledProgram.stats`
reproduces the analytic counters for any batch without touching the plan.

Programs are self-contained — no :class:`~repro.quant.bcq.BCQTensor` or
plan needed at run time — so :meth:`CompiledProgram.buffers` /
:meth:`CompiledProgram.spec` / :meth:`CompiledProgram.from_buffers` let the
process-backend serving pool ship a compiled program through shared memory
and execute zero-copy views in the worker.
"""

# repro: bit-exact — the compiled executor must replay the scalar
# reference's float operations exactly (see "Bit-exactness contract" above).

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields

import numpy as np

from repro.core.dataflow import PlanShard, TileExecutionPlan
from repro.core.lut import build_lut_tables
from repro.core.mpu import (
    MatrixProcessingUnit,
    MPUConfig,
    MPURunStats,
    _normalize_activations,
)
from repro.quant.bcq import BCQTensor
from repro.telemetry import get_telemetry

__all__ = ["CompiledProgram", "PlaneGroup", "PlanePass", "compile_plan"]

# Gathered elements (num_slots × Σrows × batch) up to which the fused tier
# stacks a group's bit planes into one gather.  Measured on a 2-vCPU Xeon
# VM (2 MiB L2 per core), fp32 accumulators: stacking cuts the bench
# model's 25-layer batch-1 pass from ~8-9 to ~4 ms, but stacking without
# a bound ran at ~0.6× of per-plane gathers on 256-1024-wide fused layers
# at batch 64, where the stacked buffers outgrow L2.  2^18 elements (1 MiB
# of fp32 values) keeps stacking to the dispatch-bound shapes.
_PLANE_GROUP_ELEMENTS = 1 << 18

# Elements per gather buffer before execute() chunks its work — batch
# columns on the fused tier, segment blocks on the blocked tier.  Chunking
# is exact — no reduction crosses a chunk boundary — so this bounds peak
# memory without touching the numerics.  Overridable per compile via
# MPUConfig.gather_budget or the REPRO_GATHER_BUDGET environment variable
# (resolved at compile_plan time into CompiledProgram.gather_budget).
_GATHER_BUDGET = 1 << 23

# Fused-tier working-set bytes (plan.working_set_bytes at the compile-time
# batch hint) above which tier="auto" lowers to segment-blocked gathers.
# 16 MiB ~ the point where the fused gather's (slots × rows × batch)
# intermediate stops fitting cache and measured throughput falls behind
# the per-segment walk on the reference machine.
_BLOCKED_THRESHOLD_BYTES = 1 << 24

# Cache-residency target for the blocked tier's live float64 partial
# slices: one segment block keeps every plane's (block, rows, batch_hint)
# partial under this many bytes so the α-scale updates that immediately
# follow the block re-read partials that are still cache-hot.  Measured on
# the reference machine: small blocks (1-4 segments at 1024²/batch 8) beat
# a plain per-segment walk at every batch, whole-plan blocks lose at batch
# 32; 512 KiB lands at 2 segments per block on that shape.
_BLOCKED_PARTIAL_BYTES = 1 << 19

# Batch the tier selection optimises for when the caller gives no hint: a
# serving layer's program runs batch-1 decode *and* batched prefill, and
# the blocked tier is cache-sized at any batch while small working sets
# keep the fused decode win, so a moderate prefill-side hint is safe at
# both ends.
_DEFAULT_BATCH_HINT = 8

_TIERS = ("fused", "blocked")


def _resolve_gather_budget(config: MPUConfig | None) -> int:
    """The gather budget for one compile: config field, else env, else default."""
    if config is not None and config.gather_budget is not None:
        return int(config.gather_budget)
    env = os.environ.get("REPRO_GATHER_BUDGET")
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_GATHER_BUDGET must be an integer, got {env!r}") from None
        if budget < 1:
            raise ValueError("REPRO_GATHER_BUDGET must be >= 1")
        return budget
    return _GATHER_BUDGET


@dataclass(frozen=True)
class PlanePass:
    """One bit plane's flat buffers.

    Attributes
    ----------
    keys:
        ``(num_slots, rows)`` int32 RAC keys; column ``r`` belongs to the
        plane's ``r``-th active output row.
    rows:
        ``(rows,)`` int64 scatter indices into the output, or ``None`` when
        every output row holds this plane (the unmasked hot path).
    scales:
        ``(num_segments, rows)`` α matrix: ``scales[s, r]`` multiplies the
        partial of segment ``s`` for active row ``r``.
    """

    keys: np.ndarray
    rows: np.ndarray | None
    scales: np.ndarray


@dataclass(frozen=True)
class PlaneGroup:
    """Bit planes ``[lo, hi)`` stacked along the row axis (fused tier):
    ``(num_slots, Σrows)`` intp flat LUT addresses ``slot·2^µ + key`` and
    the ``(num_segments, Σrows)`` α matrix, plane ``lo``'s columns first."""

    lo: int
    hi: int
    index: np.ndarray
    scales: np.ndarray


@dataclass(frozen=True)
class CompiledProgram:
    """A tile-execution plan lowered to flat buffers + an instruction list.

    ``instructions`` is the complete run recipe executed in order:
    ``("luts",)`` builds every segment's LUT tables in one call.  On the
    fused tier, ``("plane", g)`` gathers and accumulates plane group ``g``'s
    partials and a single ``("scale",)`` applies every group's α multiply
    and the (segment, plane) ``y`` updates — segments-ascending,
    planes-innermost, the reference's exact order.  On the
    blocked tier, ``("plane_block", p, lo, hi)`` accumulates segments
    ``[lo, hi)`` of plane ``p`` through a reusable scratch buffer and
    ``("scale", s, p)`` applies one (segment, plane) α update; each segment
    range's scale ops follow that range's ``plane_block`` ops directly,
    while the range's float64 partial slices are still cache-resident.
    ``("offset", k)`` adds one owned scale group's offset term.

    ``tier`` names the lowering the program was compiled to and prefixes
    its profiling rollup keys (``program.<tier>.<op>``); ``gather_budget``
    is the chunking budget resolved at compile time.
    """

    m: int
    n: int
    mu: int
    num_segments: int
    slots_per_segment: int
    lut_cols: np.ndarray
    passes: tuple[PlanePass, ...]
    offsets: np.ndarray
    offset_slices: tuple[tuple[int, int], ...]
    instructions: tuple[tuple, ...]
    stats_base: tuple[int, ...]
    stats_slope: tuple[int, ...]
    tier: str = "fused"
    gather_budget: int = _GATHER_BUDGET
    groups: tuple[PlaneGroup, ...] = ()

    @property
    def num_slots(self) -> int:
        return int(self.lut_cols.shape[0])

    def stats(self, batch: int) -> MPURunStats:
        """The analytic run counters for ``batch`` activation columns.

        Exact for every batch: each counter of the plan-derived stats is
        affine in the batch size, and the integer intercept/slope pair was
        computed from the plan formulas at compile time.
        """
        if batch < 0:
            raise ValueError("batch must be >= 0")
        return MPURunStats(*(b + s * batch
                             for b, s in zip(self.stats_base, self.stats_slope, strict=True)))

    # -- execution ---------------------------------------------------------
    def execute(self, activations: np.ndarray,
                accumulate_dtype: np.dtype | type = np.float64
                ) -> tuple[np.ndarray, MPURunStats]:
        """Run the program: ``Y = W X`` plus the plan-exact counters.

        Bit-identical to ``gemm_reference`` on the same plan: same LUT
        entries, same accumulator dtype footprint, same float addition
        order per output element.
        """
        x, squeeze = _normalize_activations(activations, self.n)
        batch = x.shape[1]
        acc_dtype = np.dtype(accumulate_dtype)
        y = np.zeros((self.m, batch), dtype=np.float64)

        # Opt-in per-instruction profiling: when off (the default) the loop
        # pays one None check per opcode; when on, timings accumulate in a
        # local dict and merge into the profile once per call.  Values are
        # never touched either way — the bit-exactness contract holds.
        tel = get_telemetry()
        prof: dict[str, list] | None = None
        if tel.enabled and tel.profiling:
            prof = {}
        t_op = 0

        luts = None
        # Fused tier: one accumulator-dtype (segments, Σrows, batch) partial
        # per plane group, consumed by the single ("scale",) stage.
        group_partials: list[np.ndarray | None] = [None] * len(self.groups)
        # Blocked tier: each plane's partials buffer holds only the current
        # block's segments (reused across blocks), so scale ops index it
        # relative to the plane's current block base.
        partials: list[np.ndarray | None] = [None] * len(self.passes)
        part_base = [0] * len(self.passes)
        # One reusable (rows, batch) scratch per plane width — every
        # segment of every block streams through it.
        scratch_by_rows: dict[int, np.ndarray] = {}
        gmax = self.slots_per_segment
        if prof is not None:
            t_op = time.perf_counter_ns()
        for op in self.instructions:
            kind = op[0]
            if kind == "luts":
                # Sentinel row n holds zeros: padded slot positions read it,
                # so their LUT entries are exactly +0.0.
                x_pad = np.concatenate(
                    [x, np.zeros((1, batch), dtype=x.dtype)], axis=0)
                # (slots, µ, B) → (slots, 2^µ, B): one table row per key,
                # batch innermost.
                luts = build_lut_tables(x_pad[self.lut_cols], dtype=acc_dtype,
                                        axis=1)
            elif kind == "plane":
                group_partials[op[1]] = self._run_group(
                    self.groups[op[1]], luts, acc_dtype)
            elif kind == "plane_block":
                p, lo, hi = op[1], op[2], op[3]
                pp = self.passes[p]
                rows = pp.keys.shape[1]
                part = partials[p]
                if part is None or part.shape[0] < hi - lo:
                    # Sized by the first block (only the last is narrower),
                    # then reused for every later block of the plane.
                    part = np.empty((hi - lo, rows, batch), dtype=np.float64)
                    partials[p] = part
                part_base[p] = lo
                scratch = scratch_by_rows.get(rows)
                if scratch is None:
                    scratch = np.empty((rows, batch), dtype=acc_dtype)
                    scratch_by_rows[rows] = scratch
                for s in range(lo, hi):
                    # One segment's partial: zero the scratch, then one
                    # np.take per µ-group accumulated
                    # ascending in the accumulator dtype (padded tail slots
                    # read key 0 of an all-zero LUT and add exactly +0.0).
                    scratch[:] = 0
                    base = s * gmax
                    for g in range(gmax):
                        scratch += np.take(luts[base + g], pp.keys[base + g],
                                           axis=0)
                    # float64 conversion happens on assignment — the same
                    # value-exact cast as the reference's astype.
                    part[s - lo] = scratch
            elif kind == "scale":
                if len(op) == 1:
                    self._scale_groups(group_partials, y)
                else:
                    s, p = op[1], op[2]
                    pp = self.passes[p]
                    term = pp.scales[s][:, None] * partials[p][s - part_base[p]]
                    if pp.rows is None:
                        y += term
                    else:
                        y[pp.rows] += term
            else:  # "offset"
                start, stop = self.offset_slices[op[1]]
                # Same reduction call as gemm_reference's offset loop: the
                # one group-sum op both paths share.
                group_sum = x[start:stop, :].sum(axis=0, keepdims=True)  # repro: noqa reassociating-reduction
                y += self.offsets[:, op[1]][:, None] * group_sum
            if prof is not None:
                # Chained stamps: one clock read per instruction (each op's
                # end is the next one's start), not two.
                now = time.perf_counter_ns()
                entry = prof.get(kind)
                if entry is None:
                    entry = prof[kind] = [0, 0]
                entry[0] += 1
                entry[1] += now - t_op
                t_op = now
        if prof is not None:
            # Every execute() runs the whole static instruction list, so the
            # bytes-touched rollup per opcode is a constant of (batch,
            # accumulator width) — computed once and cached, keeping the
            # per-instruction cost above to two clock reads.  Keys carry the
            # lowering tier (program.<tier>.<op>) so rollups separate per
            # kernel family.
            nbytes = self._profile_bytes(batch, acc_dtype.itemsize)
            tel.profile.update(
                {f"program.{self.tier}.{kind}": (e[0], e[1] / 1e9,
                                                 nbytes.get(kind, 0))
                 for kind, e in prof.items() if e[0]})

        stats = self.stats(batch)
        if squeeze:
            return y[:, 0], stats
        return y, stats

    def _profile_bytes(self, batch: int, acc_itemsize: int) -> dict[str, int]:
        """Per-opcode bytes-touched totals for one full program run, cached.

        The cache lives on the (frozen) instance via ``object.__setattr__``;
        it is not a dataclass field, so equality/serialization of compiled
        programs are unaffected.
        """
        cache = getattr(self, "_profile_bytes_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_profile_bytes_cache", cache)
        key = (batch, acc_itemsize)
        totals = cache.get(key)
        if totals is None:
            totals = {}
            for op in self.instructions:
                totals[op[0]] = (totals.get(op[0], 0)
                                 + self._op_bytes(op[0], op, batch,
                                                  acc_itemsize))
            cache[key] = totals
        return totals

    def _op_bytes(self, kind: str, op: tuple, batch: int,
                  acc_itemsize: int) -> int:
        """Bytes-touched estimate of one instruction (profiling rollups).

        Counts the dominant array traffic of each opcode — activation
        gathers, key matrices, LUT tables, partial/output updates — from
        the program's static shapes; integer arithmetic only.  A fused
        ``plane`` / ``scale`` op counts the sum of its planes' per-plane
        traffic, so per-run totals do not depend on how planes are grouped.
        """
        if kind == "luts":
            # µ-column activation gather in + every segment's table out.
            return (self.num_slots * self.mu * batch * 8
                    + self.num_slots * batch * (1 << self.mu) * acc_itemsize)
        if kind == "plane":
            # Per plane: key matrix + the gathered LUT values + the partial
            # updates (every plane's keys share one integer width).
            rows = self.groups[op[1]].index.shape[1]
            return self.num_slots * rows * (self.passes[0].keys.itemsize
                                            + 2 * batch * acc_itemsize)
        if kind == "plane_block":
            # The block's slice of the plane's traffic: its slots' key rows,
            # LUT reads + scratch accumulations, and the float64 partial
            # writes.
            pp = self.passes[op[1]]
            rows = pp.keys.shape[1]
            slots = (op[3] - op[2]) * self.slots_per_segment
            return (slots * rows * pp.keys.itemsize
                    + 2 * slots * rows * batch * acc_itemsize
                    + (op[3] - op[2]) * rows * batch * 8)
        if kind == "scale":
            # Per (segment, plane): α·partial read + y scatter update (both
            # float64).
            passes = self.passes if len(op) == 1 else (self.passes[op[2]],)
            rows = 0
            for pp in passes:
                rows += pp.keys.shape[1]
            segments = self.num_segments if len(op) == 1 else 1
            return segments * 2 * rows * batch * 8
        # "offset": group-sum read + dense y update.
        start, stop = self.offset_slices[op[1]]
        return (stop - start) * batch * 8 + self.m * batch * 8

    def batch_step(self, rows: int) -> int:
        """Fused-tier batch columns per gather chunk under the budget.

        The knob the gather budget turns on this tier: a gather over
        ``rows`` (stacked) rows reads ``num_slots × rows`` elements per
        batch column, so this many columns fit one budget-sized buffer (at
        least one).
        """
        return max(1, self.gather_budget // max(self.num_slots * rows, 1))

    def _plane_spans(self, group: PlaneGroup) -> list[tuple]:
        """``(start, stop, scatter rows)`` of each plane's stacked columns."""
        spans, a = [], 0
        for pp in self.passes[group.lo:group.hi]:
            spans.append((a, a + pp.keys.shape[1], pp.rows))
            a += pp.keys.shape[1]
        return spans

    def _run_group(self, group: PlaneGroup, luts: np.ndarray,
                   acc_dtype: np.dtype) -> np.ndarray:
        """Gather + accumulate one plane group → ``(S, Σrows, B)`` partial.

        The whole group is one gather while ``num_slots × Σrows × batch``
        fits ``_PLANE_GROUP_ELEMENTS``, else one gather per plane (group
        width 1); each gather is further chunked over batch columns by the
        gather budget.  Every (segment, row, column) partial then sums its
        µ-groups in ascending order, in the accumulator dtype, exactly like
        the reference's per-group loop (padded tail slots add +0.0).
        """
        num_segments, gmax = self.num_segments, self.slots_per_segment
        batch = luts.shape[2]
        lut_rows = luts.reshape(self.num_slots << self.mu, batch)  # a view
        total = group.index.shape[1]
        partial = np.zeros((num_segments, total, batch), dtype=acc_dtype)
        spans = self._plane_spans(group)
        if self.num_slots * total * batch <= _PLANE_GROUP_ELEMENTS:
            spans = [(0, total, None)]
        for a, b, _ in spans:
            index = group.index[:, a:b]
            step = self.batch_step(b - a)
            for c0 in range(0, batch, step):
                c1 = min(c0 + step, batch)
                # (slots, rows, chunk) LUT reads, batch innermost.
                if c1 - c0 == batch:
                    values = np.take(lut_rows, index, axis=0)
                else:
                    values = lut_rows[index, c0:c1]
                values = values.reshape(num_segments, gmax, b - a, c1 - c0)
                sub = partial[:, a:b, c0:c1]
                for j in range(gmax):
                    sub += values[:, j]
        return partial

    def _scale_groups(self, group_partials: list[np.ndarray | None],
                      y: np.ndarray) -> None:
        """The fused scale stage: α-scale every group, then update ``y``.

        The α multiply is float64 and elementwise, so it equals the
        reference's per-(segment, plane) ``alpha * partial`` however it
        is batched: one multiply over a group's whole stacked partial while
        that fits ``_PLANE_GROUP_ELEMENTS``, else one per (segment, plane),
        right before its update reads it (cache-hot at large batch).  The
        ``y`` updates replay the reference's order: segments ascending,
        planes innermost, ``y[rows] +=`` for masked planes.
        """
        groups = []
        for group, partial in zip(self.groups, group_partials, strict=True):
            whole = None
            if partial.size <= _PLANE_GROUP_ELEMENTS:
                whole = np.multiply(group.scales[:, :, None], partial,
                                    dtype=np.float64)
            groups.append((group.scales, partial, whole,
                           self._plane_spans(group)))
        for s in range(self.num_segments):
            for scales, partial, whole, spans in groups:
                for a, b, rows in spans:
                    term = whole[s, a:b] if whole is not None else np.multiply(
                        scales[s, a:b, None], partial[s, a:b], dtype=np.float64)
                    if rows is None:
                        y += term
                    else:
                        y[rows] += term

    # -- shared-memory shipping -------------------------------------------
    def buffers(self) -> dict[str, np.ndarray]:
        """The program's array buffers, keyed for :meth:`from_buffers`."""
        out = {"lut_cols": self.lut_cols, "offsets": self.offsets}
        for p, pp in enumerate(self.passes):
            out[f"keys{p}"] = pp.keys
            out[f"scales{p}"] = pp.scales
            if pp.rows is not None:
                out[f"rows{p}"] = pp.rows
        for g, group in enumerate(self.groups):
            out[f"group_index{g}"] = group.index
            out[f"group_scales{g}"] = group.scales
        return out

    def spec(self) -> dict:
        """Picklable non-array metadata; pairs with :meth:`buffers`."""
        return {
            "m": self.m, "n": self.n, "mu": self.mu,
            "num_segments": self.num_segments,
            "slots_per_segment": self.slots_per_segment,
            "num_passes": len(self.passes),
            "masked": [pp.rows is not None for pp in self.passes],
            "offset_slices": [list(sl) for sl in self.offset_slices],
            "instructions": [list(op) for op in self.instructions],
            "stats_base": list(self.stats_base),
            "stats_slope": list(self.stats_slope),
            "tier": self.tier,
            "gather_budget": self.gather_budget,
            "groups": [[group.lo, group.hi] for group in self.groups],
        }

    @classmethod
    def from_buffers(cls, spec: dict,
                     arrays: dict[str, np.ndarray]) -> CompiledProgram:
        """Rebuild a program from :meth:`spec` metadata and buffer views.

        Arrays are referenced, not copied, so a worker process can execute
        directly over shared-memory views of the parent's buffers.
        """
        passes = tuple(
            PlanePass(keys=arrays[f"keys{p}"],
                      rows=arrays[f"rows{p}"] if masked else None,
                      scales=arrays[f"scales{p}"])
            for p, masked in enumerate(spec["masked"]))
        groups = tuple(
            PlaneGroup(lo=lo, hi=hi, index=arrays[f"group_index{g}"],
                       scales=arrays[f"group_scales{g}"])
            for g, (lo, hi) in enumerate(spec.get("groups", ())))
        return cls(
            m=spec["m"], n=spec["n"], mu=spec["mu"],
            num_segments=spec["num_segments"],
            slots_per_segment=spec["slots_per_segment"],
            lut_cols=arrays["lut_cols"], passes=passes,
            offsets=arrays["offsets"],
            offset_slices=tuple(tuple(sl) for sl in spec["offset_slices"]),
            instructions=tuple(tuple(op) for op in spec["instructions"]),
            stats_base=tuple(spec["stats_base"]),
            stats_slope=tuple(spec["stats_slope"]),
            tier=spec.get("tier", "fused"),
            gather_budget=spec.get("gather_budget", _GATHER_BUDGET),
            groups=groups)


def _affine_stats(stats_fn) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-counter (intercept, slope) of a batch → MPURunStats function.

    Every counter in :meth:`~repro.core.mpu.MatrixProcessingUnit.
    stats_from_plan` / ``shard_stats`` is affine in the batch, so two
    evaluations pin it exactly — no formula duplication in the compiler.
    """
    at0, at1 = stats_fn(0), stats_fn(1)
    base = tuple(getattr(at0, f.name) for f in fields(MPURunStats))
    slope = tuple(getattr(at1, f.name) - b
                  for f, b in zip(fields(MPURunStats), base, strict=True))
    return base, slope


def _plane_groups(passes: list[PlanePass], num_slots: int,
                  mu: int) -> tuple[PlaneGroup, ...]:
    """Pack consecutive planes into fused-tier plane groups.

    A group grows while its batch-1 gather (``num_slots × Σrows``) fits
    ``_PLANE_GROUP_ELEMENTS``; a plane wider than that alone is a group of
    one.  Each group bakes its stacked flat LUT addresses ``slot·2^µ +
    key`` and α columns, planes in ascending order.
    """
    bounds: list[tuple[int, int]] = []
    lo = width = 0
    for p, pp in enumerate(passes):
        rows = pp.keys.shape[1]
        if p > lo and num_slots * (width + rows) > _PLANE_GROUP_ELEMENTS:
            bounds.append((lo, p))
            lo, width = p, 0
        width += rows
    bounds.append((lo, len(passes)))
    slot_base = (np.arange(num_slots, dtype=np.intp) << mu)[:, None]
    return tuple(
        PlaneGroup(lo=lo, hi=hi,
                   index=np.concatenate([slot_base + pp.keys
                                         for pp in passes[lo:hi]], axis=1),
                   scales=np.concatenate([pp.scales for pp in passes[lo:hi]],
                                         axis=1))
        for lo, hi in bounds)


def compile_plan(plan: TileExecutionPlan,
                 weights: BCQTensor,
                 config: MPUConfig | None = None,
                 shard: PlanShard | None = None,
                 tier: str = "auto",
                 batch_hint: int | None = None) -> CompiledProgram:
    """Lower a tile-execution plan (or one segment-axis shard of it) into a
    :class:`CompiledProgram`.

    ``shard`` compiles a segment-axis sub-program: only the shard's
    segments and *owned* scale groups are lowered, and the baked stats are
    the shard's exactly additive share.  Row-axis shards have no
    sub-program — they execute the row-sliced tensor's own full program
    (see :meth:`~repro.core.mpu.MatrixProcessingUnit.gemm`).

    ``tier`` picks the lowering (see "Lowering tiers"): ``"auto"`` (the
    default) selects ``"blocked"`` when the fused working set at
    ``batch_hint`` activation columns
    (:meth:`~repro.core.dataflow.TileExecutionPlan.working_set_bytes`,
    restricted to the shard's segments for sub-programs) exceeds
    ``_BLOCKED_THRESHOLD_BYTES``, and ``"fused"`` otherwise — both bitwise
    tiers.
    """
    config = config or MPUConfig()
    mpu = MatrixProcessingUnit(config)
    if (plan.m, plan.n) != weights.shape:
        raise ValueError(f"plan shape ({plan.m}, {plan.n}) does not match "
                         f"weights {weights.shape}")
    if tier not in (*_TIERS, "auto"):
        raise ValueError(f"tier must be one of {('auto', *_TIERS)}, "
                         f"got {tier!r}")
    if batch_hint is None:
        batch_hint = _DEFAULT_BATCH_HINT
    elif batch_hint < 0:
        raise ValueError("batch_hint must be >= 0")
    gather_budget = _resolve_gather_budget(config)
    if shard is not None:
        if shard.axis != "segments":
            raise ValueError(
                "only segment-axis shards compile to sub-programs; a "
                "row-axis shard executes the row-sliced tensor's own plan")
        if shard.plan is not plan and shard.plan != plan:
            raise ValueError("shard was cut from a different plan")
        segments = shard.segments
        owned_groups = tuple(sorted(shard.owned_scale_groups))
        stats_fn = lambda b: mpu.shard_stats(shard, b)  # noqa: E731
    else:
        segments = plan.segments
        owned_groups = tuple(range(plan.num_scale_groups))
        stats_fn = lambda b: mpu.stats_from_plan(plan, b)  # noqa: E731

    m, n = weights.shape
    mu = config.mu
    num_segments = len(segments)
    gmax = max((seg.lut_groups for seg in segments), default=0)
    num_slots = num_segments * gmax

    if tier == "auto":
        if shard is None:
            working_set = plan.working_set_bytes(batch_hint)
        else:
            # The shard's own share of the fused working set: the same
            # formula as TileExecutionPlan.working_set_bytes over the
            # shard's segments only.
            working_set = (num_slots * m * batch_hint * 8
                           + num_slots * batch_hint * (1 << mu) * 8
                           + num_segments * m * batch_hint * 8)
        tier = "blocked" if working_set > _BLOCKED_THRESHOLD_BYTES else "fused"

    base, slope = _affine_stats(stats_fn)
    # Gather-index matrix into the zero-row-padded activations: real
    # columns index x, padded positions (ragged µ-group tails and slots
    # past a segment's group count) read the sentinel zero row n.
    lut_cols = np.full((num_slots, mu), n, dtype=np.int64)
    for si, seg in enumerate(segments):
        span = np.full(seg.lut_groups * mu, n, dtype=np.int64)
        width = seg.col_slice.stop - seg.col_slice.start
        span[:width] = np.arange(seg.col_slice.start, seg.col_slice.stop,
                                 dtype=np.int64)
        lut_cols[si * gmax: si * gmax + seg.lut_groups] = \
            span.reshape(seg.lut_groups, mu)

    max_planes, active = weights.plane_activity()
    powers = 1 << np.arange(mu - 1, -1, -1, dtype=np.int64)

    passes: list[PlanePass] = []
    for p in range(max_planes):
        rows = None if active is None else \
            np.ascontiguousarray(np.asarray(active[p], dtype=np.int64))
        num_rows = m if rows is None else int(rows.size)
        keys = np.zeros((num_slots, num_rows), dtype=np.int32)
        scales = np.empty((num_segments, num_rows),
                          dtype=weights.scales.dtype)
        for si, seg in enumerate(segments):
            plane_w = weights.bitplanes[p][:, seg.col_slice]
            if rows is not None:
                plane_w = plane_w[rows]
            seg_keys = mpu._segment_keys(
                plane_w.astype(np.int64), seg, mu, powers)    # (rows, G)
            keys[si * gmax: si * gmax + seg.lut_groups] = seg_keys.T
            alpha = weights.scales[p][:, seg.scale_group]
            scales[si] = alpha if rows is None else alpha[rows]
        passes.append(PlanePass(keys=keys, rows=rows, scales=scales))

    col_groups = weights.column_groups()
    offset_slices = tuple((col_groups[g].start, col_groups[g].stop)
                          for g in owned_groups)
    offsets = np.ascontiguousarray(weights.offsets[:, list(owned_groups)])

    instructions: list[tuple] = []
    groups: tuple[PlaneGroup, ...] = ()
    if num_slots and passes:
        instructions.append(("luts",))
        if tier == "fused":
            groups = _plane_groups(passes, num_slots, mu)
            instructions += [("plane", g) for g in range(len(groups))]
            instructions.append(("scale",))
        else:
            # Blocked: one shared ascending, contiguous segment-range walk.
            # Each range emits every plane's ("plane_block", p, lo, hi)
            # followed immediately by the range's α updates (segments
            # ascending, planes innermost — the reference's y order), so
            # the scale ops consume float64 partial slices that are still
            # cache-hot.  The range width is the smaller of the
            # gather budget (widest plane's slots × rows × batch_hint per
            # block) and the partial-residency target; at least one segment.
            hint = max(batch_hint, 1)
            rows_max = rows_total = 0
            for pp in passes:
                rows_max = max(rows_max, pp.keys.shape[1])
                rows_total += pp.keys.shape[1]
            budget_limit = gather_budget // max(gmax * rows_max * hint, 1)
            stream_limit = _BLOCKED_PARTIAL_BYTES // max(
                8 * rows_total * hint, 1)
            segs_per_block = max(1, min(budget_limit, stream_limit))
            for lo in range(0, num_segments, segs_per_block):
                hi = min(lo + segs_per_block, num_segments)
                for p in range(len(passes)):
                    instructions.append(("plane_block", p, lo, hi))
                for s in range(lo, hi):
                    for p in range(len(passes)):
                        instructions.append(("scale", s, p))
    for k in range(len(offset_slices)):
        instructions.append(("offset", k))

    program = CompiledProgram(
        m=m, n=n, mu=mu, num_segments=num_segments, slots_per_segment=gmax,
        lut_cols=lut_cols, passes=tuple(passes), offsets=offsets,
        offset_slices=offset_slices, instructions=tuple(instructions),
        stats_base=base, stats_slope=slope, tier=tier,
        gather_budget=gather_budget, groups=groups)
    if os.environ.get("REPRO_VERIFY"):
        # Structural verification of every freshly compiled program
        # (including prepare() and the serving pools' shard sub-programs).
        # Lazy import: analysis depends on this module.
        from repro.analysis.verify import verify_program
        verify_program(program, plan=plan, config=config, shard=shard)
    return program
