"""Functional model of the FIGLUT matrix processing unit (MPU).

The MPU (Fig. 4) is a 2-D array of processing elements.  In this model:

* each PE **row** is bound to one activation group of µ consecutive input
  channels; the LUT contents generated for that group are reused by every PE
  in the row (the paper forwards LUT values along the row for data reuse);
* each PE **column** is bound to one block of ``k`` output channels; partial
  sums accumulate across the PEs of a column (across activation groups);
* weights stay stationary: the µ-bit patterns of the current weight tile are
  latched into the RAC key registers, and the activation stream (one batch
  element at a time) flows through;
* for BCQ weights the schedule iterates all bit planes of a tile before
  moving on (Fig. 5b), scaling each plane's partial sums by its α and adding
  the offset term once per output at the end.

The simulation is split into a *planner* and an *executor*:

* the planner (:func:`repro.core.dataflow.plan_bcq_tile_execution`) cuts the
  weight-stationary schedule into column segments that never cross a BCQ
  scale-group boundary, so every partial sum goes through the LUT-entry /
  accumulator numerics and ``accumulate_dtype`` is honoured everywhere (the
  seed's multi-group tiles silently fell back to a float64 matmul);
* the executor (:meth:`MatrixProcessingUnit.gemm`) lowers the plan once into
  a flat :class:`~repro.core.program.CompiledProgram`
  (:func:`~repro.core.program.compile_plan`) and runs it as one native
  kernel call — LUT tables built once per column segment and reused
  across bit planes and row tiles — while the stats counters (LUT
  generations, LUT reads, accumulations, generator additions, cycles) are
  derived analytically from the plan.

:meth:`MatrixProcessingUnit.gemm_reference` is the independent oracle: the
scalar per-(batch, group) walk of the *same* plan, incrementing every
counter as the loops run.  The compiled executor is bit-exact against it
(outputs *and* counters), which the equivalence tests pin down.
:meth:`MatrixProcessingUnit.plan_stats` returns the counters alone,
without touching any activation data.

Mixed precision (``BCQTensor.per_row_bits``) is honoured end to end: the
plan's :class:`~repro.core.dataflow.RowBand` entries carry per-band plane
counts, the executor and the reference walk only each band's planes (a
row whose planes are exhausted is gated — it reads no LUT entry,
accumulates nothing, and its remaining scales are never touched), and every
counter is a plan-weighted sum, so a Q2.4-style model costs
``mean(per_row_bits)`` passes rather than ``bitplanes.shape[0]``.

For serving (:mod:`repro.serve`), :meth:`MatrixProcessingUnit.prepare`
plans and compiles a tensor once — the program depends only on the
weights, which a serving worker keeps stationary — so repeated
:meth:`gemm` calls only touch activations.
"""

# repro: bit-exact — the executor and the reference in this module are
# bound by the bitwise compiled == reference contract (docs/analysis.md).

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dataflow import (
    TileExecutionPlan,
    TilingConfig,
    plan_bcq_tile_execution,
)
from repro.core.lut import build_lut_values
from repro.core.lut_generator import generator_addition_count
from repro.quant.bcq import BCQTensor
from repro.telemetry import get_telemetry

if TYPE_CHECKING:
    from repro.core.program import CompiledProgram

__all__ = ["MPUConfig", "MPURunStats", "MatrixProcessingUnit", "PreparedWeights"]


def _normalize_activations(activations: np.ndarray, expected_rows: int,
                           order: str = "F") -> tuple[np.ndarray, bool]:
    """Normalize ``(N,)`` / ``(N, batch)`` activations to float64 2-D in
    ``order``: column-contiguous (``"F"``) by default.

    The single input-handling path shared by the compiled
    :meth:`~repro.core.program.CompiledProgram.execute` (which hands the
    native kernel row-major ``"C"`` activations) and the scalar
    ``gemm_reference``, so the two cannot drift on shape or dtype handling.
    The reference's layout is part of its numerics: NumPy reduces a
    column-contiguous group with its pairwise sum but walks a C-order one
    row by row, so the offset stage's bits would otherwise depend on how
    the caller's array is laid out.  Column-contiguous, every column is
    summed alone and the same way at any batch width or column chunking,
    which is the order the kernel replays.  Returns ``(x, squeeze)`` where
    ``squeeze`` records that the caller should return a vector.
    """
    x = np.asarray(activations, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    x = np.asarray(x, order=order)
    if x.shape[0] != expected_rows:
        raise ValueError(
            f"activation rows {x.shape[0]} != weight cols {expected_rows}")
    return x, squeeze


@dataclass(frozen=True)
class MPUConfig:
    """Geometry of the MPU PE array.

    Attributes
    ----------
    pe_rows:
        Number of PE rows (activation groups handled per tile).
    pe_cols:
        Number of PE columns (output-channel blocks per tile).
    mu:
        LUT key width; each PE row consumes µ input channels.
    k:
        RACs per PE; each PE column produces k output channels.
    """

    pe_rows: int = 16
    pe_cols: int = 2
    mu: int = 4
    k: int = 32

    def __post_init__(self) -> None:
        for name in ("pe_rows", "pe_cols", "mu", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def tile_n(self) -> int:
        """Input channels covered by one weight tile."""
        return self.pe_rows * self.mu

    @property
    def tile_m(self) -> int:
        """Output channels covered by one weight tile."""
        return self.pe_cols * self.k


@dataclass
class MPURunStats:
    """Counters produced by one MPU GEMM run."""

    lut_generations: int = 0
    lut_reads: int = 0
    accumulations: int = 0
    generator_additions: int = 0
    scale_multiplications: int = 0
    offset_additions: int = 0
    cycles: int = 0
    tiles: int = 0
    bit_planes_processed: int = 0

    def merge(self, other: MPURunStats) -> MPURunStats:
        """Counter-wise sum of two runs (e.g. the layers of a model)."""
        return MPURunStats(*(getattr(self, f.name) + getattr(other, f.name)
                             for f in fields(self)))


@dataclass(frozen=True)
class PreparedWeights:
    """Weight-stationary state of one BCQ tensor, precomputed for serving.

    The plan and its compiled program depend only on the weights — exactly
    the state a weight-stationary worker keeps resident — so a serving pool
    builds them once per layer and every subsequent GEMM only touches
    activations.  :meth:`MatrixProcessingUnit.gemm` on a prepared
    tensor is bit-identical to running the raw tensor.

    Attributes
    ----------
    weights, plan:
        The tensor and its tile-execution plan (plan construction is also
        amortised away).
    program:
        The plan lowered to a flat :class:`~repro.core.program.
        CompiledProgram` (its RAC key matrices packed once), which every
        :meth:`MatrixProcessingUnit.gemm` on prepared weights executes.
    config:
        The MPU geometry the plan was made for; a run's counters are the
        plan's under it.
    """

    weights: BCQTensor
    plan: TileExecutionPlan
    program: CompiledProgram
    config: MPUConfig


class MatrixProcessingUnit:
    """Planner/executor simulation of the FIGLUT MPU."""

    def __init__(self, config: MPUConfig | None = None) -> None:
        self.config = config or MPUConfig()

    # -- planning ----------------------------------------------------------
    def plan(self, weights: BCQTensor) -> TileExecutionPlan:
        """The scale-group-aligned tile execution plan for ``weights``."""
        cfg = self.config
        m, n = weights.shape
        return plan_bcq_tile_execution(
            m, n, weights.bits,
            TilingConfig(tile_m=cfg.tile_m, tile_n=cfg.tile_n),
            mu=cfg.mu, group_size=weights.group_size,
            per_row_bits=weights.per_row_bits)

    def plan_stats(self, weights: BCQTensor, batch: int) -> MPURunStats:
        """Analytic run counters for a GEMM of ``weights`` against ``batch``
        activation columns, derived from the plan without executing it."""
        return self.stats_from_plan(self.plan(weights), batch)

    def stats_from_plan(self, plan: TileExecutionPlan, batch: int) -> MPURunStats:
        """The run counters of ``plan`` at ``batch`` activation columns: the
        one source of every :class:`MPURunStats` a GEMM reports."""
        if batch < 0:
            raise ValueError("batch must be >= 0")
        cfg = self.config
        stats = MPURunStats()
        stats.tiles = plan.num_tiles
        # A geometric tile's segments ride through the array together: one
        # systolic pass per (row band, column band, bit plane), exactly the
        # Fig. 5b schedule — a band executes only its own plane count, so a
        # mixed-precision plan takes fewer passes.  Splitting at scale-group
        # boundaries changes the numerics, not the streaming cost.
        tile_plane_passes = plan.plane_passes * plan.num_bands
        stats.bit_planes_processed = tile_plane_passes
        stats.cycles = tile_plane_passes * (batch + cfg.pe_rows + cfg.pe_cols)
        # Per segment pass: one LUT generation per (µ-group, batch column) —
        # the generator runs for the whole pass regardless of which rows are
        # still active; one read and one accumulation per (*active* output
        # row, µ-group, batch column) — a row whose planes are exhausted is
        # gated; one α multiplication per (active row, batch column).  A
        # scale-group boundary that is not µ-aligned starts a fresh padded
        # µ-group (α is applied per LUT read, so a µ-group must be
        # group-pure), which the per-segment group counts reflect.
        per_band_groups = plan.lut_group_total
        row_planes = plan.plane_bits_total  # Σ over rows of per-row bits
        stats.lut_generations = batch * plan.plane_passes * per_band_groups
        stats.lut_reads = batch * row_planes * per_band_groups
        stats.accumulations = stats.lut_reads
        stats.scale_multiplications = batch * row_planes * len(plan.segments)
        stats.offset_additions = plan.m * batch * plan.num_scale_groups
        stats.generator_additions = (
            stats.lut_generations * generator_addition_count(cfg.mu))
        return stats

    def affine_stats(self, plan: TileExecutionPlan
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-counter ``(intercept, slope)`` of :meth:`stats_from_plan`.

        Every counter is affine in the batch, so batches 0 and 1 pin it
        exactly; ``intercept + slope * batch`` is the counter at any batch.
        """
        at0, at1 = self.stats_from_plan(plan, 0), self.stats_from_plan(plan, 1)
        base = tuple(getattr(at0, f.name) for f in fields(MPURunStats))
        slope = tuple(getattr(at1, f.name) - b
                      for f, b in zip(fields(MPURunStats), base, strict=True))
        return base, slope

    @staticmethod
    def _segment_groups(x: np.ndarray, seg, mu: int) -> np.ndarray:
        """Zero-pad the segment's activations to whole µ-groups.

        Returns an array of shape ``(lut_groups, µ, batch)``.
        """
        xg = x[seg.col_slice, :]
        pad = seg.lut_groups * mu - seg.width
        if pad:
            xg = np.concatenate(
                [xg, np.zeros((pad, x.shape[1]), dtype=xg.dtype)], axis=0)
        return xg.reshape(seg.lut_groups, mu, x.shape[1])

    @staticmethod
    def _segment_keys(plane_w: np.ndarray, seg, mu: int,
                      powers: np.ndarray) -> np.ndarray:
        """RAC keys of a bit-plane slice, padded with −1 weights.

        ``plane_w`` holds the segment's ±1 entries of shape ``(rows,
        width)``; the result is the integer key matrix ``(rows,
        lut_groups)``.  Padding a key with −1 weights pairs with the
        zero-padded activations, so padded positions contribute exactly zero.
        """
        rows = plane_w.shape[0]
        pad = seg.lut_groups * mu - seg.width
        if pad:
            plane_w = np.concatenate(
                [plane_w, -np.ones((rows, pad), dtype=np.int64)], axis=1)
        patt = plane_w.reshape(rows, seg.lut_groups, mu)
        # Integer sum over µ key bits: exact in any order.
        return (((patt + 1) // 2) * powers[None, None, :]).sum(axis=2)  # repro: noqa reassociating-reduction

    # -- weight-stationary preparation -------------------------------------
    def prepare(self, weights: BCQTensor,
                plan: TileExecutionPlan | None = None) -> PreparedWeights:
        """Plan and compile ``weights`` once for serving.

        A weight-stationary worker latches the weight tile's µ-bit patterns
        into the RAC key registers once; this models that by lowering the
        plan to a :class:`~repro.core.program.CompiledProgram` (keys packed
        into its flat buffers) up front, so repeated :meth:`gemm` calls
        only touch activations.  ``plan`` lets a caller that already
        planned the tensor (e.g. the :class:`~repro.models.
        quantized_model.QuantizedLM` plan memo) skip re-planning.
        """
        from repro.core.program import compile_plan  # mpu ↔ program cycle
        plan = plan if plan is not None else self.plan(weights)
        return PreparedWeights(weights=weights, plan=plan,
                               program=compile_plan(plan, weights),
                               config=self.config)

    # -- executor ------------------------------------------------------------
    def gemm(self, weights: BCQTensor | PreparedWeights,
             activations: np.ndarray,
             accumulate_dtype: np.dtype | type = np.float64
             ) -> tuple[np.ndarray, MPURunStats]:
        """Compute ``Y = W X`` where ``W`` is BCQ-quantized.

        Parameters
        ----------
        weights:
            BCQ weight tensor of logical shape ``(M, N)``, or the
            :class:`PreparedWeights` from :meth:`prepare` (bit-identical,
            skips planning and compilation).
        activations:
            Activation matrix of shape ``(N,)`` or ``(N, batch)``.
        accumulate_dtype:
            Dtype of the LUT entries *and* of the per-segment RAC
            accumulators: float16, float32 (the FP32 accumulators the
            paper uses) or float64 (a reference result).  The α scaling
            and the cross-tile/offset accumulation stay in float64, as in
            the seed model.

        Every call runs a :class:`~repro.core.program.CompiledProgram`
        (:meth:`run`): the one embedded in :class:`PreparedWeights`, or
        one prepared on the fly for a raw tensor.

        Returns
        -------
        (Y, stats):
            ``Y`` has shape ``(M, batch)`` (or ``(M,)`` for vector input);
            ``stats`` is :meth:`stats_from_plan` of the weights' plan under
            the geometry they were prepared for, identical to the counters
            :meth:`gemm_reference` increments.
        """
        if not isinstance(weights, PreparedWeights):
            weights = self.prepare(weights)
        y = self.run(weights, activations, accumulate_dtype)
        return y, MatrixProcessingUnit(weights.config).stats_from_plan(
            weights.plan, 1 if y.ndim == 1 else y.shape[1])

    def run(self, weights: PreparedWeights, activations: np.ndarray,
            accumulate_dtype: np.dtype | type = np.float64) -> np.ndarray:
        """:meth:`gemm`'s ``Y`` alone, on prepared weights: the decode
        path's GEMM hook, whose counters are counted per pass."""
        program = weights.program
        tel = get_telemetry()
        if not tel.enabled:
            return program.execute(activations,
                                   accumulate_dtype=accumulate_dtype)
        # The "mpu.gemm" span, from explicit stamps: a context-manager span
        # would cost ~0.4 µs more on every traced GEMM.
        start = time.perf_counter_ns()
        try:
            return program.execute(activations,
                                    accumulate_dtype=accumulate_dtype)
        finally:
            tel.trace.record("mpu.gemm", start, time.perf_counter_ns(),
                             m=program.m, n=program.n)

    # -- scalar reference ----------------------------------------------------
    def gemm_reference(self, weights: BCQTensor, activations: np.ndarray,
                       accumulate_dtype: np.dtype | type = np.float64
                       ) -> tuple[np.ndarray, MPURunStats]:
        """Scalar per-(batch, group) walk of the execution plan.

        This is the independent oracle the compiled :meth:`gemm` is verified
        against bit-for-bit: one :func:`build_lut_values` call per (step,
        batch column, µ-group), counters incremented as the loops run.
        Orders of magnitude slower than :meth:`gemm` — use only for
        equivalence testing.
        """
        cfg = self.config
        x, squeeze = _normalize_activations(activations, weights.shape[1])
        m, _ = weights.shape
        batch = x.shape[1]
        acc_dtype = np.dtype(accumulate_dtype)

        plan = self.plan(weights)
        stats = MPURunStats()
        y = np.zeros((m, batch), dtype=np.float64)
        powers = 1 << np.arange(cfg.mu - 1, -1, -1, dtype=np.int64)
        row_bits = np.asarray(weights.per_row_bits, dtype=np.int64)

        seen_tiles: set[int] = set()
        seen_passes: set[tuple[int, int]] = set()
        for step in plan.steps():
            seg = step.segment
            rsl = step.row_slice
            if step.tile_index not in seen_tiles:
                seen_tiles.add(step.tile_index)
                stats.tiles += 1
            # The segments of one geometric tile stream through the array in
            # a single systolic pass per bit plane; charge the pass when the
            # plane enters the tile's first segment.
            if (step.tile_index, step.bit_plane) not in seen_passes:
                seen_passes.add((step.tile_index, step.bit_plane))
                stats.bit_planes_processed += 1
                stats.cycles += batch + cfg.pe_rows + cfg.pe_cols

            # Rows of the band still holding planes on this pass; the rest
            # are gated (no LUT read, no accumulation, no α multiply).
            active = np.flatnonzero(row_bits[rsl] > step.bit_plane) + rsl.start
            rows = active.size

            plane_w = weights.bitplanes[step.bit_plane][active][:, seg.col_slice]
            keys = self._segment_keys(plane_w.astype(np.int64), seg, cfg.mu,
                                      powers)
            xg = self._segment_groups(x, seg, cfg.mu)  # (G, µ, B)

            tile_partial = np.zeros((rows, batch), dtype=acc_dtype)
            for b in range(batch):
                for g in range(seg.lut_groups):
                    lut_values = build_lut_values(xg[g, :, b], dtype=acc_dtype)
                    stats.lut_generations += 1
                    tile_partial[:, b] += lut_values[keys[:, g]]
                    stats.lut_reads += rows
                    stats.accumulations += rows

            alpha = weights.scales[step.bit_plane][active, seg.scale_group]
            y[active, :] += alpha[:, None] * tile_partial.astype(np.float64)
            stats.scale_multiplications += rows * batch

        # y += z_rg · Σ(x over group g), once per output, ascending groups.
        col_groups = weights.column_groups()
        for g in range(plan.num_scale_groups):
            # NumPy's pairwise column sum over column-contiguous x: the
            # kernel's offset stage replays its order (figlut_kernel.c).
            group_sum = x[col_groups[g], :].sum(axis=0, keepdims=True)  # repro: noqa reassociating-reduction
            y += weights.offsets[:, g][:, None] * group_sum
            stats.offset_additions += m * batch

        # Each LUT generation uses the shared-partial-sum generator.
        stats.generator_additions = stats.lut_generations * generator_addition_count(cfg.mu)

        if squeeze:
            return y[:, 0], stats
        return y, stats
