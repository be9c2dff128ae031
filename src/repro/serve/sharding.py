"""Partitioning a tile-execution plan into worker shards.

The FIGLUT tile plan is embarrassingly parallel: every
:class:`~repro.core.dataflow.ColumnSegment` of every
:class:`~repro.core.dataflow.RowBand` can execute independently, with only
the final output reduction coupling them.  This module cuts a
:class:`~repro.core.dataflow.TileExecutionPlan` into per-worker
:class:`~repro.core.dataflow.PlanShard` slices with *balanced plane-pass
cost* and provides the matching reducer.

Two shard axes exist, with different reduction semantics:

* ``axis="rows"`` (the default) partitions the plan's row bands.  Output
  rows are disjoint across bands, so the merge is a pure scatter —
  **bit-exact** against the unsharded
  :meth:`~repro.core.mpu.MatrixProcessingUnit.gemm` (each output element
  sees the identical floating-point addition sequence): each shard owns a
  slice of the output channels.
* ``axis="segments"`` partitions the column bands (segments grouped by
  their geometric ``tile_n`` band, so the modelled systolic passes stay
  additive).  Every worker then produces a dense partial output that the
  reducer must *sum*; float addition is non-associative, so the merged
  output matches the unsharded run to accumulator rounding, not
  bit-for-bit.  The :class:`~repro.core.mpu.MPURunStats` counters remain
  exactly additive on both axes (each BCQ scale group's offset term is
  owned by exactly one shard).

Balancing uses longest-processing-time (LPT) greedy assignment over the
per-unit plane-pass cost (systolic passes × µ-groups per pass), which is
what the modelled cycles count; shards that would receive no work are
dropped, so ``shard_plan(plan, k)`` returns at most ``k`` shards.

A shard executes through :meth:`~repro.core.mpu.MatrixProcessingUnit.gemm`
with ``shard=`` (a segment shard is its own
:func:`~repro.core.program.compile_plan` sub-program, a row shard the
row-sliced tensor's program).  The serving pool does not shard plans: it
runs one whole program per layer and splits activation columns instead
(:mod:`repro.serve.workers`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.dataflow import PlanShard, TileExecutionPlan
from repro.core.mpu import MPURunStats

__all__ = ["shard_plan", "merge_shard_outputs"]


def _lpt_partition(costs: Sequence[int], num_shards: int) -> list[list[int]]:
    """Greedy longest-processing-time partition of unit indices.

    Deterministic: units are taken in descending (cost, -index) order and
    each goes to the least-loaded shard (lowest index on ties).  Empty
    shards are dropped.
    """
    buckets: list[list[int]] = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    for i in order:
        w = min(range(num_shards), key=lambda s: (loads[s], s))
        buckets[w].append(i)
        loads[w] += costs[i]
    return [sorted(b) for b in buckets if b]


def shard_plan(plan: TileExecutionPlan, num_shards: int,
               axis: str = "rows") -> list[PlanShard]:
    """Cut a plan into at most ``num_shards`` balanced worker shards.

    ``axis="rows"`` partitions row bands (bit-exact scatter merge);
    ``axis="segments"`` partitions column bands (summing merge, exact
    stats).  The unit costs are plane-pass streaming costs — a row band
    costs its ``planes`` systolic passes regardless of how many rows it
    holds, a column band costs its µ-groups per pass — so the modelled
    per-shard cycles come out balanced, not merely the unit counts.
    ``num_shards`` larger than the number of units yields one shard per
    unit.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if axis == "rows":
        units = list(range(len(plan.row_bands)))
        # Pass cost per band: one systolic pass per plane through every
        # column band's µ-groups (rows don't change the pass length).
        costs = [plan.row_bands[i].planes * max(plan.lut_group_total, 1)
                 for i in units]
        assignments = _lpt_partition(costs, num_shards)
        return [plan.shard_rows(band_idx, index=i, count=len(assignments))
                for i, band_idx in enumerate(assignments)]
    if axis == "segments":
        # Units are geometric column bands: the segments of one band ride
        # through the array in a single systolic pass, so splitting a band
        # across workers would double-charge the modelled pass.
        band_segments: dict[int, list[int]] = {}
        for i, seg in enumerate(plan.segments):
            band_segments.setdefault(seg.band_index, []).append(i)
        bands = sorted(band_segments)
        costs = [plan.plane_passes * sum(plan.segments[i].lut_groups
                                         for i in band_segments[b])
                 for b in bands]
        assignments = _lpt_partition(costs, num_shards)
        shards = []
        for i, band_idx in enumerate(assignments):
            seg_idx = sorted(j for b in band_idx for j in band_segments[bands[b]])
            shards.append(plan.shard_segments(seg_idx, index=i,
                                              count=len(assignments)))
        return shards
    raise ValueError("axis must be 'rows' or 'segments'")


def _validate_partition(shards: Sequence[PlanShard]) -> tuple[TileExecutionPlan, str]:
    if not shards:
        raise ValueError("cannot merge an empty shard list")
    plan = shards[0].plan
    axis = shards[0].axis
    for shard in shards[1:]:
        if shard.plan is not plan and shard.plan != plan:
            raise ValueError("shards were cut from different plans")
        if shard.axis != axis:
            raise ValueError("shards mix shard axes")
    if axis == "rows":
        covered = np.concatenate([s.row_indices for s in shards]) if shards else []
        if (np.bincount(np.asarray(covered, dtype=np.int64), minlength=plan.m)
                != 1).any():
            raise ValueError("row shards do not partition the plan's output rows")
    else:
        seg_idx = [j for s in shards for j in s.segment_indices]
        if sorted(seg_idx) != list(range(len(plan.segments))):
            raise ValueError("segment shards do not partition the plan's segments")
        owned = sorted(g for s in shards for g in s.owned_scale_groups)
        if owned != list(range(plan.num_scale_groups)):
            raise ValueError("segment shards do not partition the scale groups")
    return plan, axis


def merge_shard_outputs(shards: Sequence[PlanShard],
                        results: Sequence[tuple[np.ndarray, MPURunStats]]
                        ) -> tuple[np.ndarray, MPURunStats]:
    """Reduce per-shard ``(output, stats)`` pairs to the full GEMM result.

    ``shards`` must form a complete partition of one plan (as produced by
    :func:`shard_plan`); ``results[i]`` is what
    :meth:`~repro.core.mpu.MatrixProcessingUnit.gemm` returned for
    ``shards[i]``.  Row-axis outputs are scattered into their disjoint
    row positions — bit-exact, no float operation touches two shards'
    values — while segment-axis partials are summed in shard order.
    Stats are counter-wise sums on either axis and equal the unsharded
    run's counters exactly.
    """
    plan, axis = _validate_partition(shards)
    if len(results) != len(shards):
        raise ValueError("results must align one-to-one with shards")

    outputs = [np.asarray(y) for y, _ in results]
    squeeze = outputs[0].ndim == 1
    stats = MPURunStats()
    for _, s in results:
        stats = stats.merge(s)

    if axis == "rows":
        batch = 1 if squeeze else outputs[0].shape[1]
        y = np.zeros((plan.m, batch), dtype=np.float64)
        for shard, out in zip(shards, outputs, strict=True):
            block = out[:, None] if out.ndim == 1 else out
            if block.shape != (shard.rows, batch):
                raise ValueError(
                    f"shard output shape {block.shape} != ({shard.rows}, {batch})")
            y[shard.row_indices] = block
        return (y[:, 0], stats) if squeeze else (y, stats)

    y = np.zeros_like(outputs[0], dtype=np.float64)
    for shard, out in zip(shards, outputs, strict=True):
        if out.shape != outputs[0].shape:
            raise ValueError("segment shard outputs disagree on shape")
        y += out
    return y, stats
