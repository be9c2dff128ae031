"""Execution-free structural verifiers for plans and compiled programs.

:func:`verify_plan` and :func:`verify_program` check every invariant the
executors rely on — buffer geometry, sentinel integrity, scatter
disjointness, agreement with the plan — without running a single GEMM.  A
violated invariant raises a :class:`VerificationError` subclass whose
``invariant`` attribute (and message prefix) names exactly which contract
broke, so a CI failure or a ``REPRO_VERIFY=1`` compile-time check points
at the bug, not at a mismatching output matrix three layers later.

Invariant catalogue
-------------------
Plan (:func:`verify_plan`):

``row-band-partition``      row bands tile ``[0, m)`` in order, disjoint.
``row-band-planes``         ``1 <= planes <= bits`` per non-empty band.
``active-rows-monotone``    ``active_rows_per_plane`` starts at the band's
                            row count and never increases with the plane.
``segment-partition``       each ``tile_n`` column band is covered exactly
                            by its segments, ascending, gap-free.
``segment-scale-group``     no segment spans a scale-group boundary.
``segment-lut-groups``      ``lut_groups == ceil(width / µ)``.

Program (:func:`verify_program`):

``program-geometry``        slot count, buffer shapes, dtypes.
``lut-cols-bounds``         gather indices in ``[0, n]`` (``n`` = sentinel).
``lut-cols-layout``         per segment block: non-sentinel indices form
                            one contiguous ascending column run; padded
                            slots are a suffix.
``sentinel-zero-keys``      fully padded slots carry key 0 in every plane
                            (they must read the all-zero LUT row).
``keys-range``              RAC keys in ``[0, 2^µ)``.
``scatter-rows``            per-plane scatter indices unique, sorted,
                            in-bounds — each output row accumulated at
                            most once per (segment, plane) update.
``plane-rows-nested``       plane ``p+1``'s active rows are a subset of
                            plane ``p``'s (per-row plane counts shrink).
``scales-shape``            α matrix is ``(num_segments, rows_p)``.
``offset-slices``           offset column spans valid, ascending,
                            disjoint; one offset column per span.
``plane-mask-active-rows``  per-plane scatter rows agree with each band's
                            ``active_rows_per_plane`` (plan required).
``segment-cols-match``      each slot block's column run equals its
                            segment's ``col_slice`` (plan required).
"""

from __future__ import annotations

import numpy as np

from repro.core.dataflow import TileExecutionPlan
from repro.core.program import CompiledProgram

__all__ = [
    "PlanInvariantError",
    "ProgramInvariantError",
    "VerificationError",
    "verify_plan",
    "verify_program",
]


class VerificationError(AssertionError):
    """A structural invariant is violated; ``invariant`` names which."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


class PlanInvariantError(VerificationError):
    """A :class:`TileExecutionPlan` invariant is violated."""


class ProgramInvariantError(VerificationError):
    """A :class:`CompiledProgram` invariant is violated."""


def _plan_fail(invariant: str, message: str) -> None:
    raise PlanInvariantError(invariant, message)


def _prog_fail(invariant: str, message: str) -> None:
    raise ProgramInvariantError(invariant, message)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def verify_plan(plan: TileExecutionPlan) -> None:
    """Check the structural invariants of a tile-execution plan.

    Raises :class:`PlanInvariantError` (with the violated invariant named)
    on the first failure; returns ``None`` when the plan is sound.
    """
    m, n = plan.m, plan.n

    # Row bands partition [0, m) in order.
    cursor = 0
    for pos, band in enumerate(plan.row_bands):
        sl = band.row_slice
        if sl.start != cursor or sl.stop <= sl.start or sl.stop > m:
            _plan_fail("row-band-partition",
                       f"band {pos} covers [{sl.start}, {sl.stop}) but the "
                       f"previous band ended at {cursor} (m={m})")
        if band.band_index != pos:
            _plan_fail("row-band-partition",
                       f"band at position {pos} carries band_index "
                       f"{band.band_index}")
        cursor = sl.stop
        if band.planes < 1 or band.planes > plan.bits:
            _plan_fail("row-band-planes",
                       f"band {pos} executes {band.planes} planes, outside "
                       f"[1, bits={plan.bits}]")
        active = band.active_rows_per_plane
        if len(active) != band.planes:
            _plan_fail("active-rows-monotone",
                       f"band {pos} lists {len(active)} active-row counts "
                       f"for {band.planes} planes")
        if active and active[0] != band.rows:
            _plan_fail("active-rows-monotone",
                       f"band {pos}: plane 0 must activate all {band.rows} "
                       f"rows, lists {active[0]}")
        for p in range(1, len(active)):
            if active[p] > active[p - 1] or active[p] < 1:
                _plan_fail("active-rows-monotone",
                           f"band {pos}: active rows must shrink "
                           f"monotonically and stay >= 1, got {active}")
    if cursor != m:
        _plan_fail("row-band-partition",
                   f"row bands end at {cursor}, not m={m}")

    # Segments cover each tile_n column band exactly, in ascending order,
    # without crossing a scale-group boundary.
    tile_n = plan.tiling.tile_n
    expected_bands = max((n + tile_n - 1) // tile_n, 0)
    if plan.num_bands != expected_bands:
        _plan_fail("segment-partition",
                   f"num_bands={plan.num_bands} but n={n}, tile_n={tile_n} "
                   f"gives {expected_bands}")
    cursor = 0
    prev_band = -1
    for pos, seg in enumerate(plan.segments):
        sl = seg.col_slice
        if seg.band_index < prev_band:
            _plan_fail("segment-partition",
                       f"segment {pos} belongs to band {seg.band_index} "
                       f"after band {prev_band}")
        if seg.band_index != prev_band:
            band_start = seg.band_index * tile_n
            if cursor != band_start:
                _plan_fail("segment-partition",
                           f"segments reach column {cursor} but band "
                           f"{seg.band_index} starts at {band_start}: a "
                           "column band was skipped or left uncovered")
            prev_band = seg.band_index
        band_stop = min((seg.band_index + 1) * tile_n, n)
        if sl.start != cursor or sl.stop <= sl.start or sl.stop > band_stop:
            _plan_fail("segment-partition",
                       f"segment {pos} covers [{sl.start}, {sl.stop}) but "
                       f"band {seg.band_index} expected the next run to "
                       f"start at {cursor} and end by {band_stop}")
        cursor = sl.stop
        lo_group = sl.start // plan.group_size
        hi_group = (sl.stop - 1) // plan.group_size
        if lo_group != hi_group or seg.scale_group != lo_group:
            _plan_fail("segment-scale-group",
                       f"segment {pos} [{sl.start}, {sl.stop}) labelled "
                       f"group {seg.scale_group}; columns span groups "
                       f"[{lo_group}, {hi_group}] (group_size="
                       f"{plan.group_size})")
        expected_groups = -(-seg.width // plan.mu)
        if seg.lut_groups != expected_groups:
            _plan_fail("segment-lut-groups",
                       f"segment {pos} width {seg.width} needs "
                       f"{expected_groups} µ-groups (µ={plan.mu}), lists "
                       f"{seg.lut_groups}")
    if cursor != n:
        _plan_fail("segment-partition",
                   f"segments end at column {cursor}, not n={n}")


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

def _segment_blocks(program: CompiledProgram):
    """Yield ``(segment_index, block)`` slot blocks of ``lut_cols``."""
    gmax = program.slots_per_segment
    for s in range(program.num_segments):
        yield s, program.lut_cols[s * gmax: (s + 1) * gmax]


def verify_program(program: CompiledProgram,
                   plan: TileExecutionPlan | None = None) -> None:
    """Check the structural invariants of a compiled program.

    Self-contained checks (geometry, sentinel integrity, scatter rows)
    always run.  Supplying the ``plan`` the program was compiled from
    additionally pins the program against the plan: segment columns,
    per-band plane masks and offset spans.

    Raises :class:`ProgramInvariantError` naming the violated invariant.
    """
    m, n, mu = program.m, program.n, program.mu

    # -- geometry ----------------------------------------------------------
    if m < 0 or n < 0 or mu < 1:
        _prog_fail("program-geometry", f"m={m}, n={n}, mu={mu}")
    if program.num_segments < 0 or program.slots_per_segment < 0:
        _prog_fail("program-geometry",
                   f"num_segments={program.num_segments}, slots_per_segment="
                   f"{program.slots_per_segment}")
    lut_cols = program.lut_cols
    if lut_cols.ndim != 2 or lut_cols.shape != (
            program.num_segments * program.slots_per_segment, mu):
        _prog_fail("program-geometry",
                   f"lut_cols shape {lut_cols.shape} != (num_segments × "
                   f"slots_per_segment, µ) = "
                   f"({program.num_segments * program.slots_per_segment}, {mu})")
    if not np.issubdtype(lut_cols.dtype, np.integer):
        _prog_fail("program-geometry",
                   f"lut_cols dtype {lut_cols.dtype} is not integral")

    # -- gather indices ----------------------------------------------------
    if lut_cols.size and (lut_cols.min() < 0 or lut_cols.max() > n):
        _prog_fail("lut-cols-bounds",
                   f"gather indices must lie in [0, n={n}] (n is the "
                   f"appended zero sentinel row); found range "
                   f"[{lut_cols.min()}, {lut_cols.max()}]")
    padded_slots = np.zeros(program.num_slots, dtype=bool)
    for s, block in _segment_blocks(program):
        flat = block.reshape(-1)
        real = flat[flat < n]
        sentinel_mask = flat == n
        if real.size:
            first_sentinel = int(np.argmax(sentinel_mask)) if sentinel_mask.any() \
                else flat.size
            if sentinel_mask[:first_sentinel].any() or \
                    not sentinel_mask[first_sentinel:].all():
                _prog_fail("lut-cols-layout",
                           f"segment {s}: sentinel padding must be a "
                           "suffix of the flattened slot block")
            if not np.array_equal(
                    real, np.arange(real[0], real[0] + real.size)):
                _prog_fail("lut-cols-layout",
                           f"segment {s}: non-sentinel gather indices must "
                           "form one contiguous ascending column run")
        slot_padded = (block == n).all(axis=1)
        padded_slots[s * program.slots_per_segment:
                     (s + 1) * program.slots_per_segment] = slot_padded

    # -- per-plane buffers -------------------------------------------------
    prev_rows: np.ndarray | None = None
    for p, pp in enumerate(program.passes):
        keys = pp.keys
        if keys.ndim != 2 or keys.shape[0] != program.num_slots:
            _prog_fail("program-geometry",
                       f"plane {p}: keys shape {keys.shape} != (num_slots="
                       f"{program.num_slots}, rows)")
        if not np.issubdtype(keys.dtype, np.integer):
            _prog_fail("program-geometry",
                       f"plane {p}: keys dtype {keys.dtype} is not integral")
        if keys.size and (keys.min() < 0 or keys.max() >= (1 << mu)):
            _prog_fail("keys-range",
                       f"plane {p}: RAC keys must lie in [0, 2^µ={1 << mu}); "
                       f"found range [{keys.min()}, {keys.max()}]")
        if padded_slots.any() and keys.size and keys[padded_slots].any():
            _prog_fail("sentinel-zero-keys",
                       f"plane {p}: fully padded slots must carry key 0 "
                       "(the all-zero LUT row) so they contribute +0.0")
        rows_p = keys.shape[1]
        if pp.rows is None:
            row_idx = np.arange(m, dtype=np.int64)
            if rows_p != m:
                _prog_fail("scatter-rows",
                           f"plane {p}: unmasked pass must cover all m={m} "
                           f"rows, keys cover {rows_p}")
        else:
            row_idx = np.asarray(pp.rows)
            if row_idx.ndim != 1 or row_idx.size != rows_p:
                _prog_fail("scatter-rows",
                           f"plane {p}: rows shape {row_idx.shape} does not "
                           f"match keys rows {rows_p}")
            if row_idx.size and (row_idx.min() < 0 or row_idx.max() >= m):
                _prog_fail("scatter-rows",
                           f"plane {p}: scatter indices out of bounds "
                           f"[0, m={m})")
            if np.unique(row_idx).size != row_idx.size or \
                    (row_idx.size > 1 and (np.diff(row_idx) <= 0).any()):
                _prog_fail("scatter-rows",
                           f"plane {p}: scatter indices must be strictly "
                           "increasing (unique) — each output row is "
                           "accumulated at most once per update")
        if prev_rows is not None and \
                not np.isin(row_idx, prev_rows).all():
            _prog_fail("plane-rows-nested",
                       f"plane {p}: active rows must be a subset of plane "
                       f"{p - 1}'s (per-row plane counts only shrink)")
        prev_rows = row_idx
        if pp.scales.shape != (program.num_segments, rows_p):
            _prog_fail("scales-shape",
                       f"plane {p}: scales shape {pp.scales.shape} != "
                       f"(num_segments={program.num_segments}, rows={rows_p})")

    # -- offsets -----------------------------------------------------------
    if program.offsets.ndim != 2 or program.offsets.shape != (
            m, len(program.offset_slices)):
        _prog_fail("offset-slices",
                   f"offsets shape {program.offsets.shape} != (m={m}, "
                   f"num_groups={len(program.offset_slices)})")
    prev_stop = 0
    for k, (start, stop) in enumerate(program.offset_slices):
        if not (0 <= start < stop <= n) or start < prev_stop:
            _prog_fail("offset-slices",
                       f"offset span {k} [{start}, {stop}) must be "
                       f"non-empty, inside [0, n={n}], and start at or "
                       f"after the previous span's stop {prev_stop}")
        prev_stop = stop

    # -- plan-pinned checks ------------------------------------------------
    if plan is None:
        return
    verify_plan(plan)
    if (m, n, mu) != (plan.m, plan.n, plan.mu):
        _prog_fail("program-geometry",
                   f"program is ({m}, {n}, µ={mu}) but plan is "
                   f"({plan.m}, {plan.n}, µ={plan.mu})")
    segments = plan.segments

    if program.num_segments != len(segments):
        _prog_fail("segment-cols-match",
                   f"program compiled {program.num_segments} segments, plan "
                   f"schedules {len(segments)}")
    gmax = max((seg.lut_groups for seg in segments), default=0)
    if program.slots_per_segment != gmax:
        _prog_fail("segment-cols-match",
                   f"slots_per_segment={program.slots_per_segment} but the "
                   f"widest scheduled segment needs {gmax} µ-groups")
    for (s, block), seg in zip(_segment_blocks(program), segments, strict=True):
        flat = block.reshape(-1)
        real = flat[flat < n]
        if real.size != seg.width or (real.size and (
                real[0] != seg.col_slice.start or
                real[-1] != seg.col_slice.stop - 1)):
            _prog_fail("segment-cols-match",
                       f"segment {s}: slot block gathers columns "
                       f"[{real[0] if real.size else '-'}, "
                       f"{real[-1] + 1 if real.size else '-'}) but the plan "
                       f"schedules [{seg.col_slice.start}, "
                       f"{seg.col_slice.stop})")

    # Plane masks against per-band active-row counts.
    bands = plan.row_bands
    max_planes = max((band.planes for band in bands), default=0)
    if len(program.passes) != max_planes:
        _prog_fail("plane-mask-active-rows",
                   f"program has {len(program.passes)} plane passes, the "
                   f"plan's widest row band executes {max_planes}")
    for p, pp in enumerate(program.passes):
        row_idx = np.arange(m, dtype=np.int64) if pp.rows is None \
            else np.asarray(pp.rows)
        for band in bands:
            expected_active = band.active_rows_per_plane[p] \
                if p < band.planes else 0
            got = int(((row_idx >= band.row_slice.start) &
                       (row_idx < band.row_slice.stop)).sum())
            if got != expected_active:
                _prog_fail("plane-mask-active-rows",
                           f"plane {p}, band {band.band_index}: scatter "
                           f"mask activates {got} rows, the plan says "
                           f"{expected_active}")

    # Offset spans must be exactly the scale groups' columns.
    group_size = plan.group_size
    expected_slices = tuple(
        (g * group_size, min((g + 1) * group_size, n))
        for g in range(plan.num_scale_groups))
    if program.offset_slices != expected_slices:
        _prog_fail("offset-slices",
                   f"offset spans {program.offset_slices} do not match the "
                   f"plan's {plan.num_scale_groups} scale groups "
                   f"(group_size={group_size})")

