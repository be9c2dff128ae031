"""Weight-stationary tiling in the FP-BCQ fetch order (Fig. 5): the tile
execution planner shared by the MPU simulation and the analytical models.

The MPU processes a GEMM ``Y = W X`` (weights ``W`` of shape ``(M, N)``,
activations ``X`` of shape ``(N, batch)``) tile by tile:

* a *weight tile* covers ``tile_m`` output channels × ``tile_n`` input
  channels and stays resident in the PE array (weight-stationary);
* inputs for the tile's ``tile_n`` channels are streamed through, one
  activation group per cycle per PE row;
* for BCQ weights with ``q`` bit-planes, the accelerator iterates the **bit
  planes of the same tile before moving to the next tile** (Fig. 5b), so each
  input tile is fetched once and reused across all bit planes.

The *planner* (:func:`plan_bcq_tile_execution`) materialises that schedule
as a :class:`TileExecutionPlan` whose column extents are additionally
**split at BCQ scale-group boundaries**, so every planned segment carries
exactly one scale column.  The compiled MPU executor and its scalar
reference both walk this plan, and every ``MPURunStats`` counter is derived
from it (``MatrixProcessingUnit.stats_from_plan``); splitting at group
boundaries is what lets every partial sum go through the LUT/accumulator
numerics.

The planner also carries **mixed precision**: ``per_row_bits`` assigns each
output row its own BCQ plane count (ShiftAddLLM-style allocation, the
"FIGLUT-Q2.4" configurations of Fig. 17).  Each ``tile_m`` row band becomes
a :class:`RowBand` whose ``planes`` is the widest row it contains — on a
bit-serial array the band's systolic pass must run once per plane of its
widest row — while rows whose planes are exhausted sit out the remaining
passes (their RACs are gated).  Every derived count (``num_steps``,
:meth:`TileExecutionPlan.steps`, the analytic MPU stats and the plan-driven
memory traffic) is therefore a plan-weighted sum over bands, not ``× bits``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TilingConfig",
    "ColumnSegment",
    "RowBand",
    "TileStep",
    "TileExecutionPlan",
    "plan_bcq_tile_execution",
]


@dataclass(frozen=True)
class TilingConfig:
    """Tile sizes of the weight-stationary schedule.

    ``tile_m`` is the number of output channels a tile covers (PE columns ×
    k RACs for FIGLUT), ``tile_n`` the number of input channels (PE rows ×
    µ for FIGLUT).
    """

    tile_m: int
    tile_n: int

    def __post_init__(self) -> None:
        if self.tile_m < 1 or self.tile_n < 1:
            raise ValueError("tile sizes must be >= 1")

    def num_tiles(self, m: int, n: int) -> int:
        tiles_m = (m + self.tile_m - 1) // self.tile_m
        tiles_n = (n + self.tile_n - 1) // self.tile_n
        return tiles_m * tiles_n


def _tile_slices(extent: int, tile: int) -> list[slice]:
    return [slice(start, min(start + tile, extent)) for start in range(0, extent, tile)]


@dataclass(frozen=True)
class ColumnSegment:
    """A run of input channels inside one tile band and one BCQ scale group.

    The planner cuts every ``tile_n`` column band at scale-group boundaries,
    so a segment never spans two groups: its whole contribution is scaled by
    the single ``scales[plane][:, scale_group]`` column.

    Attributes
    ----------
    col_slice:
        The segment's input-channel columns.
    scale_group:
        Index of the BCQ scale group the columns belong to.
    band_index:
        Index of the geometric ``tile_n`` band the segment was cut from.
    lut_groups:
        Number of µ-wide LUT activation groups the segment occupies
        (``ceil(width / µ)``; the last group is padded in hardware).
    """

    col_slice: slice
    scale_group: int
    band_index: int
    lut_groups: int

    @property
    def width(self) -> int:
        return self.col_slice.stop - self.col_slice.start


@dataclass(frozen=True)
class RowBand:
    """A ``tile_m`` band of output rows together with its bit-plane budget.

    Attributes
    ----------
    row_slice:
        The band's output rows.
    band_index:
        Index of the geometric ``tile_m`` band.
    planes:
        Bit planes the band executes: the maximum ``per_row_bits`` of its
        rows.  A bit-serial pass streams the whole band, so the widest row
        sets the pass count.
    active_rows_per_plane:
        For each plane ``p`` (length ``planes``), how many of the band's
        rows still have planes to process (``per_row_bits > p``).  Rows
        whose planes are exhausted are gated: they read no LUT entry and
        accumulate nothing, which the analytic stats reflect.
    """

    row_slice: slice
    band_index: int
    planes: int
    active_rows_per_plane: tuple[int, ...]

    @property
    def rows(self) -> int:
        return self.row_slice.stop - self.row_slice.start

    @property
    def plane_row_total(self) -> int:
        """Σ over the band's rows of their plane counts (= Σ per-row bits)."""
        return sum(self.active_rows_per_plane)


@dataclass(frozen=True)
class TileStep:
    """One executed step of the planned schedule: a (row band, column
    segment, bit plane) triple.  ``tile_index`` is the geometric (row band,
    column band) tile the step belongs to, numbered row-major."""

    band: RowBand
    segment: ColumnSegment
    bit_plane: int
    tile_index: int

    @property
    def row_slice(self) -> slice:
        return self.band.row_slice

    @property
    def col_slice(self) -> slice:
        return self.segment.col_slice


@dataclass(frozen=True)
class TileExecutionPlan:
    """Materialised weight-stationary schedule with scale-group-aligned
    column segments.

    The plan is purely geometric — no weight or activation data — so the
    stats counters of an MPU run can be derived from it analytically
    (:meth:`lut_group_total`, :meth:`num_steps`, …) and a run can be costed
    without executing it.  ``bits`` is the plane-array depth of the tensor
    the plan was built for (the *maximum* per-row plane count); all derived
    counts weight each :class:`RowBand` by its own ``planes``, so a
    mixed-precision plan costs what its schedule actually executes.
    """

    m: int
    n: int
    bits: int
    mu: int
    group_size: int
    tiling: TilingConfig
    row_bands: tuple[RowBand, ...]
    segments: tuple[ColumnSegment, ...]
    num_bands: int

    @property
    def num_tiles(self) -> int:
        """Geometric (row band × column band) tiles, as in the Fig. 5 schedule."""
        return len(self.row_bands) * self.num_bands

    @property
    def num_steps(self) -> int:
        """Executed (row band, segment, bit plane) steps, plan-weighted."""
        return len(self.segments) * sum(band.planes for band in self.row_bands)

    @property
    def lut_group_total(self) -> int:
        """Σ over segments of their µ-group count (one column band pass)."""
        return sum(seg.lut_groups for seg in self.segments)

    @property
    def num_scale_groups(self) -> int:
        return max((self.n + self.group_size - 1) // self.group_size, 1)

    @property
    def plane_passes(self) -> int:
        """Σ over row bands of their plane counts (row-band × plane pairs)."""
        return sum(band.planes for band in self.row_bands)

    @property
    def plane_bits_total(self) -> int:
        """Σ over rows of their per-row plane counts.

        Multiplying by ``n`` gives the stored (and streamed) binary-plane
        bits of the whole weight matrix — ``m × bits`` only when the plan is
        uniform.
        """
        return sum(band.plane_row_total for band in self.row_bands)

    @property
    def mean_bits(self) -> float:
        """Row-averaged plane count (the "Q2.4" in FIGLUT-Q2.4)."""
        return self.plane_bits_total / self.m if self.m else float(self.bits)

    def steps(self) -> Iterator[TileStep]:
        """Plan steps in execution order: row bands outermost, then column
        segments (ascending columns), then bit planes innermost (Fig. 5b);
        each band iterates only its own ``planes``."""
        for band in self.row_bands:
            for seg in self.segments:
                tile_index = band.band_index * self.num_bands + seg.band_index
                for plane in range(band.planes):
                    yield TileStep(band, seg, plane, tile_index)


def plan_bcq_tile_execution(m: int, n: int, bits: int, config: TilingConfig,
                            mu: int = 1,
                            group_size: int | None = None,
                            per_row_bits: Sequence[int] | np.ndarray | None = None
                            ) -> TileExecutionPlan:
    """Plan the BCQ weight-stationary schedule with scale-group splitting.

    Every ``tile_n`` column band is cut at the boundaries of the
    ``group_size``-wide BCQ scale groups, so each resulting
    :class:`ColumnSegment` lies inside exactly one scale group.  Segments
    whose width is not a multiple of ``mu`` occupy a padded final LUT group
    (the hardware pads the key with −1 weights and the stream with zero
    activations, which contributes exactly zero).

    ``per_row_bits`` (length ``m``, each in ``[1, bits]``) assigns each
    output row its own plane count; omitted, every row uses all ``bits``
    planes.  Each :class:`RowBand` then executes ``max(per_row_bits)`` of
    its rows' planes, with the per-plane active-row counts recorded for the
    analytic cost models.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    if group_size is not None and group_size < 1:
        raise ValueError("group_size must be >= 1 or None")
    group_size = group_size or max(n, 1)

    if per_row_bits is None:
        row_bits = np.full(m, bits, dtype=np.int64)
    else:
        row_bits = np.asarray(per_row_bits, dtype=np.int64)
        if row_bits.shape != (m,):
            raise ValueError(f"per_row_bits must have shape ({m},), got {row_bits.shape}")
        if row_bits.size and (row_bits.min() < 1 or row_bits.max() > bits):
            raise ValueError("per_row_bits entries must lie in [1, bits]")

    row_bands: list[RowBand] = []
    for band_index, rsl in enumerate(_tile_slices(m, config.tile_m)):
        band_bits = row_bits[rsl]
        planes = int(band_bits.max()) if band_bits.size else 0
        active = tuple(int((band_bits > p).sum()) for p in range(planes))
        row_bands.append(RowBand(row_slice=rsl, band_index=band_index,
                                 planes=planes, active_rows_per_plane=active))
    segments: list[ColumnSegment] = []
    for band_index, band in enumerate(_tile_slices(n, config.tile_n)):
        start = band.start
        while start < band.stop:
            group = start // group_size
            stop = min(band.stop, (group + 1) * group_size)
            width = stop - start
            segments.append(ColumnSegment(
                col_slice=slice(start, stop),
                scale_group=group,
                band_index=band_index,
                lut_groups=-(-width // mu),
            ))
            start = stop
    num_bands = max((n + config.tile_n - 1) // config.tile_n, 0)
    return TileExecutionPlan(m=m, n=n, bits=bits, mu=mu, group_size=group_size,
                             tiling=config, row_bands=tuple(row_bands),
                             segments=tuple(segments), num_bands=num_bands)

