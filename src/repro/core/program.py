"""Plan compilation: lower a tile-execution plan to a flat executable program.

Walking a :class:`~repro.core.dataflow.TileExecutionPlan` directly means a
Python loop over column segments × bit planes × LUT groups on every call.
The plan and the weights are immutable per layer, so all of that control
flow can be resolved **once**.  :func:`compile_plan` lowers a plan into a
:class:`CompiledProgram` — flat buffers in a fixed layout (the Exo
``LoopIR_compiler`` shape: IR in, flat program out) — and
:meth:`CompiledProgram.execute` runs it with **one native call** per GEMM:
a C loop nest (:mod:`repro.core.native`, ``figlut_kernel.c``) that builds
the LUTs, gathers and accumulates every bit plane, applies the α-scaled
``y`` updates and adds every scale group's offset term, with the GIL
released.  It is the only executor
:meth:`repro.core.mpu.MatrixProcessingUnit.gemm` runs; the scalar
:meth:`~repro.core.mpu.MatrixProcessingUnit.gemm_reference` walk of the
same plan is its oracle.

Buffer layout
-------------
Segments are laid out in ``slots_per_segment`` (= max LUT groups over the
plan's segments) slots each, so every per-slot buffer is a dense matrix:

``lut_cols`` — ``(num_slots, µ)`` int64
    Activation rows of each µ-group, padded with the sentinel row index
    ``n``, which reads as an all-zero activation.  The kernel builds one
    segment's ``(slots, 2^µ)`` LUT tables per column tile from it.
``PlanePass.keys`` — ``(num_slots, rows_p)`` int32 per bit plane
    The RAC keys of every (slot, active row) pair.  Padded slots carry key
    0 into an all-zero LUT, so they contribute exactly ``+0.0``.
``PlanePass.rows`` / ``PlanePass.scales``
    The per-row-band plane masks of a mixed-precision tensor, baked into a
    dense scatter-index vector (``None`` when every row is active) and a
    float64 ``(num_segments, rows_p)`` α matrix — no per-call
    ``plane_activity()`` or scale gathering.
``offsets`` / ``offset_slices``
    Every scale group's float64 offset column and activation-row span,
    walked in ascending group order exactly like the reference offset
    stage.

Bit-exactness contract
----------------------
Compiled output and :class:`~repro.core.mpu.MPURunStats` are **identical**
to the scalar ``gemm_reference`` — not merely close.  The kernel replays
the reference's float operations in the reference's order (see
``docs/compilation.md``, "Native kernel"):

* LUT entries are summed in float64, sequentially over µ, then cast
  directly to the accumulator dtype (:func:`~repro.core.lut.
  build_lut_tables`);
* each per-(segment, plane, row, column) partial starts at ``+0.0`` and
  adds its µ-groups in ascending order in the accumulator dtype (fp16 adds
  round a float32 sum to half, like NumPy's half loop); the padded tail
  slots add ``+0.0``, which is value-preserving;
* the α multiply is float64, and the ``y`` updates run segments ascending,
  bit planes innermost, scattered to the plane's active rows;
* the offset stage sums each group of each activation column in NumPy's
  pairwise order, starting from ``+0.0`` — the ``x[a:b].sum(axis=0)`` the
  reference runs over column-contiguous activations — then adds
  ``z · Σx`` (float64, multiply then add) to ``y``, groups ascending.

A program carries no counters: :meth:`CompiledProgram.execute` returns
``Y`` alone, and a run's :class:`~repro.core.mpu.MPURunStats` are the
plan's (:meth:`~repro.core.mpu.MatrixProcessingUnit.stats_from_plan`).

Programs need neither the :class:`~repro.quant.bcq.BCQTensor` nor the plan
to run, and are never written while they run, so the serving pool's
threads all execute one shared program per layer.
"""

# repro: bit-exact — the compiled executor must replay the scalar
# reference's float operations exactly (see "Bit-exactness contract" above).

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core import native
from repro.core.dataflow import TileExecutionPlan
from repro.core.mpu import MatrixProcessingUnit, _normalize_activations
from repro.quant.bcq import BCQTensor
from repro.telemetry import get_telemetry

__all__ = ["CompiledProgram", "PlanePass", "compile_plan"]

# Profile rollup keys, one per kernel stage.
# "fused" names the whole program running as one native call; the keys
# predate the kernel and stay stable for ledgers that read them.
_PROFILE_KEYS = tuple(f"program.fused.{stage}"
                      for stage in ("luts", "plane", "scale", "offset"))


class _StageTally:
    """One run shape's profile rows over its running kernel clock.

    ``rows`` are the per-call ``(key, count, bytes, clock slot)`` of each
    stage; :meth:`read` scales them by the clock's call count for the
    profile it is attached to.
    """

    __slots__ = ("profile", "rows", "clock")

    def __init__(self, profile, rows: tuple) -> None:
        self.profile = profile
        self.rows = rows
        self.clock = native.StageClock()
        profile.attach(self.read)

    def read(self) -> list[tuple[str, int, float, int]]:
        calls = self.clock[4]
        return [(key, count * calls, self.clock[slot] / 1e9, nbytes * calls)
                for key, count, nbytes, slot in self.rows] if calls else []


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
        ``(num_segments, rows)`` float64 α matrix: ``scales[s, r]``
        multiplies the partial of segment ``s`` for active row ``r``.
    """

    keys: np.ndarray
    rows: np.ndarray | None
    scales: np.ndarray


@dataclass(frozen=True)
class CompiledProgram:
    """A tile-execution plan lowered to flat buffers.

    :meth:`execute` runs the LUT build, the plane gathers and the α-scaled
    ``y`` updates of every segment, then every scale group's offset term
    (``offset_slices`` ascending), in one native kernel call.
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

    @property
    def num_slots(self) -> int:
        return int(self.lut_cols.shape[0])

    # -- execution ---------------------------------------------------------
    def execute(self, activations: np.ndarray,
                accumulate_dtype: np.dtype | type = np.float64) -> np.ndarray:
        """Run the program: ``Y = W X`` (its counters are the plan's).

        Bit-identical to ``gemm_reference`` on the same plan: same LUT
        entries, same accumulator dtype footprint, same float addition
        order per output element.  ``accumulate_dtype`` is float16,
        float32 or float64.
        """
        x, squeeze = _normalize_activations(activations, self.n, order="C")
        y = np.empty((self.m, x.shape[1]))
        # Opt-in per-stage profiling: when off (the default) the kernel gets
        # a NULL clock and reads no time; when on, it adds nanoseconds per
        # stage to this run shape's running clock, which the profile reads
        # at snapshot time.  Values are never touched either way.
        tel = get_telemetry()
        clock = None
        if tel.enabled and tel.profiling:
            clock = self._stage_clock(tel.profile, x.shape[1],
                                      accumulate_dtype)
        native.run(self._kernel_program(), x, accumulate_dtype, y, clock)
        return y[:, 0] if squeeze else y

    def _kernel_program(self):
        """The kernel's view of this program, validated and packed once.

        Cached on the (frozen) instance via ``object.__setattr__``; it is
        not a dataclass field, so equality/serialization of compiled
        programs are unaffected.
        """
        bound = getattr(self, "_kernel_cache", None)
        if bound is None:
            bound = native.bind(self)
            object.__setattr__(self, "_kernel_cache", bound)
        return bound

    def _stage_clock(self, profile, batch: int,
                     accumulate_dtype) -> native.StageClock:
        """The running kernel clock of this program's runs at ``batch``
        columns and ``accumulate_dtype`` under ``profile``.

        Made and attached to ``profile`` on first use, and cached per
        (batch, accumulator) on the (frozen) instance like
        :meth:`_kernel_program`, so a profiled call pays one lookup.
        """
        cache = getattr(self, "_profile_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_profile_cache", cache)
        key = batch, accumulate_dtype
        tally = cache.get(key)
        if tally is None or tally.profile is not profile:
            tally = cache[key] = _StageTally(
                profile, self._profile_rows(
                    batch, np.dtype(accumulate_dtype).itemsize))
        return tally.clock

    def _profile_rows(self, batch: int, acc_itemsize: int) -> tuple:
        """``(key, count, bytes, clock slot)`` of every stage one run at
        ``batch`` executes."""
        kernel = int(self.num_slots > 0 and bool(self.passes) and batch > 0)
        counts = (kernel, kernel, kernel, len(self.offset_slices))
        return tuple(
            (key, count, nbytes, i) for i, (key, count, nbytes) in enumerate(
                zip(_PROFILE_KEYS, counts,
                    self._profile_bytes(batch, acc_itemsize), strict=True))
            if count)

    def _profile_bytes(self, batch: int, acc_itemsize: int) -> tuple[int, ...]:
        """Bytes-touched estimate per stage (luts, plane, scale, offset)
        for one run: the dominant array traffic from the program's static
        shapes — activation reads, key matrices, LUT tables, partial and
        output updates; integer arithmetic only."""
        rows = key_bytes = 0
        for pp in self.passes:
            rows += pp.keys.shape[1]
            key_bytes += pp.keys.nbytes
        luts = (self.num_slots * self.mu * batch * 8
                + self.num_slots * batch * (1 << self.mu) * acc_itemsize)
        # Per plane: keys + the gathered LUT values + the partial updates.
        plane = key_bytes + 2 * self.num_slots * rows * batch * acc_itemsize
        # Per (segment, plane): α·partial read + y update (float64).
        scale = self.num_segments * 2 * rows * batch * 8
        offset = 0
        for start, stop in self.offset_slices:
            offset += (stop - start) * batch * 8 + self.m * batch * 8
        return luts, plane, scale, offset


def compile_plan(plan: TileExecutionPlan,
                 weights: BCQTensor) -> CompiledProgram:
    """Lower a tile-execution plan into a :class:`CompiledProgram`.

    Every column segment and every scale group of the plan is lowered, at
    the plan's µ.  The program's buffers are validated and packed for the
    native kernel here (building the kernel on the first compile of a
    process), so no request pays for it.
    """
    if (plan.m, plan.n) != weights.shape:
        raise ValueError(f"plan shape ({plan.m}, {plan.n}) does not match "
                         f"weights {weights.shape}")
    segments = plan.segments

    m, n = weights.shape
    mu = plan.mu
    num_segments = len(segments)
    gmax = max((seg.lut_groups for seg in segments), default=0)
    num_slots = num_segments * gmax

    # Activation-row index matrix: real columns index x, padded positions
    # (ragged µ-group tails and slots past a segment's group count) hold
    # the sentinel n, which reads as a zero activation.
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
        # float64 α: the reference multiplies in float64 whatever the
        # scales' storage dtype, and the widening is exact.
        scales = np.empty((num_segments, num_rows), dtype=np.float64)
        for si, seg in enumerate(segments):
            plane_w = weights.bitplanes[p][:, seg.col_slice]
            if rows is not None:
                plane_w = plane_w[rows]
            seg_keys = MatrixProcessingUnit._segment_keys(
                plane_w.astype(np.int64), seg, mu, powers)    # (rows, G)
            keys[si * gmax: si * gmax + seg.lut_groups] = seg_keys.T
            alpha = weights.scales[p][:, seg.scale_group]
            scales[si] = alpha if rows is None else alpha[rows]
        passes.append(PlanePass(keys=keys, rows=rows, scales=scales))

    col_groups = weights.column_groups()
    groups = range(plan.num_scale_groups)
    offset_slices = tuple((col_groups[g].start, col_groups[g].stop)
                          for g in groups)
    # float64 z, like α: the reference's offset multiply is float64.
    offsets = np.ascontiguousarray(weights.offsets[:, list(groups)],
                                   dtype=np.float64)

    program = CompiledProgram(
        m=m, n=n, mu=mu, num_segments=num_segments, slots_per_segment=gmax,
        lut_cols=lut_cols, passes=tuple(passes), offsets=offsets,
        offset_slices=offset_slices)
    if os.environ.get("REPRO_VERIFY"):
        # Structural verification of every freshly compiled program
        # (including prepare()).  Lazy import: analysis depends on this
        # module.
        from repro.analysis.verify import verify_program
        verify_program(program, plan=plan)
    program._kernel_program()
    return program
