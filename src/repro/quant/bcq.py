"""Binary-coding quantization (BCQ), Section II-B of the paper.

A real weight ``w`` is represented as a linear combination of ``q`` binary
values ``b_i ∈ {-1, +1}`` with scaling factors ``alpha_i`` and an optional
offset ``z`` (Eq. 3)::

    w ≈ sum_i alpha_i * b_i + z

BCQ has no closed-form optimum, so we use the standard alternating
optimization (greedy residual initialisation followed by refitting the
scales by least squares, as in Xu et al. [33] / LUT-GEMM [28]):

1. greedy: ``alpha_i = mean(|residual|)``, ``b_i = sign(residual)``;
2. alternate: with ``B`` fixed, the optimal alphas solve the least-squares
   system ``(BᵀB) alpha = Bᵀ w`` per row; with alphas fixed, re-pick each
   ``b_i`` greedily.

Scales are per output row (channel) or per group of input columns, matching
the granularity used by LUT-GEMM / ShiftAddLLM.  With ``use_offset=True``
the offset term makes the representation a superset of uniform quantization
(Fig. 1); :func:`uniform_to_bcq` converts an RTN-quantized tensor exactly.

:func:`quantize_bcq` runs the optimization batched over all (row, group)
blocks at once — stacked greedy init, stacked Gram solves via
``np.linalg.solve``, stacked plane re-picking — and is bit-exact with the
per-block scalar implementation, which is kept as
:func:`_reference_quantize_bcq` for the equivalence tests.
:func:`uniform_to_bcq` likewise fills its scales/offsets with one stacked
scope-map assignment instead of a per-(row, group, bit) Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.quant.rtn import UniformQuantizedTensor

__all__ = [
    "BCQConfig",
    "BCQTensor",
    "quantize_bcq",
    "quantize_bcq_mixed",
    "dequantize_bcq",
    "uniform_to_bcq",
]


@dataclass(frozen=True)
class BCQConfig:
    """Configuration for BCQ quantization.

    Attributes
    ----------
    bits:
        Number of binary bit-planes ``q``.
    use_offset:
        Include the offset term ``z`` (Eq. 3); required to represent uniform
        grids exactly and generally lowers error.
    group_size:
        Number of input columns sharing one set of scaling factors.  ``None``
        means one set of scales per full output row.
    iterations:
        Alternating-optimization refinement iterations after the greedy
        initialisation.
    """

    bits: int = 4
    use_offset: bool = True
    group_size: int | None = None
    iterations: int = 5

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.group_size is not None and self.group_size < 1:
            raise ValueError("group_size must be >= 1 or None")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


@dataclass
class BCQTensor:
    """A BCQ-quantized weight matrix.

    Attributes
    ----------
    bitplanes:
        int8 array of shape ``(bits, rows, cols)`` with entries in {-1, +1}.
    scales:
        float array of shape ``(bits, rows, n_groups)``; ``scales[i, r, g]``
        multiplies bit-plane ``i`` for row ``r`` within column group ``g``.
    offsets:
        float array of shape ``(rows, n_groups)`` (zeros when the offset term
        is disabled).
    group_size:
        Number of columns per group (the last group may be smaller).
    shape:
        Original (rows, cols) of the weight matrix.
    per_row_bits:
        int64 array of shape ``(rows,)``: the plane count of each output
        row.  **Invariant** (mixed-precision contract): for every row ``r``
        and plane ``p >= per_row_bits[r]``, ``scales[p, r, :] == 0`` while
        ``bitplanes[p, r, :]`` holds arbitrary ±1 padding.  Consumers that
        blindly walk all ``bits`` planes (``dequantize``, the functional
        GEMM engines) therefore stay exact — the padded planes contribute
        ``0 × ±1`` — while plan-aware consumers (the MPU planner/executor,
        :meth:`storage_bits`, the plan-driven traffic models) skip them and
        charge only ``Σ per_row_bits``.  Omitted at construction, it is
        derived as uniformly ``bitplanes.shape[0]``.
    """

    bitplanes: np.ndarray
    scales: np.ndarray
    offsets: np.ndarray
    group_size: int
    shape: tuple[int, int]
    per_row_bits: np.ndarray = field(default=None)  # type: ignore[assignment]
    _plane_activity: tuple[int, list[np.ndarray] | None] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Uniform-precision tensors constructed directly (without going
        # through quantize_bcq) get the implied per-row bit widths, so
        # mixed-precision consumers never see None.
        if self.per_row_bits is None:
            self.per_row_bits = np.full(self.shape[0], self.bitplanes.shape[0],
                                        dtype=np.int64)

    @property
    def bits(self) -> int:
        return int(self.bitplanes.shape[0])

    @property
    def n_groups(self) -> int:
        return int(self.scales.shape[2])

    def dequantize(self) -> np.ndarray:
        """Reconstruct the FP weight matrix."""
        return dequantize_bcq(self)

    def storage_bits(self) -> int:
        """Bits to store bit-planes (1 bit each) plus FP16 scales/offsets.

        Mixed-precision tensors store only each row's own planes and scales
        (``Σ per_row_bits``), not the zero-padded plane-array depth, so
        Q2.4-style compression ratios come out right; for uniform tensors
        this equals the padded counts exactly.
        """
        stored_planes = int(np.sum(self.per_row_bits))
        plane_bits = stored_planes * self.shape[1]
        meta_bits = (stored_planes * self.n_groups + self.offsets.size) * 16
        return int(plane_bits + meta_bits)

    def column_groups(self) -> list[slice]:
        """Column slices corresponding to each scale group."""
        cols = self.shape[1]
        return [slice(g * self.group_size, min((g + 1) * self.group_size, cols))
                for g in range(self.n_groups)]

    def plane_activity(self) -> tuple[int, list[np.ndarray] | None]:
        """Executed plane count and per-plane active rows.

        Returns ``(max_planes, active_rows)`` where ``active_rows`` is
        ``None`` for uniform tensors (every row holds every plane — consumers
        take their unmasked hot path) and otherwise lists, per plane ``p``,
        the rows with ``per_row_bits > p``.  This is the single source of
        the mixed-precision row gating shared by the functional engines and
        the MPU executor: by the zero-scale padding invariant a skipped
        (row, plane) would contribute exactly ``0 × ±1``.

        Memoised on the tensor (``per_row_bits`` never changes after
        construction), so hot per-call paths pay the row-index derivation
        once per tensor rather than once per GEMM.  Callers must treat the
        returned index arrays as read-only.
        """
        cached = self._plane_activity
        if cached is None:
            row_bits = np.asarray(self.per_row_bits, dtype=np.int64)
            max_planes = int(row_bits.max()) if row_bits.size else 0
            if row_bits.size and bool((row_bits == max_planes).all()):
                cached = (max_planes, None)
            else:
                cached = (max_planes, [np.flatnonzero(row_bits > p)
                                       for p in range(max_planes)])
            self._plane_activity = cached
        return cached

    def take_rows(self, rows: np.ndarray | Sequence[int] | slice) -> BCQTensor:
        """A new tensor holding only the given output rows.

        The row axis of a BCQ tensor is fully independent — bit planes,
        scales, offsets and ``per_row_bits`` all slice along it without
        touching the column/group structure — so a row slice quantizes,
        dequantizes and executes exactly like the same rows inside the full
        tensor.  Sliced arrays are materialised contiguously, so a row
        slice can be checked against the reference at layer sizes where
        the whole tensor would take too long.
        """
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(self.shape[0]), dtype=np.int64)
        else:
            rows = np.asarray(rows)
            if rows.dtype == bool:
                rows = np.flatnonzero(rows)
            rows = rows.astype(np.int64, copy=False)
        return BCQTensor(
            bitplanes=np.ascontiguousarray(self.bitplanes[:, rows, :]),
            scales=np.ascontiguousarray(self.scales[:, rows, :]),
            offsets=np.ascontiguousarray(self.offsets[rows, :]),
            group_size=self.group_size,
            shape=(int(rows.size), self.shape[1]),
            per_row_bits=np.asarray(self.per_row_bits)[rows].copy(),
        )


def _greedy_bcq(block: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy residual BCQ for a 1-D block: returns (B, alpha).

    ``B`` has shape (bits, n) with entries ±1, ``alpha`` has shape (bits,).
    """
    residual = block.astype(np.float64).copy()
    n = residual.size
    planes = np.empty((bits, n), dtype=np.int8)
    alphas = np.empty(bits, dtype=np.float64)
    for i in range(bits):
        b = np.where(residual >= 0, 1, -1).astype(np.int8)
        alpha = float(np.mean(np.abs(residual))) if n else 0.0
        planes[i] = b
        alphas[i] = alpha
        residual = residual - alpha * b
    return planes, alphas


def _refine_alternating(block: np.ndarray, planes: np.ndarray, alphas: np.ndarray,
                        iterations: int, use_offset: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Alternating refinement of (planes, alphas, offset) for a 1-D block."""
    bits, n = planes.shape
    offset = float(np.mean(block)) if use_offset else 0.0
    target = block - offset
    for _ in range(iterations):
        # Solve least squares for alphas with B fixed: minimise ||Bᵀ·alpha - target||.
        basis = planes.astype(np.float64)  # (bits, n)
        gram = basis @ basis.T  # (bits, bits)
        # Matrix (not vector) product so the BLAS routine — and hence the
        # rounding — is the same one the batched path uses per block.
        rhs = (basis @ target[:, None])[:, 0]
        try:
            alphas = np.linalg.solve(gram + 1e-9 * np.eye(bits), rhs)
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            alphas, *_ = np.linalg.lstsq(basis.T, target, rcond=None)
        # Keep scales non-negative and ordered for a canonical representation.
        negative = alphas < 0
        alphas = np.abs(alphas)
        planes[negative] *= -1
        # Re-pick each bit-plane greedily against the residual of the others.
        for i in range(bits):
            others = (alphas[:, None] * planes)[np.arange(bits) != i].sum(axis=0)
            residual = target - others
            if alphas[i] > 0:
                planes[i] = np.where(residual >= 0, 1, -1).astype(np.int8)
        if use_offset:
            approx = (alphas[:, None] * planes).sum(axis=0)
            offset = float(np.mean(block - approx))
            target = block - offset
    return planes, alphas, offset


# Elements of one (chunk, group_size) plane per batched-kernel chunk, sized
# so the kernel's float64 working set (~11 such planes at bits=4) sits in the
# 2 MiB L2 (swept empirically: 2**14 beats 2**13 and 2**15-2**18 by 10-40%).
_CHUNK_ELEMENTS = 1 << 14

# np.linalg.solve's python wrapper costs more than the tiny stacked LAPACK
# solves themselves; calling the underlying gufunc directly is bit-identical
# (it is exactly what the wrapper invokes).  Guarded: fall back to the public
# API if the private module ever moves.
try:
    from numpy.linalg import _umath_linalg as _umath  # type: ignore[attr-defined]
    _gufunc_solve = _umath.solve
    # Probe the call convention once so API drift downgrades to the public
    # path instead of crashing every quantization call.
    _gufunc_solve(np.eye(2)[None], np.ones((1, 2, 1)), signature='dd->d')
except Exception:  # pragma: no cover - numpy internals moved
    _gufunc_solve = None


def _quantize_blocks(blocks: np.ndarray, bits: int, iterations: int,
                     use_offset: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched BCQ for a stack of equal-length blocks.

    ``blocks`` has shape ``(n_blocks, n)``; returns ``(planes, alphas,
    offsets)`` of shapes ``(bits, n_blocks, n)``, ``(n_blocks, bits)`` and
    ``(n_blocks,)``, bit-exact with the scalar reference.  Work is chunked so
    each kernel pass stays L2-resident, with one shared workspace so no
    large allocations happen per chunk.
    """
    n_blocks, n = blocks.shape
    planes = np.empty((bits, n_blocks, n), dtype=np.int8)
    alphas = np.empty((n_blocks, bits), dtype=np.float64)
    offsets = np.zeros(n_blocks, dtype=np.float64)
    if n_blocks == 0 or n == 0:
        return planes, alphas, offsets
    chunk = min(max(_CHUNK_ELEMENTS // n, 1), n_blocks)
    workspace = _BlockWorkspace(bits, chunk, n)
    for start in range(0, n_blocks, chunk):
        sl = slice(start, min(start + chunk, n_blocks))
        _quantize_block_stack(blocks[sl], bits, iterations, use_offset,
                              planes[:, sl], alphas[sl], offsets[sl], workspace)
    return planes, alphas, offsets


class _BlockWorkspace:
    """Scratch buffers shared by every chunk of one quantization call."""

    def __init__(self, bits: int, chunk: int, n: int) -> None:
        self.basis = np.empty((bits, chunk, n), dtype=np.float64)
        self.scaled = np.empty((bits, chunk, n), dtype=np.float64)
        self.residual = np.empty((chunk, n), dtype=np.float64)
        self.tmp = np.empty((chunk, n), dtype=np.float64)
        self.others = np.empty((chunk, n), dtype=np.float64)
        self.regulariser = 1e-9 * np.eye(bits)
        self.rest = [[j for j in range(bits) if j != i] for i in range(bits)]


def _quantize_block_stack(blocks: np.ndarray, bits: int, iterations: int,
                          use_offset: bool, out_planes: np.ndarray,
                          out_alphas: np.ndarray, out_offsets: np.ndarray,
                          ws: _BlockWorkspace) -> None:
    """One cache-resident batch of the vectorized greedy + alternating loop.

    Bit-planes are kept as float64 ±1 in plane-major ``(bits, n_blocks, n)``
    layout so every elementwise pass runs on contiguous memory; products with
    ±1 are exact in either dtype.  Row-wise reductions run along the
    contiguous axis and the Gram solves go through the same per-slice LAPACK
    routine as the scalar path, so results match it bit-for-bit (verified by
    the equivalence tests).  Two further exact shortcuts keep iterations
    cheap: ``target - others >= 0`` is evaluated as ``target >= others``
    (equivalent for finite doubles), and once the sign patterns start to
    settle, re-picked planes are rewritten only for blocks whose pattern
    actually changed (values are identical otherwise).
    """
    n_blocks, n = blocks.shape
    basis = ws.basis[:, :n_blocks]
    alphas = out_alphas
    residual = ws.residual[:n_blocks]
    tmp = ws.tmp[:n_blocks]
    np.copyto(residual, blocks)

    # Greedy residual initialisation: b_i = sign(residual), alpha_i = mean|residual|.
    for i in range(bits):
        plane = basis[i]
        ge = residual >= 0
        np.multiply(ge, 2.0, out=plane)
        plane -= 1.0
        np.abs(residual, out=tmp)
        # add.reduce + divide is np.mean's exact op sequence, minus wrapper cost
        np.divide(np.add.reduce(tmp, axis=1), n, out=alphas[:, i])
        if i + 1 < bits:  # the final residual is never read again
            np.multiply(plane, alphas[:, i, None], out=tmp)
            residual -= tmp

    offsets = np.add.reduce(blocks, axis=1) / n if use_offset else out_offsets
    if iterations == 0:
        np.copyto(out_planes, basis, casting='unsafe')
        if use_offset:
            out_offsets[:] = offsets
        return

    target = residual  # reuse the buffer; rewritten each iteration
    others = ws.others[:n_blocks]
    scaled = ws.scaled[:, :n_blocks]
    stacked = basis.transpose(1, 0, 2)  # (n_blocks, bits, n) view for matmuls
    signs = [None] * bits  # cached boolean sign of each plane

    for iteration in range(iterations):
        np.subtract(blocks, offsets[:, None], out=target)
        gram = stacked @ stacked.swapaxes(1, 2)
        gram += ws.regulariser
        rhs = stacked @ target[:, :, None]
        new_alphas = None
        if _gufunc_solve is not None:
            solved = _gufunc_solve(gram, rhs, signature='dd->d')
            # The raw gufunc yields NaNs instead of raising on a singular
            # system; route those (unreachable with the regulariser) through
            # the public API below.
            if not np.isnan(solved).any():
                new_alphas = solved[:, :, 0]
        if new_alphas is None:  # pragma: no cover - defensive
            try:
                new_alphas = np.linalg.solve(gram, rhs)[:, :, 0]
            except np.linalg.LinAlgError:
                new_alphas = np.empty((n_blocks, bits), dtype=np.float64)
                for k in range(n_blocks):
                    try:
                        new_alphas[k] = np.linalg.solve(gram[k], rhs[k, :, 0])
                    except np.linalg.LinAlgError:
                        new_alphas[k], *_ = np.linalg.lstsq(
                            stacked[k].T, target[k], rcond=None)
        # Canonicalize: non-negative scales, planes absorb the sign.
        negative = new_alphas < 0
        np.abs(new_alphas, out=new_alphas)
        alphas = new_alphas
        if negative.any():
            np.negative(basis, out=basis, where=negative.T[:, :, None])
            for i in range(bits):
                if signs[i] is not None:
                    np.logical_xor(signs[i], negative[:, i, None], out=signs[i])
        for i in range(bits):
            np.multiply(basis[i], alphas[:, i, None], out=scaled[i])
        all_positive = bool((alphas > 0).all())
        # Re-pick each plane greedily against the others' residual wherever
        # its scale is positive; the ascending hand-rolled adds reproduce
        # np.sum's reduction order.
        for i in range(bits):
            rest = ws.rest[i]
            if not rest:
                ge = target >= 0
            elif len(rest) == 1:
                ge = target >= scaled[rest[0]]
            else:
                np.add(scaled[rest[0]], scaled[rest[1]], out=others)
                for j in rest[2:]:
                    others += scaled[j]
                ge = target >= others
            if all_positive:
                new_sign = ge
            else:
                repick = alphas[:, i] > 0
                prior_full = signs[i] if signs[i] is not None else basis[i] > 0
                new_sign = np.where(repick[:, None], ge, prior_full)
            if iteration < 2 or signs[i] is None:
                # Early iterations flip many sign patterns; a blind rebuild
                # beats per-row bookkeeping.
                plane = basis[i]
                np.multiply(new_sign, 2.0, out=plane)
                plane -= 1.0
                np.multiply(plane, alphas[:, i, None], out=scaled[i])
            else:
                changed = (new_sign != signs[i]).any(axis=1).nonzero()[0]
                if changed.size:
                    plane = new_sign[changed] * 2.0 - 1.0
                    basis[i][changed] = plane
                    scaled[i][changed] = alphas[changed, i, None] * plane
            signs[i] = new_sign
        if use_offset:
            if bits == 1:
                np.subtract(blocks, scaled[0], out=tmp)
            else:
                np.add(scaled[0], scaled[1], out=others)
                for j in range(2, bits):
                    others += scaled[j]
                np.subtract(blocks, others, out=tmp)
            offsets = np.add.reduce(tmp, axis=1)
            offsets /= n
    np.copyto(out_planes, basis, casting='unsafe')
    out_alphas[:] = alphas
    if use_offset:
        out_offsets[:] = offsets


def quantize_bcq(weight: np.ndarray, config: BCQConfig | None = None) -> BCQTensor:
    """Quantize a 2-D weight matrix into BCQ bit-planes, scales, and offsets.

    All (row, group) blocks are optimised in one batched NumPy pass; full
    groups and the (possibly smaller) ragged last group run as two stacked
    calls so no padding enters the reductions.  Bit-exact with the scalar
    :func:`_reference_quantize_bcq`.
    """
    config = config or BCQConfig()
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("quantize_bcq expects a 2-D weight matrix")

    rows, cols = w.shape
    group_size = config.group_size or cols
    group_size = min(group_size, cols) if cols else 1
    n_groups = max((cols + group_size - 1) // group_size, 1)
    bits = config.bits

    scales = np.zeros((bits, rows, n_groups), dtype=np.float64)
    offsets = np.zeros((rows, n_groups), dtype=np.float64)

    if rows and cols:
        n_full = cols // group_size
        full_cols = n_full * group_size
        bitplanes = None if full_cols == cols else np.zeros(
            (bits, rows, cols), dtype=np.int8)
        if n_full:
            blocks = np.ascontiguousarray(w[:, :full_cols]).reshape(
                rows * n_full, group_size)
            planes, alph, offs = _quantize_blocks(
                blocks, bits, config.iterations, config.use_offset)
            # planes is (bits, rows·n_full, group_size): a plain reshape is
            # already the (bits, rows, cols) bit-plane layout — no copy when
            # there is no ragged tail group.
            if bitplanes is None:
                bitplanes = planes.reshape(bits, rows, cols)
            else:
                bitplanes[:, :, :full_cols] = planes.reshape(bits, rows, full_cols)
            scales[:, :, :n_full] = alph.reshape(rows, n_full, bits).transpose(2, 0, 1)
            offsets[:, :n_full] = offs.reshape(rows, n_full)
        if full_cols < cols:
            blocks = np.ascontiguousarray(w[:, full_cols:])
            planes, alph, offs = _quantize_blocks(
                blocks, bits, config.iterations, config.use_offset)
            bitplanes[:, :, full_cols:] = planes
            scales[:, :, n_full] = alph.T
            offsets[:, n_full] = offs
    else:
        bitplanes = np.zeros((bits, rows, cols), dtype=np.int8)

    per_row_bits = np.full(rows, bits, dtype=np.int64)
    return BCQTensor(bitplanes=bitplanes, scales=scales, offsets=offsets,
                     group_size=group_size, shape=(rows, cols),
                     per_row_bits=per_row_bits)


def quantize_bcq_mixed(weight: np.ndarray, per_row_bits: np.ndarray,
                       config: BCQConfig | None = None) -> BCQTensor:
    """Quantize a weight matrix with a different BCQ plane count per row.

    Rows sharing a bit width are quantized together through the batched
    :func:`quantize_bcq` kernel, then assembled into one tensor padded to
    the widest row: padded planes carry +1 bits and **zero scales**, the
    invariant documented on :class:`BCQTensor.per_row_bits`.  ``config.bits``
    is ignored; the per-row widths govern.
    """
    config = config or BCQConfig()
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("quantize_bcq_mixed expects a 2-D weight matrix")
    rows, cols = w.shape
    row_bits = np.asarray(per_row_bits, dtype=np.int64)
    if row_bits.shape != (rows,):
        raise ValueError(f"per_row_bits must have shape ({rows},), got {row_bits.shape}")
    if rows and row_bits.min() < 1:
        raise ValueError("per_row_bits entries must be >= 1")

    bits_max = int(row_bits.max()) if rows else config.bits
    group_size = config.group_size or cols
    group_size = min(group_size, cols) if cols else 1
    n_groups = max((cols + group_size - 1) // group_size, 1)

    bitplanes = np.ones((bits_max, rows, cols), dtype=np.int8)
    scales = np.zeros((bits_max, rows, n_groups), dtype=np.float64)
    offsets = np.zeros((rows, n_groups), dtype=np.float64)
    for bits in np.unique(row_bits):
        idx = np.flatnonzero(row_bits == bits)
        sub = quantize_bcq(w[idx], BCQConfig(bits=int(bits),
                                             use_offset=config.use_offset,
                                             group_size=config.group_size,
                                             iterations=config.iterations))
        bitplanes[:bits, idx] = sub.bitplanes
        scales[:bits, idx] = sub.scales
        offsets[idx] = sub.offsets
    return BCQTensor(bitplanes=bitplanes, scales=scales, offsets=offsets,
                     group_size=group_size, shape=(rows, cols),
                     per_row_bits=row_bits.copy())


def _reference_quantize_bcq(weight: np.ndarray,
                            config: BCQConfig | None = None) -> BCQTensor:
    """Scalar per-(row, group) reference implementation (the seed hot loop).

    Kept as the ground truth the vectorized :func:`quantize_bcq` is tested
    bit-for-bit against; ~two orders of magnitude slower on real layers.
    One deliberate deviation from the seed: :func:`_refine_alternating`
    computes ``rhs`` as a one-column matrix product rather than a vector
    product so both paths hit the same BLAS routine — identical output on
    every BLAS verified so far, and it keeps the equivalence contract
    portable to builds where gemv and one-column gemm round differently.
    """
    config = config or BCQConfig()
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("quantize_bcq expects a 2-D weight matrix")

    rows, cols = w.shape
    group_size = config.group_size or cols
    group_size = min(group_size, cols) if cols else 1
    n_groups = max((cols + group_size - 1) // group_size, 1)

    bitplanes = np.zeros((config.bits, rows, cols), dtype=np.int8)
    scales = np.zeros((config.bits, rows, n_groups), dtype=np.float64)
    offsets = np.zeros((rows, n_groups), dtype=np.float64)

    for r in range(rows):
        for g in range(n_groups):
            csl = slice(g * group_size, min((g + 1) * group_size, cols))
            block = w[r, csl]
            if block.size == 0:
                continue
            planes, alphas = _greedy_bcq(block, config.bits)
            planes, alphas, offset = _refine_alternating(
                block, planes, alphas, config.iterations, config.use_offset)
            bitplanes[:, r, csl] = planes
            scales[:, r, g] = alphas
            offsets[r, g] = offset

    per_row_bits = np.full(rows, config.bits, dtype=np.int64)
    return BCQTensor(bitplanes=bitplanes, scales=scales, offsets=offsets,
                     group_size=group_size, shape=(rows, cols),
                     per_row_bits=per_row_bits)


def dequantize_bcq(tensor: BCQTensor) -> np.ndarray:
    """Reconstruct the FP weight matrix from a :class:`BCQTensor`."""
    rows, cols = tensor.shape
    out = np.zeros((rows, cols), dtype=np.float64)
    for g, csl in enumerate(tensor.column_groups()):
        # scales[:, :, g] has shape (bits, rows); bitplanes[:, :, csl] is (bits, rows, w)
        planes = tensor.bitplanes[:, :, csl].astype(np.float64)
        scaled = planes * tensor.scales[:, :, g][:, :, None]
        out[:, csl] = scaled.sum(axis=0) + tensor.offsets[:, g][:, None]
    return out


def uniform_to_bcq(tensor: UniformQuantizedTensor) -> BCQTensor:
    """Convert a uniformly quantized tensor to an *exact* BCQ representation.

    Following Section II-B / Fig. 1: a ``q``-bit uniform grid with step
    ``s`` and zero point ``z`` is exactly the BCQ representation with scales
    ``alpha_i = s * 2**(q-1-i) / 2`` and an offset that recentres the grid.
    Each uniform code ``c`` maps to the binary expansion of ``c`` where bit
    value 1 → +1 and bit value 0 → -1.
    """
    rows, cols = tensor.shape
    bits = tensor.bits
    if tensor.granularity == "group":
        group_size = tensor.group_size
    else:
        group_size = cols if cols else 1
    n_groups = max((cols + group_size - 1) // group_size, 1)

    bitplanes = np.zeros((bits, rows, cols), dtype=np.int8)
    scales = np.zeros((bits, rows, n_groups), dtype=np.float64)
    offsets = np.zeros((rows, n_groups), dtype=np.float64)

    codes = tensor.codes
    for i in range(bits):
        # Bit i is the (bits-1-i)-th binary digit, MSB first in plane order.
        digit = (codes >> (bits - 1 - i)) & 1
        bitplanes[i] = np.where(digit == 1, 1, -1).astype(np.int8)

    # Per-scope scale/zero-point → per (row, group) BCQ scales/offsets, as
    # one stacked assignment: scope_map[r, g] indexes the uniform tensor's
    # flat scope array for every (row, group) cell at once.
    if rows and n_groups:
        if tensor.granularity == "tensor":
            scope_map = np.zeros((rows, n_groups), dtype=np.int64)
        elif tensor.granularity == "channel":
            scope_map = np.broadcast_to(
                np.arange(rows, dtype=np.int64)[:, None], (rows, n_groups))
        else:
            scope_map = (np.arange(rows, dtype=np.int64)[:, None] * n_groups
                         + np.arange(n_groups, dtype=np.int64)[None, :])
        s = tensor.scales[scope_map]        # (rows, n_groups)
        z = tensor.zero_points[scope_map]   # (rows, n_groups)
        powers = (1 << (bits - 1 - np.arange(bits, dtype=np.int64)))
        scales[:] = (s[None, :, :] * powers[:, None, None]) / 2.0
        # code c = sum_i digit_i 2^(bits-1-i); with b = 2*digit - 1 the
        # reconstruction is sum_i alpha_i b_i + offset where
        # offset = s * ((2^bits - 1)/2 - z).
        offsets[:] = s * (((1 << bits) - 1) / 2.0 - z)

    per_row_bits = np.full(rows, bits, dtype=np.int64)
    return BCQTensor(bitplanes=bitplanes, scales=scales, offsets=offsets,
                     group_size=group_size, shape=(rows, cols),
                     per_row_bits=per_row_bits)
