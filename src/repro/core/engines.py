"""Functional GEMM engines for the five hardware designs compared in the paper.

Each engine computes ``Y = W X`` (weights quantized, activations FP) using
the *numerics* of the corresponding hardware, so the accuracy experiments
(Table IV, Table VI, Fig. 17) can run a whole model through any engine:

* :class:`FPEngine` (FPE) — the baseline: dequantize INT weights to the
  activation format and do FP multiply + FP accumulate.
* :class:`IFPUEngine` (iFPU) — bit-serial BCQ: pre-align activation mantissas
  to a shared exponent, then per bit-plane add/subtract integer mantissas,
  scale by α, and accumulate.
* :class:`FIGNAEngine` (FIGNA) — pre-align activations, multiply the integer
  mantissas by the INT weight codes, accumulate in integer, then apply the
  FP scale / zero-point.
* :class:`FIGLUTFloatEngine` (FIGLUT-F) — LUT-based BCQ GEMM with FP LUT
  entries and FP32 accumulation (no pre-alignment), run as the layer's
  compiled LUT program on :class:`~repro.core.mpu.MatrixProcessingUnit`.
* :class:`FIGLUTIntEngine` (FIGLUT-I) — LUT-based BCQ GEMM on pre-aligned
  integer mantissas with integer accumulation.

All engines accept either a :class:`~repro.quant.rtn.UniformQuantizedTensor`
or a :class:`~repro.quant.bcq.BCQTensor`; engines that natively consume the
other format convert via :func:`repro.quant.bcq.uniform_to_bcq` (BCQ engines
given uniform weights) or reject BCQ (INT-only engines, mirroring Table I's
"BCQ support" column).

FIGLUT-F is the MPU's own datapath: the same compiled program (and native
kernel) that the decode stack and the serving pool run, so its output is
bit-identical to :meth:`~repro.core.mpu.MatrixProcessingUnit.gemm` on the
cast activations.  The other engines, FIGLUT-I included, are vectorised
NumPy models of their hardware's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mpu import MatrixProcessingUnit, MPUConfig, PreparedWeights
from repro.numerics.floats import FloatFormat, cast_to_format, get_format
from repro.numerics.prealign import prealign_grouped
from repro.quant.bcq import BCQTensor, uniform_to_bcq
from repro.quant.rtn import UniformQuantizedTensor

__all__ = [
    "EngineStats",
    "GEMMEngine",
    "FPEngine",
    "IFPUEngine",
    "FIGNAEngine",
    "FIGLUTFloatEngine",
    "FIGLUTIntEngine",
    "available_engines",
    "make_engine",
]


@dataclass
class EngineStats:
    """Operation counts accumulated over an engine's GEMM calls."""

    fp_multiplications: int = 0
    fp_additions: int = 0
    int_multiplications: int = 0
    int_additions: int = 0
    lut_reads: int = 0
    lut_generations: int = 0
    dequantizations: int = 0
    prealignments: int = 0

    def total_operations(self) -> int:
        return (self.fp_multiplications + self.fp_additions + self.int_multiplications
                + self.int_additions + self.lut_reads + self.lut_generations
                + self.dequantizations + self.prealignments)


def _as_bcq(weights: BCQTensor | UniformQuantizedTensor) -> BCQTensor:
    if isinstance(weights, BCQTensor):
        return weights
    return uniform_to_bcq(weights)


def _activation_2d(x: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[:, None]
    if arr.shape[0] != n:
        raise ValueError(f"activation rows {arr.shape[0]} != weight cols {n}")
    return arr, squeeze


def _prealigned_bcq_gemm(bcq: BCQTensor, x: np.ndarray,
                         fmt: FloatFormat) -> np.ndarray:
    """Shared vectorized core of the pre-aligned BCQ engines (iFPU, FIGLUT-I).

    All (group, batch-column) activation blocks are pre-aligned in one
    batched pass, then each (group, bit-plane) contributes through a single
    sign-matrix product over the whole batch.  The per-column accumulation
    order (planes within a group, then the group's offset term) and every
    elementwise operation match the scalar per-(batch, group, plane) loops
    bit-for-bit; mantissas ride in float64 through BLAS, which is exact
    because every partial sum is an integer far below 2**53.

    Mixed tensors walk only each row's own planes: a zero-scale padded
    (row, plane) would contribute ``0 × acc``, so restricting the sign
    product to the plane's active rows leaves every output bit unchanged
    while skipping the padded work.
    """
    m, n = bcq.shape
    batch = x.shape[1]
    y = np.zeros((m, batch), dtype=np.float64)
    if n == 0 or batch == 0:
        return y
    max_planes, active_rows = bcq.plane_activity()
    pre = prealign_grouped(x, bcq.group_size, fmt=fmt)
    mantissas = pre.mantissas.astype(np.float64)
    # Row sums per (batch, group) block for the offset term; the transposed
    # contiguous layout reproduces np.sum's per-column reduction order.
    xt = np.ascontiguousarray(x.T)
    for g, sl in enumerate(bcq.column_groups()):
        mant = mantissas[sl]                      # (group, batch)
        scale = pre.scales[g]                     # (batch,)
        for plane in range(max_planes):
            if active_rows is None:
                signs = bcq.bitplanes[plane][:, sl].astype(np.float64)
                acc = signs @ mant                # integer-valued, exact
                y += bcq.scales[plane][:, g][:, None] * (acc * scale[None, :])
            else:
                idx = active_rows[plane]
                signs = bcq.bitplanes[plane][:, sl][idx].astype(np.float64)
                acc = signs @ mant
                y[idx] += bcq.scales[plane][idx, g][:, None] * (acc * scale[None, :])
        y += bcq.offsets[:, g][:, None] * xt[:, sl].sum(axis=1)[None, :]
    return y


class GEMMEngine:
    """Base class for the functional GEMM engines.

    Parameters
    ----------
    activation_format:
        The FP format activations arrive in (``"fp16"``, ``"bf16"``,
        ``"fp32"``).
    accumulator:
        Accumulation precision; ``"fp32"`` matches the paper's configuration,
        ``"fp16"`` can be used for ablation.
    """

    name = "base"
    supports_bcq = False
    supports_mixed_precision = False

    def __init__(self, activation_format: FloatFormat | str = "fp16",
                 accumulator: str = "fp32") -> None:
        self.activation_format = get_format(activation_format)
        if accumulator not in ("fp16", "fp32", "fp64"):
            raise ValueError("accumulator must be 'fp16', 'fp32' or 'fp64'")
        self.accumulator = accumulator
        self.stats = EngineStats()

    # -- helpers -----------------------------------------------------------
    def _acc_dtype(self) -> np.dtype:
        return {"fp16": np.dtype(np.float16), "fp32": np.dtype(np.float32),
                "fp64": np.dtype(np.float64)}[self.accumulator]

    def _quantize_activations(self, x: np.ndarray) -> np.ndarray:
        return cast_to_format(x, self.activation_format)

    # -- interface ---------------------------------------------------------
    def gemm(self, weights, activations: np.ndarray) -> np.ndarray:
        """Compute ``Y = W X``; subclasses implement the engine numerics."""
        raise NotImplementedError

    def reset_stats(self) -> None:
        self.stats = EngineStats()


class FPEngine(GEMMEngine):
    """Baseline FPE: dequantize to FP, multiply and accumulate in FP."""

    name = "fpe"
    supports_bcq = False

    def gemm(self, weights: UniformQuantizedTensor | BCQTensor,
             activations: np.ndarray) -> np.ndarray:
        if isinstance(weights, BCQTensor):
            raise TypeError("FPE has no BCQ datapath (Table I); provide a uniform tensor")
        m, n = weights.shape
        x, squeeze = _activation_2d(activations, n)
        x = self._quantize_activations(x)

        # Dequantize weights into the activation format (the FPE's converter).
        w = cast_to_format(weights.dequantize(), self.activation_format)
        self.stats.dequantizations += w.size

        acc = self._acc_dtype()
        y = (w.astype(acc) @ x.astype(acc)).astype(np.float64)
        self.stats.fp_multiplications += m * n * x.shape[1]
        self.stats.fp_additions += m * max(n - 1, 0) * x.shape[1]
        return y[:, 0] if squeeze else y


class IFPUEngine(GEMMEngine):
    """iFPU: bit-serial BCQ with pre-aligned mantissas and INT add/subtract."""

    name = "ifpu"
    supports_bcq = True
    supports_mixed_precision = True

    def gemm(self, weights: UniformQuantizedTensor | BCQTensor,
             activations: np.ndarray) -> np.ndarray:
        bcq = _as_bcq(weights)
        m, n = bcq.shape
        x, squeeze = _activation_2d(activations, n)
        x = self._quantize_activations(x)
        batch = x.shape[1]

        y = _prealigned_bcq_gemm(bcq, x, self.activation_format)

        # Mixed tensors execute only Σ per-row bits plane-rows (padded
        # zero-scale planes are skipped); uniform tensors give m · bits.
        row_planes = int(np.sum(bcq.per_row_bits))
        n_groups = bcq.n_groups
        self.stats.prealignments += n * batch
        self.stats.int_additions += row_planes * n * batch
        self.stats.fp_multiplications += row_planes * batch * n_groups
        self.stats.fp_additions += (row_planes + m) * batch * n_groups
        return y[:, 0] if squeeze else y


def _figna_work_dtype(mantissa_bits: int, code_magnitude: int, n: int) -> np.dtype:
    """Matmul dtype for FIGNA's centred-code × mantissa products.

    float64 BLAS when every partial sum is an integer exactly representable
    below 2**53 (aligned mantissas carry ``mantissa_bits + 1`` bits, centred
    codes at most ``code_magnitude`` in absolute value — which asymmetric
    grids with large zero points can push far beyond ``2**bits`` — and the
    reduction adds at most ``n`` products); otherwise the (exact but slower)
    int64 matmul.
    """
    magnitude_bits = max(code_magnitude, 1).bit_length()
    if (mantissa_bits + 1 + magnitude_bits + max(n, 1).bit_length()) < 53:
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def _reference_figna_gemm(weights: UniformQuantizedTensor, x: np.ndarray,
                          fmt: FloatFormat) -> np.ndarray:
    """Scalar per-(batch column, scope) FIGNA loop (the seed hot loop).

    Retained as the ground truth the batched :meth:`FIGNAEngine.gemm` is
    tested bit-for-bit against (``x`` arrives already cast to the activation
    format); orders of magnitude slower on real layers.
    """
    from repro.numerics.prealign import prealign
    from repro.quant.rtn import _iter_scopes

    m, n = weights.shape
    batch = x.shape[1]
    y = np.zeros((m, batch), dtype=np.float64)
    codes = weights.codes.astype(np.int64)
    zero_int = np.rint(weights.zero_points).astype(np.int64)
    zero_frac = weights.zero_points - zero_int
    for b in range(batch):
        block = prealign(x[:, b], fmt=fmt)
        mant = block.mantissas.astype(np.int64)
        for scope_idx, rsl, csl in _iter_scopes(weights.shape, weights.granularity,
                                                weights.group_size):
            sub_codes = codes[rsl, csl] - zero_int[scope_idx]
            acc = sub_codes @ mant[csl]  # integer multiply-accumulate
            contribution = weights.scales[scope_idx] * (
                acc * block.scale - zero_frac[scope_idx] * x[csl, b].sum())
            y[rsl, b] += contribution
    return y


class FIGNAEngine(GEMMEngine):
    """FIGNA: pre-aligned integer mantissa × INT weight code multiplication.

    Like the BCQ engines' :func:`_prealigned_bcq_gemm` core, all (batch
    column) activation blocks are pre-aligned in one
    :func:`~repro.numerics.prealign.prealign_grouped` pass (FIGNA aligns each
    whole activation column, i.e. one group spanning all input channels), and
    each per-scope integer multiply-accumulate runs as a single matrix
    product over the whole batch — bit-exact with the per-column scalar loop.
    """

    name = "figna"
    supports_bcq = False

    def gemm(self, weights: UniformQuantizedTensor | BCQTensor,
             activations: np.ndarray) -> np.ndarray:
        if isinstance(weights, BCQTensor):
            raise TypeError("FIGNA supports only uniformly quantized weights (Table I)")
        m, n = weights.shape
        x, squeeze = _activation_2d(activations, n)
        x = self._quantize_activations(x)
        batch = x.shape[1]
        y = np.zeros((m, batch), dtype=np.float64)
        if n == 0 or batch == 0:
            return y[:, 0] if squeeze else y

        # Centre the codes around the zero point so the integer product is of
        # (code - zero); the residual fractional zero point is applied in FP.
        zero_int = np.rint(weights.zero_points).astype(np.int64)
        zero_frac = weights.zero_points - zero_int

        pre = prealign_grouped(x, n, fmt=self.activation_format)
        self.stats.prealignments += n * batch
        col_scale = pre.scales[0]  # (batch,) — one shared exponent per column
        # Mantissas and centred codes ride in float64 through BLAS when every
        # partial sum fits exactly below 2**53, falling back to the (exact but
        # slower) int64 matmul for very wide accumulations or grids whose
        # zero points inflate the centred codes (e.g. narrow all-positive
        # asymmetric blocks).
        qmax = (1 << weights.bits) - 1
        max_centred = int(np.maximum(np.abs(zero_int),
                                     np.abs(qmax - zero_int)).max()) if zero_int.size else 1
        work_dtype = _figna_work_dtype(self.activation_format.mantissa_bits,
                                       max_centred, n)
        mant = pre.mantissas.astype(work_dtype)
        codes = weights.codes.astype(work_dtype)
        # Row sums per (batch, group) block for the fractional-zero-point
        # term; the transposed contiguous layout reproduces np.sum's
        # per-column reduction order.
        xt = np.ascontiguousarray(x.T)

        # One batched pass per column scope group (all rows at once); the
        # ascending group order matches the per-scope scalar accumulation.
        if weights.granularity == "tensor":
            col_groups = [(slice(0, n), np.zeros(m, dtype=np.int64))]
        elif weights.granularity == "channel":
            col_groups = [(slice(0, n), np.arange(m, dtype=np.int64))]
        else:
            n_groups = (n + weights.group_size - 1) // weights.group_size
            col_groups = [
                (slice(g * weights.group_size, min((g + 1) * weights.group_size, n)),
                 np.arange(m, dtype=np.int64) * n_groups + g)
                for g in range(n_groups)
            ]

        for csl, scope_vec in col_groups:
            cols = csl.stop - csl.start
            centred = codes[:, csl] - zero_int[scope_vec].astype(work_dtype)[:, None]
            acc = centred @ mant[csl]  # (m, batch) integer-valued, exact
            col_sums = xt[:, csl].sum(axis=1)  # (batch,)
            y += weights.scales[scope_vec][:, None] * (
                acc.astype(np.float64) * col_scale[None, :]
                - zero_frac[scope_vec][:, None] * col_sums[None, :])
            self.stats.int_multiplications += m * cols * batch
            self.stats.int_additions += m * max(cols - 1, 0) * batch
            self.stats.fp_multiplications += m * batch
            self.stats.fp_additions += m * batch
        return y[:, 0] if squeeze else y


class _FIGLUTBase(GEMMEngine):
    """Shared machinery of the two FIGLUT variants."""

    supports_bcq = True
    supports_mixed_precision = True

    def __init__(self, activation_format: FloatFormat | str = "fp16",
                 accumulator: str = "fp32", mu: int = 4) -> None:
        super().__init__(activation_format, accumulator)
        if mu < 1:
            raise ValueError("mu must be >= 1")
        self.mu = mu

    def _count_lut_ops(self, m: int, n: int, batch: int, bits: int,
                       row_planes: int | None = None) -> None:
        """LUT op counters; ``row_planes`` (Σ per-row bits, default
        ``m · bits``) charges mixed tensors only their executed plane-rows."""
        if row_planes is None:
            row_planes = m * bits
        groups = (n + self.mu - 1) // self.mu
        self.stats.lut_generations += groups * batch * bits
        self.stats.lut_reads += row_planes * groups * batch
        self.stats.int_additions += row_planes * groups * batch  # accumulations


class FIGLUTFloatEngine(_FIGLUTBase):
    """FIGLUT-F: LUT entries and accumulation in floating point (no pre-alignment).

    Runs the MPU's compiled LUT program (µ = ``mu``) on the activations cast
    to ``activation_format``, LUT entries and accumulators in the
    ``accumulator`` dtype; ``weights`` may be
    :class:`~repro.core.mpu.PreparedWeights`, whose program runs as is.
    """

    name = "figlut-f"

    def __init__(self, activation_format: FloatFormat | str = "fp16",
                 accumulator: str = "fp32", mu: int = 4) -> None:
        super().__init__(activation_format, accumulator, mu)
        self._mpu = MatrixProcessingUnit(MPUConfig(mu=mu))

    def gemm(self, weights: UniformQuantizedTensor | BCQTensor | PreparedWeights,
             activations: np.ndarray) -> np.ndarray:
        if isinstance(weights, PreparedWeights):
            if weights.program.mu != self.mu:
                raise ValueError(f"weights prepared at µ={weights.program.mu}, engine µ={self.mu}")
        else:
            weights = self._mpu.prepare(_as_bcq(weights))
        bcq = weights.weights
        m, n = bcq.shape
        x, squeeze = _activation_2d(activations, n)
        x = self._quantize_activations(x)
        batch = x.shape[1]
        y = self._mpu.run(weights, x, accumulate_dtype=self._acc_dtype())

        row_planes = int(np.sum(bcq.per_row_bits))
        self._count_lut_ops(m, n, batch, bcq.bits, row_planes)
        self.stats.fp_multiplications += row_planes * batch * bcq.n_groups
        self.stats.fp_additions += (row_planes + m) * batch * bcq.n_groups
        return y[:, 0] if squeeze else y


class FIGLUTIntEngine(_FIGLUTBase):
    """FIGLUT-I: pre-aligned integer LUT entries with integer accumulation."""

    name = "figlut-i"

    def gemm(self, weights: UniformQuantizedTensor | BCQTensor,
             activations: np.ndarray) -> np.ndarray:
        bcq = _as_bcq(weights)
        m, n = bcq.shape
        x, squeeze = _activation_2d(activations, n)
        x = self._quantize_activations(x)
        batch = x.shape[1]

        y = _prealigned_bcq_gemm(bcq, x, self.activation_format)

        row_planes = int(np.sum(bcq.per_row_bits))
        n_groups = bcq.n_groups
        self.stats.prealignments += n * batch
        self._count_lut_ops(m, n, batch, bcq.bits, row_planes)
        self.stats.fp_multiplications += row_planes * batch * n_groups
        self.stats.fp_additions += (row_planes + m) * batch * n_groups
        return y[:, 0] if squeeze else y


_ENGINE_CLASSES: dict[str, type[GEMMEngine]] = {
    "fpe": FPEngine,
    "ifpu": IFPUEngine,
    "figna": FIGNAEngine,
    "figlut-f": FIGLUTFloatEngine,
    "figlut-i": FIGLUTIntEngine,
}


def available_engines() -> list[str]:
    """Names of the functional engines, in the order the paper introduces them."""
    return list(_ENGINE_CLASSES)


def make_engine(name: str, **kwargs) -> GEMMEngine:
    """Instantiate a functional engine by name (see :func:`available_engines`)."""
    try:
        cls = _ENGINE_CLASSES[name.lower()]
    except KeyError as exc:
        raise ValueError(f"unknown engine {name!r}; available: {available_engines()}") from exc
    return cls(**kwargs)
