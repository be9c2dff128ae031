"""Round-to-nearest (RTN) uniform weight quantization.

RTN is the "simple uniform quantization method" the paper uses for the
numerical-accuracy comparison in Table IV.  We support per-tensor,
per-channel (output channel / row) and group-wise scaling, both asymmetric
(min/max with zero point) and symmetric (absmax) variants, for arbitrary bit
widths >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RTNConfig",
    "UniformQuantizedTensor",
    "quantize_rtn",
    "dequantize_uniform",
]


@dataclass(frozen=True)
class RTNConfig:
    """Configuration for RTN uniform quantization.

    Attributes
    ----------
    bits:
        Weight bit width (>= 1).
    symmetric:
        If True, use symmetric absmax scaling with no zero point offset (the
        grid is centred on zero); otherwise asymmetric min/max quantization.
    granularity:
        ``"tensor"``, ``"channel"`` (one scale per output row) or
        ``"group"`` (one scale per contiguous group of ``group_size`` input
        columns within each row).
    group_size:
        Group width used when ``granularity == "group"``.
    """

    bits: int = 4
    symmetric: bool = False
    granularity: str = "channel"
    group_size: int = 128

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.granularity not in ("tensor", "channel", "group"):
            raise ValueError("granularity must be 'tensor', 'channel' or 'group'")
        if self.granularity == "group" and self.group_size < 1:
            raise ValueError("group_size must be >= 1")


@dataclass
class UniformQuantizedTensor:
    """A uniformly quantized weight matrix.

    The stored representation is ``codes`` (integer levels in
    ``[0, 2**bits - 1]``) together with per-scope ``scales`` and
    ``zero_points`` such that::

        w_hat[i, j] = (codes[i, j] - zero_points[scope]) * scales[scope]

    where *scope* is the row / group the element belongs to.
    """

    codes: np.ndarray
    scales: np.ndarray
    zero_points: np.ndarray
    bits: int
    granularity: str
    group_size: int
    shape: tuple[int, int]

    @property
    def num_levels(self) -> int:
        return 1 << self.bits

    def dequantize(self) -> np.ndarray:
        """Reconstruct the FP weight matrix represented by this tensor."""
        return dequantize_uniform(self)

    def storage_bits(self) -> int:
        """Total bits needed for codes plus FP16 scales / zero points."""
        code_bits = self.codes.size * self.bits
        meta_bits = (self.scales.size + self.zero_points.size) * 16
        return int(code_bits + meta_bits)


def _iter_scopes(shape: tuple[int, int], granularity: str, group_size: int):
    """Yield (scope_index, row_slice, col_slice) triples covering the matrix."""
    rows, cols = shape
    if granularity == "tensor":
        yield 0, slice(0, rows), slice(0, cols)
        return
    if granularity == "channel":
        for r in range(rows):
            yield r, slice(r, r + 1), slice(0, cols)
        return
    # group
    groups_per_row = (cols + group_size - 1) // group_size
    idx = 0
    for r in range(rows):
        for g in range(groups_per_row):
            yield idx, slice(r, r + 1), slice(g * group_size, min((g + 1) * group_size, cols))
            idx += 1


def quantize_rtn(weight: np.ndarray, config: RTNConfig | None = None) -> UniformQuantizedTensor:
    """Quantize a 2-D weight matrix with round-to-nearest uniform quantization."""
    config = config or RTNConfig()
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("quantize_rtn expects a 2-D weight matrix")

    rows, cols = w.shape
    scopes = list(_iter_scopes(w.shape, config.granularity, config.group_size))
    n_scopes = len(scopes)

    codes = np.zeros_like(w, dtype=np.int64)
    scales = np.zeros(n_scopes, dtype=np.float64)
    zero_points = np.zeros(n_scopes, dtype=np.float64)
    qmax = (1 << config.bits) - 1

    for scope_idx, rsl, csl in scopes:
        block = w[rsl, csl]
        if block.size == 0:
            scales[scope_idx] = 1.0
            continue
        if config.symmetric:
            absmax = float(np.max(np.abs(block)))
            # Symmetric grid centred at zero: levels map to [-absmax, +absmax].
            # A subnormal absmax can underflow the step to 0; treat it as 0.
            scale = (2.0 * absmax / qmax) or 1.0
            zero = qmax / 2.0
        else:
            lo = float(np.min(block))
            hi = float(np.max(block))
            scale = (hi - lo) / qmax
            if scale == 0.0:
                # Constant block (or a subnormal range whose step underflows):
                # encode as code 0 with zero_point -lo so the dequantized
                # value is exactly lo.
                codes[rsl, csl] = 0
                scales[scope_idx] = 1.0
                zero_points[scope_idx] = -lo
                continue
            zero = -lo / scale
        q = np.clip(np.rint(block / scale + zero), 0, qmax)
        codes[rsl, csl] = q.astype(np.int64)
        scales[scope_idx] = scale
        zero_points[scope_idx] = zero

    return UniformQuantizedTensor(
        codes=codes,
        scales=scales,
        zero_points=zero_points,
        bits=config.bits,
        granularity=config.granularity,
        group_size=config.group_size,
        shape=(rows, cols),
    )


def dequantize_uniform(tensor: UniformQuantizedTensor) -> np.ndarray:
    """Reconstruct the FP matrix from a :class:`UniformQuantizedTensor`."""
    out = np.zeros(tensor.shape, dtype=np.float64)
    scopes = _iter_scopes(tensor.shape, tensor.granularity, tensor.group_size)
    for scope_idx, rsl, csl in scopes:
        out[rsl, csl] = (tensor.codes[rsl, csl] - tensor.zero_points[scope_idx]) * tensor.scales[scope_idx]
    return out
