"""High-level LUT-based FP-INT GEMM API.

This is the entry point most users want: quantize a weight matrix once,
then run FP-INT GEMMs against it with the FIGLUT numerics::

    from repro.core import figlut_gemm, prepare_weights

    packed = prepare_weights(weight, bits=4, method="bcq")
    y = figlut_gemm(packed, activations)            # fast functional path
    y, stats = figlut_gemm(packed, activations, detailed=True)   # MPU model

Both paths of ``variant="figlut-f"`` run the compiled LUT program of
:class:`~repro.core.mpu.MatrixProcessingUnit`: the default one through
:class:`~repro.core.engines.FIGLUTFloatEngine` (activations cast to
``activation_format``), the ``detailed`` one directly, also returning the
plan-exact :class:`~repro.core.mpu.MPURunStats`.  ``variant="figlut-i"``
runs the pre-aligned integer model of
:class:`~repro.core.engines.FIGLUTIntEngine`.  The native executor makes
``detailed=True`` usable on full LLM layer shapes (4096×4096 at batch 32
runs in seconds).
"""

from __future__ import annotations

import numpy as np

from repro.core.engines import make_engine
from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.quant.bcq import BCQConfig, BCQTensor, quantize_bcq, uniform_to_bcq
from repro.quant.rtn import RTNConfig, quantize_rtn

__all__ = ["prepare_weights", "figlut_gemm", "reference_gemm"]


def prepare_weights(weight: np.ndarray, bits: int = 4, method: str = "bcq",
                    group_size: int | None = None) -> BCQTensor:
    """Quantize and pack a weight matrix for FIGLUT.

    Parameters
    ----------
    weight:
        FP weight matrix of shape ``(out_features, in_features)``.
    bits:
        Number of bit-planes.
    method:
        ``"bcq"`` for non-uniform BCQ (alternating optimization) or
        ``"uniform"`` for RTN uniform quantization converted exactly into the
        BCQ-with-offset form FIGLUT consumes.
    group_size:
        Columns per scaling group (``None`` = per-row scales).
    """
    if method == "bcq":
        return quantize_bcq(weight, BCQConfig(bits=bits, group_size=group_size))
    if method == "uniform":
        granularity = "group" if group_size else "channel"
        uniform = quantize_rtn(weight, RTNConfig(bits=bits, granularity=granularity,
                                                 group_size=group_size or 128))
        return uniform_to_bcq(uniform)
    raise ValueError("method must be 'bcq' or 'uniform'")


def figlut_gemm(weights: BCQTensor, activations: np.ndarray, *,
                variant: str = "figlut-f", activation_format: str = "fp16",
                accumulator: str = "fp32", mu: int = 4,
                detailed: bool = False,
                mpu_config: MPUConfig | None = None):
    """Run an FP-INT GEMM ``Y = W X`` through the FIGLUT datapath model.

    Parameters
    ----------
    weights:
        A :class:`~repro.quant.bcq.BCQTensor` from :func:`prepare_weights`.
    activations:
        Activation vector ``(N,)`` or matrix ``(N, batch)``.
    variant:
        ``"figlut-f"`` (FP LUT + FP32 accumulate) or ``"figlut-i"``
        (pre-aligned integer LUT).
    detailed:
        If True, simulate the MPU tile-by-tile and return
        ``(Y, MPURunStats)`` instead of just ``Y``.  Only supported for
        ``variant="figlut-f"`` (the datapath the MPU models).  This path
        runs at ``mpu_config`` (default: µ = ``mu``) on the activations as
        given, *not* cast to ``activation_format``; the ``accumulator``
        precision is honoured as the LUT/accumulate dtype.
    """
    if not isinstance(weights, BCQTensor):
        raise TypeError("weights must be a BCQTensor; use prepare_weights()")
    if detailed and variant != "figlut-f":
        # The MPU models the FIGLUT-F datapath (FP LUT entries, no
        # pre-alignment); other variants have no detailed model, so reject
        # them instead of silently running FIGLUT-F numerics.
        raise ValueError(
            f"detailed=True models only variant='figlut-f', got {variant!r}")
    if variant not in ("figlut-f", "figlut-i"):
        raise ValueError("variant must be 'figlut-f' or 'figlut-i'")
    engine = make_engine(variant, activation_format=activation_format,
                         accumulator=accumulator, mu=mu)
    if detailed:
        mpu = MatrixProcessingUnit(mpu_config or MPUConfig(mu=mu))
        return mpu.gemm(weights, activations,
                        accumulate_dtype=engine._acc_dtype())
    return engine.gemm(weights, activations)


def reference_gemm(weights: BCQTensor, activations: np.ndarray) -> np.ndarray:
    """Float64 reference ``Y = Ŵ X`` using the dequantized weights."""
    if not isinstance(weights, BCQTensor):
        raise TypeError("weights must be a BCQTensor")
    x = np.asarray(activations, dtype=np.float64)
    w = weights.dequantize()
    return w @ x
