"""FIGLUT reproduction library.

A Python reproduction of *"FIGLUT: An Energy-Efficient Accelerator Design for
FP-INT GEMM Using Look-Up Tables"* (HPCA 2025), including:

* the LUT-based FP-INT GEMM core (:mod:`repro.core`),
* the weight-only quantization substrate (:mod:`repro.quant`),
* the floating-point / pre-alignment numerics substrate (:mod:`repro.numerics`),
* analytical hardware cost models for FPE, iFPU, FIGNA and FIGLUT
  (:mod:`repro.hw`),
* an LLM workload substrate with OPT-family shapes and a small NumPy
  transformer for accuracy experiments (:mod:`repro.models`),
* evaluation drivers that regenerate every table and figure of the paper
  (:mod:`repro.eval`),
* an async-batched inference serving subsystem over the
  tile-execution core (:mod:`repro.serve`).

Quickstart::

    import numpy as np
    from repro.core import prepare_weights, figlut_gemm

    rng = np.random.default_rng(0)
    weight = rng.standard_normal((256, 256))
    x = rng.standard_normal((256, 8))

    packed = prepare_weights(weight, bits=4, method="bcq")
    y = figlut_gemm(packed, x)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
