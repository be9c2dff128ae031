"""Shape-sweep equivalence for compiled programs at serving-layer sizes.

The compilation contract (``docs/compilation.md``) at the default MPU
geometry: a 256×512 and a 1024×1024 layer, uniform and mixed per-row
precision, batch 1, 8 and 32, run by the native kernel, are bit-identical
to the scalar ``gemm_reference``.  The reference takes seconds per call at
these sizes, so it runs on a strided row slice (``take_rows`` executes
exactly like the same rows of the whole layer); stats are checked whole,
against the plan's analytic counters.  Row slices and column chunks of a
layer stack back into the whole program's output bit for bit.
"""

import numpy as np
import pytest

from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed

CFG = MPUConfig()
SIZES = {"small": (256, 512), "large": (1024, 1024)}
BATCHES = (1, 8, 32)
SLICE_ROWS = 32


def _tensor(shape, mixed, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shape) * 0.05
    if mixed:
        per_row = rng.integers(1, 4, size=shape[0])
        return quantize_bcq_mixed(
            w, per_row, BCQConfig(bits=3, group_size=128, iterations=1))
    return quantize_bcq(w, BCQConfig(bits=2, group_size=128, iterations=1))


@pytest.fixture(scope="module")
def sweep():
    """(size, kind) → (tensor, prepared weights) over small/large ×
    uniform/mixed."""
    mpu = MatrixProcessingUnit(CFG)
    out = {}
    for i, (size, shape) in enumerate(SIZES.items()):
        for j, kind in enumerate(("uniform", "mixed")):
            tensor = _tensor(shape, kind == "mixed", seed=10 * i + j)
            out[size, kind] = (tensor, mpu.prepare(tensor))
    return out


def _x(tensor, batch, seed=0):
    rng = np.random.default_rng(seed + batch)
    return rng.standard_normal((tensor.shape[1], batch))


class TestLayerShapes:
    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_program_matches_oracle(self, sweep, size, kind, batch):
        tensor, prepared = sweep[size, kind]
        x = _x(tensor, batch)
        y = prepared.program.execute(x, accumulate_dtype=np.float32)
        mpu = MatrixProcessingUnit(CFG)
        stats = mpu.stats_from_plan(prepared.plan, batch)
        assert stats == mpu.plan_stats(tensor, batch)
        # Strided rows reach every row band and, for the mixed tensor,
        # every per-row bit width; the last row closes the final band.
        m = tensor.shape[0]
        rows = np.append(np.arange(0, m, m // SLICE_ROWS), m - 1)
        y_rows, _ = mpu.gemm_reference(tensor.take_rows(rows), x,
                                       accumulate_dtype=np.float32)
        assert y[rows].tobytes() == y_rows.tobytes()

    def test_row_slices_merge_bit_exact(self, sweep):
        # Three contiguous row slices of the large layer, each compiled on
        # its own, stack back into exactly the whole program's output.
        tensor, prepared = sweep["large", "mixed"]
        x = _x(tensor, 8)
        mpu = MatrixProcessingUnit(CFG)
        pieces = []
        for rows in np.array_split(np.arange(tensor.shape[0]), 3):
            sliced = tensor.take_rows(slice(rows[0], rows[-1] + 1))
            y, stats = mpu.gemm(sliced, x, accumulate_dtype=np.float32)
            assert stats == mpu.plan_stats(sliced, 8)
            pieces.append(y)
        y_full = prepared.program.execute(x, accumulate_dtype=np.float32)
        assert np.concatenate(pieces, axis=0).tobytes() == y_full.tobytes()

    def test_column_chunks_merge_bit_exact(self, sweep):
        # Uneven column chunks of a batch-32 call, the pool's fan-out split,
        # concatenate into exactly the whole call's output.
        tensor, prepared = sweep["small", "mixed"]
        program = prepared.program
        x = _x(tensor, 32)
        y_full = program.execute(x, accumulate_dtype=np.float32)
        pieces = []
        for cols in np.array_split(np.arange(32), 3):
            y = program.execute(x[:, cols], accumulate_dtype=np.float32)
            pieces.append(y)
        assert np.concatenate(pieces, axis=1).tobytes() == y_full.tobytes()
