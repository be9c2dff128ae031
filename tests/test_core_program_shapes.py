"""Shape-sweep equivalence for compiled programs at serving-layer sizes.

The compilation contract (``docs/compilation.md``) at the default MPU
geometry: a 256×512 and a 1024×1024 layer, uniform and mixed per-row
precision, batch 1, 8 and 32, run by the native kernel, are bit-identical
to the scalar ``gemm_reference``.  The reference takes seconds per call at
these sizes, so it runs on a strided row slice (``take_rows`` executes
exactly like the same rows of the whole layer); stats are checked whole,
against the plan's analytic counters.  Segment and row shards of a layer
keep the contract per shard and merge as documented.
"""

import numpy as np
import pytest

from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed
from repro.serve import merge_shard_outputs, shard_plan

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
    """(size, kind) → (tensor, plan, program) over small/large ×
    uniform/mixed."""
    mpu = MatrixProcessingUnit(CFG)
    out = {}
    for i, (size, shape) in enumerate(SIZES.items()):
        for j, kind in enumerate(("uniform", "mixed")):
            tensor = _tensor(shape, kind == "mixed", seed=10 * i + j)
            out[size, kind] = (tensor, mpu.plan(tensor),
                               mpu.prepare(tensor).program)
    return out


def _x(tensor, batch, seed=0):
    rng = np.random.default_rng(seed + batch)
    return rng.standard_normal((tensor.shape[1], batch))


def _assert_same(lhs, rhs):
    y_l, s_l = lhs
    y_r, s_r = rhs
    assert y_l.shape == y_r.shape and y_l.dtype == y_r.dtype
    assert y_l.tobytes() == y_r.tobytes()
    assert s_l == s_r


class TestLayerShapes:
    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_program_matches_oracle(self, sweep, size, kind, batch):
        tensor, _, program = sweep[size, kind]
        x = _x(tensor, batch)
        y, stats = program.execute(x, accumulate_dtype=np.float32)
        mpu = MatrixProcessingUnit(CFG)
        assert stats == mpu.plan_stats(tensor, batch)
        # Strided rows reach every row band and, for the mixed tensor,
        # every per-row bit width; the last row closes the final band.
        m = tensor.shape[0]
        rows = np.append(np.arange(0, m, m // SLICE_ROWS), m - 1)
        y_rows, _ = mpu.gemm_reference(tensor.take_rows(rows), x,
                                       accumulate_dtype=np.float32)
        assert y[rows].tobytes() == y_rows.tobytes()

    def test_segment_shards_match_reference(self, sweep):
        # Each segment sub-program equals the reference's walk of the same
        # shard; the summing merge keeps the whole program's stats.
        tensor, plan, program = sweep["small", "mixed"]
        x = _x(tensor, 8)
        mpu = MatrixProcessingUnit(CFG)
        shards = shard_plan(plan, 3, axis="segments")
        assert len(shards) == 3
        results = [mpu.gemm(tensor, x, accumulate_dtype=np.float32, shard=s)
                   for s in shards]
        for shard, result in zip(shards, results, strict=True):
            _assert_same(result, mpu.gemm_reference(
                tensor, x, accumulate_dtype=np.float32, shard=shard))
        _, stats = merge_shard_outputs(shards, results)
        assert stats == program.stats(8)

    def test_row_shards_merge_bit_exact(self, sweep):
        # Row shards scatter back into exactly the whole layer's output.
        tensor, plan, program = sweep["large", "mixed"]
        x = _x(tensor, 8)
        shards = shard_plan(plan, 3, axis="rows")
        assert len(shards) == 3
        mpu = MatrixProcessingUnit(CFG)
        results = [mpu.gemm(tensor, x, accumulate_dtype=np.float32, shard=s)
                   for s in shards]
        _assert_same(merge_shard_outputs(shards, results),
                     program.execute(x, accumulate_dtype=np.float32))
