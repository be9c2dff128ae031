"""Shard-equivalence tests: plan sharding, subset execution, exact merging.

The serving subsystem's correctness contract: for 1, 2 and 7 shards, on
uniform, ragged and mixed-precision plans, row-axis sharded execution is
**bit-exact** against the unsharded ``MatrixProcessingUnit.gemm`` — outputs
via the scatter merge, ``MPURunStats`` via counter-wise summation — and
segment-axis sharding keeps the summed stats exactly equal (outputs agree
to accumulator rounding, as documented: float partial-sum reduction cannot
replay the unsharded addition order).
"""

import numpy as np
import pytest

from repro.core.dataflow import TilingConfig, plan_bcq_tile_execution
from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed
from repro.serve import merge_shard_outputs, shard_plan

MPU_CFG = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)  # tile 4×8


def _case(rng, kind):
    """(tensor, activations) for a uniform, ragged, or mixed plan."""
    if kind == "uniform":
        m, n, bits = 32, 32, 3
        w = rng.standard_normal((m, n)) * 0.1
        tensor = quantize_bcq(w, BCQConfig(bits=bits, group_size=8, iterations=1))
    elif kind == "ragged":
        m, n, bits = 29, 27, 3  # ragged row bands, column bands, µ-groups
        w = rng.standard_normal((m, n)) * 0.1
        tensor = quantize_bcq(w, BCQConfig(bits=bits, group_size=7, iterations=1))
    else:  # mixed
        m, n = 30, 26
        w = rng.standard_normal((m, n)) * 0.1
        row_bits = rng.choice([1, 2, 3, 4], size=m)
        tensor = quantize_bcq_mixed(w, row_bits,
                                    BCQConfig(group_size=6, iterations=1))
    x = rng.standard_normal((tensor.shape[1], 5))
    return tensor, x


def _assert_bitwise(actual, expected):
    """Bit-for-bit equal outputs: unlike ``assert_array_equal`` this tells
    ``-0.0`` from ``+0.0`` and one NaN payload from another."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestShardPlan:
    def test_row_shards_partition_bands(self, rng):
        tensor, _ = _case(rng, "mixed")
        plan = MatrixProcessingUnit(MPU_CFG).plan(tensor)
        shards = shard_plan(plan, 3, axis="rows")
        assert 1 <= len(shards) <= 3
        seen = sorted(i for s in shards for i in s.band_indices)
        assert seen == list(range(len(plan.row_bands)))
        rows = np.sort(np.concatenate([s.row_indices for s in shards]))
        np.testing.assert_array_equal(rows, np.arange(plan.m))
        # Every shard carries the full segment list and all scale groups.
        for s in shards:
            assert s.segments == plan.segments
            assert s.owned_scale_groups == tuple(range(plan.num_scale_groups))

    def test_segment_shards_partition_segments_and_groups(self, rng):
        tensor, _ = _case(rng, "ragged")
        plan = MatrixProcessingUnit(MPU_CFG).plan(tensor)
        shards = shard_plan(plan, 3, axis="segments")
        seg_idx = sorted(i for s in shards for i in s.segment_indices)
        assert seg_idx == list(range(len(plan.segments)))
        owned = sorted(g for s in shards for g in s.owned_scale_groups)
        assert owned == list(range(plan.num_scale_groups))
        # Segment shards never split a geometric column band (pass additivity).
        assert sum(s.num_column_bands for s in shards) == plan.num_bands

    def test_plane_pass_cost_is_balanced(self):
        # 8 uniform row bands across 3 shards: LPT keeps loads within one
        # band's cost of each other.
        plan = plan_bcq_tile_execution(8 * 4, 16, bits=3,
                                       config=TilingConfig(tile_m=4, tile_n=8),
                                       mu=4, group_size=8)
        shards = shard_plan(plan, 3, axis="rows")
        costs = [s.cost for s in shards]
        band_cost = plan.row_bands[0].planes * plan.lut_group_total
        assert max(costs) - min(costs) <= band_cost
        assert sum(s.plane_passes for s in shards) == plan.plane_passes

    def test_more_shards_than_units_drops_empties(self):
        plan = plan_bcq_tile_execution(8, 8, bits=2,
                                       config=TilingConfig(tile_m=4, tile_n=8),
                                       mu=4)
        shards = shard_plan(plan, 7, axis="rows")
        assert len(shards) == 2  # one per row band
        assert all(s.row_bands for s in shards)

    def test_rejects_bad_arguments(self, rng):
        tensor, _ = _case(rng, "uniform")
        plan = MatrixProcessingUnit(MPU_CFG).plan(tensor)
        with pytest.raises(ValueError):
            shard_plan(plan, 0)
        with pytest.raises(ValueError):
            shard_plan(plan, 2, axis="diagonal")
        with pytest.raises(ValueError):
            plan.shard_rows([99])


class TestShardedExecutionEquivalence:
    @pytest.mark.parametrize("kind", ["uniform", "ragged", "mixed"])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_row_axis_bit_exact(self, rng, kind, num_shards):
        tensor, x = _case(rng, kind)
        mpu = MatrixProcessingUnit(MPU_CFG)
        y_ref, stats_ref = mpu.gemm(tensor, x)
        shards = shard_plan(mpu.plan(tensor), num_shards, axis="rows")
        results = [mpu.gemm(tensor, x, shard=s) for s in shards]
        y, stats = merge_shard_outputs(shards, results)
        _assert_bitwise(y, y_ref)
        assert stats == stats_ref

    @pytest.mark.parametrize("kind", ["uniform", "ragged", "mixed"])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_segment_axis_stats_exact_outputs_close(self, rng, kind, num_shards):
        tensor, x = _case(rng, kind)
        mpu = MatrixProcessingUnit(MPU_CFG)
        y_ref, stats_ref = mpu.gemm(tensor, x)
        shards = shard_plan(mpu.plan(tensor), num_shards, axis="segments")
        results = [mpu.gemm(tensor, x, shard=s) for s in shards]
        y, stats = merge_shard_outputs(shards, results)
        assert stats == stats_ref  # exactly additive counters
        np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12)

    def test_per_shard_stats_match_shard_stats(self, rng):
        tensor, x = _case(rng, "mixed")
        mpu = MatrixProcessingUnit(MPU_CFG)
        for axis in ("rows", "segments"):
            for shard in shard_plan(mpu.plan(tensor), 3, axis=axis):
                _, executed = mpu.gemm(tensor, x, shard=shard)
                assert executed == mpu.shard_stats(shard, batch=x.shape[1])

    def test_row_shard_output_rows_match_reference_rows(self, rng):
        tensor, x = _case(rng, "ragged")
        mpu = MatrixProcessingUnit(MPU_CFG)
        y_ref, _ = mpu.gemm(tensor, x)
        [_, shard] = shard_plan(mpu.plan(tensor), 2, axis="rows")[:2]
        y_shard, _ = mpu.gemm(tensor, x, shard=shard)
        _assert_bitwise(y_shard, y_ref[shard.row_indices])

    def test_vector_activations_squeeze(self, rng):
        tensor, x = _case(rng, "uniform")
        mpu = MatrixProcessingUnit(MPU_CFG)
        y_ref, _ = mpu.gemm(tensor, x[:, 0])
        shards = shard_plan(mpu.plan(tensor), 2, axis="rows")
        results = [mpu.gemm(tensor, x[:, 0], shard=s) for s in shards]
        y, _ = merge_shard_outputs(shards, results)
        assert y.shape == y_ref.shape == (tensor.shape[0],)
        _assert_bitwise(y, y_ref)

    def test_shard_of_wrong_tensor_raises(self, rng):
        tensor, x = _case(rng, "uniform")
        other, _ = _case(rng, "ragged")
        mpu = MatrixProcessingUnit(MPU_CFG)
        [shard] = shard_plan(mpu.plan(other), 1, axis="rows")
        with pytest.raises(ValueError):
            mpu.gemm(tensor, x, shard=shard)

    def test_merge_rejects_incomplete_partition(self, rng):
        tensor, x = _case(rng, "uniform")
        mpu = MatrixProcessingUnit(MPU_CFG)
        shards = shard_plan(mpu.plan(tensor), 2, axis="rows")
        results = [mpu.gemm(tensor, x, shard=s) for s in shards]
        with pytest.raises(ValueError):
            merge_shard_outputs(shards[:1], results[:1])


class TestPreparedWeights:
    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    def test_prepared_gemm_bit_identical(self, rng, kind):
        tensor, x = _case(rng, kind)
        mpu = MatrixProcessingUnit(MPU_CFG)
        y_ref, stats_ref = mpu.gemm(tensor, x)
        prepared = mpu.prepare(tensor)
        y, stats = mpu.gemm(prepared, x)
        _assert_bitwise(y, y_ref)
        assert stats == stats_ref

    def test_prepared_segment_shard(self, rng):
        tensor, x = _case(rng, "mixed")
        mpu = MatrixProcessingUnit(MPU_CFG)
        prepared = mpu.prepare(tensor)
        shards = shard_plan(prepared.plan, 2, axis="segments")
        raw = [mpu.gemm(tensor, x, shard=s) for s in shards]
        prep = [mpu.gemm(prepared, x, shard=s) for s in shards]
        for (y_r, s_r), (y_p, s_p) in zip(raw, prep, strict=True):
            _assert_bitwise(y_p, y_r)
            assert s_p == s_r

    def test_prepared_rejects_row_shards(self, rng):
        tensor, x = _case(rng, "uniform")
        mpu = MatrixProcessingUnit(MPU_CFG)
        prepared = mpu.prepare(tensor)
        [shard] = shard_plan(prepared.plan, 1, axis="rows")
        with pytest.raises(ValueError):
            mpu.gemm(prepared, x, shard=shard)


class TestTakeRows:
    def test_slice_matches_full_tensor_rows(self, rng):
        tensor, x = _case(rng, "mixed")
        rows = np.array([0, 3, 7, 11, 29])
        sliced = tensor.take_rows(rows)
        assert sliced.shape == (5, tensor.shape[1])
        np.testing.assert_array_equal(sliced.dequantize(),
                                      tensor.dequantize()[rows])
        np.testing.assert_array_equal(np.asarray(sliced.per_row_bits),
                                      np.asarray(tensor.per_row_bits)[rows])

    def test_slice_accepts_slice_and_mask(self, rng):
        tensor, _ = _case(rng, "uniform")
        a = tensor.take_rows(slice(4, 12))
        mask = np.zeros(tensor.shape[0], dtype=bool)
        mask[4:12] = True
        b = tensor.take_rows(mask)
        np.testing.assert_array_equal(a.dequantize(), b.dequantize())
