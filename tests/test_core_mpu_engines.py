"""Tests for the MPU functional simulation and the functional GEMM engines."""

import numpy as np
import pytest

from repro.core.engines import (
    FIGLUTFloatEngine,
    FIGLUTIntEngine,
    FIGNAEngine,
    FPEngine,
    IFPUEngine,
    available_engines,
    make_engine,
)
from repro.core.gemm import figlut_gemm, prepare_weights, reference_gemm
from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.quant.bcq import BCQConfig, quantize_bcq, uniform_to_bcq
from repro.quant.rtn import RTNConfig, quantize_rtn


@pytest.fixture
def bcq_weights(small_weight):
    return quantize_bcq(small_weight, BCQConfig(bits=3, iterations=3))


@pytest.fixture
def uniform_weights(small_weight):
    return quantize_rtn(small_weight, RTNConfig(bits=4, granularity="channel"))


class TestMPU:
    def test_matches_dequantized_reference(self, bcq_weights, small_activations):
        mpu = MatrixProcessingUnit(MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=8))
        y, stats = mpu.gemm(bcq_weights, small_activations)
        reference = bcq_weights.dequantize() @ small_activations
        np.testing.assert_allclose(y, reference, rtol=1e-9, atol=1e-9)
        assert stats.lut_reads > 0 and stats.cycles > 0

    def test_vector_input(self, bcq_weights, rng):
        mpu = MatrixProcessingUnit(MPUConfig(pe_rows=2, pe_cols=1, mu=4, k=8))
        x = rng.standard_normal(bcq_weights.shape[1])
        y, _ = mpu.gemm(bcq_weights, x)
        np.testing.assert_allclose(y, bcq_weights.dequantize() @ x, rtol=1e-9, atol=1e-9)

    def test_uniform_converted_weights(self, uniform_weights, small_activations):
        bcq = uniform_to_bcq(uniform_weights)
        mpu = MatrixProcessingUnit(MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=16))
        y, _ = mpu.gemm(bcq, small_activations)
        np.testing.assert_allclose(y, uniform_weights.dequantize() @ small_activations,
                                   rtol=1e-9, atol=1e-9)

    def test_lut_read_count_matches_analytic_formula(self, bcq_weights, small_activations):
        cfg = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=8)
        mpu = MatrixProcessingUnit(cfg)
        _, stats = mpu.gemm(bcq_weights, small_activations)
        m, n = bcq_weights.shape
        batch = small_activations.shape[1]
        groups_per_tile_row = -(-cfg.tile_n // cfg.mu)
        # Every (row, group, batch, plane) combination triggers one read.
        tiles_n = -(-n // cfg.tile_n)
        tiles_m = -(-m // cfg.tile_m)
        total_reads = 0
        for tm in range(tiles_m):
            rows = min(cfg.tile_m, m - tm * cfg.tile_m)
            for tn in range(tiles_n):
                cols = min(cfg.tile_n, n - tn * cfg.tile_n)
                groups = -(-cols // cfg.mu)
                total_reads += rows * groups * batch * bcq_weights.bits
        assert stats.lut_reads == total_reads
        del groups_per_tile_row

    def test_cycles_scale_with_bit_planes(self, small_weight, small_activations):
        cfg = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=8)
        y2, s2 = MatrixProcessingUnit(cfg).gemm(
            quantize_bcq(small_weight, BCQConfig(bits=2, iterations=1)), small_activations)
        y4, s4 = MatrixProcessingUnit(cfg).gemm(
            quantize_bcq(small_weight, BCQConfig(bits=4, iterations=1)), small_activations)
        assert s4.cycles == 2 * s2.cycles
        del y2, y4

    def test_shape_mismatch_raises(self, bcq_weights):
        mpu = MatrixProcessingUnit()
        with pytest.raises(ValueError):
            mpu.gemm(bcq_weights, np.zeros((bcq_weights.shape[1] + 1, 2)))

    def test_fp32_accumulation_close_to_fp64(self, bcq_weights, small_activations):
        mpu = MatrixProcessingUnit(MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=8))
        y32, _ = mpu.gemm(bcq_weights, small_activations, accumulate_dtype=np.float32)
        y64, _ = mpu.gemm(bcq_weights, small_activations, accumulate_dtype=np.float64)
        np.testing.assert_allclose(y32, y64, rtol=1e-4, atol=1e-4)


class TestEngines:
    def test_available_engines(self):
        assert available_engines() == ["fpe", "ifpu", "figna", "figlut-f", "figlut-i"]

    def test_make_engine_unknown(self):
        with pytest.raises(ValueError):
            make_engine("tpu")

    @pytest.mark.parametrize("name", ["fpe", "figna"])
    def test_int_engines_match_reference(self, name, uniform_weights, small_activations):
        engine = make_engine(name, activation_format="fp32")
        y = engine.gemm(uniform_weights, small_activations)
        reference = uniform_weights.dequantize() @ small_activations
        np.testing.assert_allclose(y, reference, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("name", ["ifpu", "figlut-f", "figlut-i"])
    def test_bcq_engines_match_reference(self, name, bcq_weights, small_activations):
        engine = make_engine(name, activation_format="fp32")
        y = engine.gemm(bcq_weights, small_activations)
        reference = bcq_weights.dequantize() @ small_activations
        np.testing.assert_allclose(y, reference, rtol=1e-4, atol=1e-5)

    def test_bcq_engines_accept_uniform_weights(self, uniform_weights, small_activations):
        engine = FIGLUTFloatEngine(activation_format="fp32")
        y = engine.gemm(uniform_weights, small_activations)
        np.testing.assert_allclose(y, uniform_weights.dequantize() @ small_activations,
                                   rtol=1e-4, atol=1e-5)

    def test_int_engines_reject_bcq(self, bcq_weights, small_activations):
        with pytest.raises(TypeError):
            FPEngine().gemm(bcq_weights, small_activations)
        with pytest.raises(TypeError):
            FIGNAEngine().gemm(bcq_weights, small_activations)

    def test_fp16_activation_quantization_changes_result(self, bcq_weights, small_activations):
        fp32_engine = FIGLUTFloatEngine(activation_format="fp32")
        fp16_engine = FIGLUTFloatEngine(activation_format="fp16")
        y32 = fp32_engine.gemm(bcq_weights, small_activations)
        y16 = fp16_engine.gemm(bcq_weights, small_activations)
        assert not np.allclose(y32, y16, atol=0)
        np.testing.assert_allclose(y32, y16, rtol=0.05, atol=0.05)

    def test_engine_stats_populated(self, bcq_weights, small_activations):
        engine = FIGLUTIntEngine(activation_format="fp16")
        engine.gemm(bcq_weights, small_activations)
        assert engine.stats.lut_reads > 0
        assert engine.stats.prealignments > 0
        engine.reset_stats()
        assert engine.stats.lut_reads == 0

    def test_ifpu_and_figlut_i_agree(self, bcq_weights, small_activations):
        # Both use pre-aligned integer arithmetic on the same bit planes.
        a = IFPUEngine(activation_format="fp16").gemm(bcq_weights, small_activations)
        b = FIGLUTIntEngine(activation_format="fp16").gemm(bcq_weights, small_activations)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_vector_activation(self, bcq_weights, rng):
        x = rng.standard_normal(bcq_weights.shape[1])
        y = FIGLUTFloatEngine(activation_format="fp32").gemm(bcq_weights, x)
        assert y.shape == (bcq_weights.shape[0],)

    def test_figlut_f_runs_prepared_weights_at_its_mu(self, bcq_weights,
                                                       small_activations):
        engine = FIGLUTFloatEngine(activation_format="fp16")
        prepared = MatrixProcessingUnit(MPUConfig(mu=4)).prepare(bcq_weights)
        np.testing.assert_array_equal(engine.gemm(prepared, small_activations),
                                      engine.gemm(bcq_weights, small_activations))
        other_mu = MatrixProcessingUnit(MPUConfig(mu=2)).prepare(bcq_weights)
        with pytest.raises(ValueError, match="µ=2"):
            engine.gemm(other_mu, small_activations)


class TestMixedPrecisionEngines:
    """Functional engines skip zero-scale (padded) planes per row.

    Under the mixed-precision invariant a padded (row, plane) contributes
    exactly ``0 × ±1``, so restricting each plane's work to its active rows
    must leave every output bit unchanged while the op counters drop to
    Σ per-row bits."""

    @pytest.fixture
    def mixed_weights(self, rng):
        from repro.quant.bcq import quantize_bcq_mixed

        w = rng.standard_normal((20, 24)) * 0.1
        row_bits = rng.choice([1, 2, 3, 4], size=20)
        assert len(np.unique(row_bits)) > 1
        return quantize_bcq_mixed(w, row_bits,
                                  BCQConfig(group_size=8, iterations=2))

    @pytest.mark.parametrize("name", ["ifpu", "figlut-f", "figlut-i"])
    def test_skipping_is_bit_exact(self, name, mixed_weights, rng):
        from repro.quant.bcq import BCQTensor

        x = rng.standard_normal((24, 5))
        skipped = make_engine(name, activation_format="fp16").gemm(mixed_weights, x)
        # The same arrays declared uniform walk every padded plane (the
        # pre-skip behaviour): zero scales annihilate the padding, so the
        # two paths must agree bit for bit.
        padded = BCQTensor(
            bitplanes=mixed_weights.bitplanes, scales=mixed_weights.scales,
            offsets=mixed_weights.offsets, group_size=mixed_weights.group_size,
            shape=mixed_weights.shape,
            per_row_bits=np.full(mixed_weights.shape[0], mixed_weights.bits,
                                 dtype=np.int64))
        unskipped = make_engine(name, activation_format="fp16").gemm(padded, x)
        np.testing.assert_array_equal(skipped, unskipped)

    @pytest.mark.parametrize("name", ["ifpu", "figlut-f", "figlut-i"])
    def test_matches_dequantized_reference(self, name, mixed_weights, rng):
        x = rng.standard_normal((24, 5))
        y = make_engine(name, activation_format="fp32").gemm(mixed_weights, x)
        np.testing.assert_allclose(y, mixed_weights.dequantize() @ x,
                                   rtol=1e-4, atol=1e-5)

    def test_op_counts_follow_per_row_bits(self, mixed_weights, rng):
        x = rng.standard_normal((24, 3))
        row_planes = int(np.sum(mixed_weights.per_row_bits))
        m = mixed_weights.shape[0]
        assert row_planes < m * mixed_weights.bits  # genuinely mixed

        engine = FIGLUTIntEngine(activation_format="fp16")
        engine.gemm(mixed_weights, x)
        groups_mu = (24 + engine.mu - 1) // engine.mu
        assert engine.stats.lut_reads == row_planes * groups_mu * 3
        assert engine.stats.fp_multiplications == \
            row_planes * 3 * mixed_weights.n_groups

        ifpu = IFPUEngine(activation_format="fp16")
        ifpu.gemm(mixed_weights, x)
        assert ifpu.stats.int_additions == row_planes * 24 * 3

    def test_uniform_counts_unchanged(self, bcq_weights, small_activations):
        # Σ per-row bits == m · bits for uniform tensors: the pre-skip op
        # counts are reproduced exactly.
        engine = FIGLUTFloatEngine(activation_format="fp16")
        engine.gemm(bcq_weights, small_activations)
        m, n = bcq_weights.shape
        batch = small_activations.shape[1]
        groups_mu = (n + engine.mu - 1) // engine.mu
        assert engine.stats.lut_reads == m * bcq_weights.bits * groups_mu * batch


class TestFIGNAEquivalence:
    """The batched FIGNA pass is pinned bit-exact against the retained
    scalar per-(batch column, scope) reference."""

    @pytest.mark.parametrize("granularity,group_size", [
        ("tensor", 128), ("channel", 128), ("group", 8), ("group", 7)])
    @pytest.mark.parametrize("fmt", ["fp16", "fp32"])
    def test_bit_exact_vs_scalar_reference(self, rng, granularity, group_size, fmt):
        from repro.core.engines import _reference_figna_gemm

        w = rng.standard_normal((24, 30)) * 0.1
        x = rng.standard_normal((30, 5))
        uq = quantize_rtn(w, RTNConfig(bits=4, granularity=granularity,
                                       group_size=group_size))
        engine = FIGNAEngine(activation_format=fmt)
        y = engine.gemm(uq, x)
        x_cast = engine._quantize_activations(np.asarray(x, dtype=np.float64))
        y_ref = _reference_figna_gemm(uq, x_cast, engine.activation_format)
        np.testing.assert_array_equal(y, y_ref)

    def test_work_dtype_threshold(self):
        from repro.core.engines import _figna_work_dtype

        # fp16 mantissas (10 bits) + small centred codes stay exact in
        # float64 BLAS for any realistic width; wide mantissas or zero-point
        # inflated codes must fall back.
        assert _figna_work_dtype(10, 15, 1 << 20) == np.dtype(np.float64)
        assert _figna_work_dtype(52, 15, 4096) == np.dtype(np.int64)
        # fp32 activations with a ~2**20 zero-point-centred code and n=2**17:
        # 24 + 21 + 18 >= 53 → the fast path would lose bit-exactness.
        assert _figna_work_dtype(23, 1 << 20, 1 << 17) == np.dtype(np.int64)

    def test_large_zero_point_stays_bit_exact(self, rng):
        # A narrow all-positive block gives asymmetric RTN a huge zero point
        # (~ -lo/scale), so centred codes are far larger than 2**bits; the
        # work-dtype bound must account for that, not the nominal bit width.
        from repro.core.engines import _reference_figna_gemm

        w = 1.0 + 1e-5 * rng.random((8, 4096))
        x = rng.standard_normal((4096, 3))
        uq = quantize_rtn(w, RTNConfig(bits=4, granularity="channel"))
        assert float(np.abs(uq.zero_points).max()) > 1e4  # the hostile regime
        engine = FIGNAEngine(activation_format="fp32")
        y = engine.gemm(uq, x)
        x_cast = engine._quantize_activations(np.asarray(x, dtype=np.float64))
        y_ref = _reference_figna_gemm(uq, x_cast, engine.activation_format)
        np.testing.assert_array_equal(y, y_ref)

    def test_int64_fallback_matches_float64_path(self, rng, monkeypatch):
        # Both work dtypes compute the same exact integer sums; force the
        # fallback and compare against the BLAS fast path bit-for-bit.
        import repro.core.engines as engines_mod

        w = rng.standard_normal((16, 24)) * 0.1
        x = rng.standard_normal((24, 3))
        uq = quantize_rtn(w, RTNConfig(bits=4, granularity="group", group_size=8))
        y_fast = FIGNAEngine(activation_format="fp16").gemm(uq, x)
        monkeypatch.setattr(engines_mod, "_figna_work_dtype",
                            lambda *a: np.dtype(np.int64))
        y_int = FIGNAEngine(activation_format="fp16").gemm(uq, x)
        np.testing.assert_array_equal(y_fast, y_int)


class TestGEMMAPI:
    def test_prepare_weights_bcq(self, small_weight):
        packed = prepare_weights(small_weight, bits=3, method="bcq")
        assert packed.bits == 3

    def test_prepare_weights_uniform_is_exact_conversion(self, small_weight):
        packed = prepare_weights(small_weight, bits=4, method="uniform")
        rtn = quantize_rtn(small_weight, RTNConfig(bits=4, granularity="channel"))
        np.testing.assert_allclose(packed.dequantize(), rtn.dequantize(), atol=1e-10)

    def test_prepare_weights_bad_method(self, small_weight):
        with pytest.raises(ValueError):
            prepare_weights(small_weight, method="log")

    def test_figlut_gemm_variants_agree_with_reference(self, small_weight, small_activations):
        packed = prepare_weights(small_weight, bits=4, method="bcq")
        reference = reference_gemm(packed, small_activations)
        for variant in ("figlut-f", "figlut-i"):
            y = figlut_gemm(packed, small_activations, variant=variant,
                            activation_format="fp32")
            np.testing.assert_allclose(y, reference, rtol=1e-4, atol=1e-5)

    def test_figlut_gemm_detailed_returns_stats(self, small_weight, small_activations):
        packed = prepare_weights(small_weight, bits=2, method="bcq")
        y, stats = figlut_gemm(packed, small_activations, detailed=True,
                               mpu_config=MPUConfig(pe_rows=2, pe_cols=1, mu=4, k=8))
        np.testing.assert_allclose(y, reference_gemm(packed, small_activations),
                                   rtol=1e-5, atol=1e-6)
        assert stats.cycles > 0

    def test_figlut_gemm_rejects_raw_arrays(self, small_weight, small_activations):
        with pytest.raises(TypeError):
            figlut_gemm(small_weight, small_activations)

    def test_figlut_gemm_bad_variant(self, small_weight, small_activations):
        packed = prepare_weights(small_weight, bits=2)
        with pytest.raises(ValueError):
            figlut_gemm(packed, small_activations, variant="figlut-x")

    def test_figlut_gemm_detailed_rejects_unsupported_variant(self, small_weight,
                                                             small_activations):
        # The MPU models FIGLUT-F only; silently running FIGLUT-F numerics
        # for variant="figlut-i" was a bug.
        packed = prepare_weights(small_weight, bits=2)
        with pytest.raises(ValueError, match="figlut-f"):
            figlut_gemm(packed, small_activations, variant="figlut-i",
                        detailed=True)

    def test_figlut_gemm_detailed_rejects_bad_accumulator(self, small_weight,
                                                          small_activations):
        packed = prepare_weights(small_weight, bits=2)
        with pytest.raises(ValueError, match="accumulator"):
            figlut_gemm(packed, small_activations, detailed=True,
                        accumulator="int8")

    def test_figlut_gemm_detailed_honours_accumulator_dtype(self, small_weight,
                                                            small_activations):
        # fp16 used to silently map to float64 accumulation; now each
        # accumulator name maps to its dtype, so fp16 must match an explicit
        # float16 MPU run (and differ from the old float64 behaviour).
        packed = prepare_weights(small_weight, bits=2, method="bcq")
        cfg = MPUConfig(pe_rows=2, pe_cols=1, mu=4, k=8)
        y16, _ = figlut_gemm(packed, small_activations, detailed=True,
                             accumulator="fp16", mpu_config=cfg)
        mpu = MatrixProcessingUnit(cfg)
        expected16, _ = mpu.gemm(packed, small_activations,
                                 accumulate_dtype=np.float16)
        np.testing.assert_array_equal(y16, expected16)
        y64, _ = figlut_gemm(packed, small_activations, detailed=True,
                             accumulator="fp64", mpu_config=cfg)
        assert not np.array_equal(y16, y64)
