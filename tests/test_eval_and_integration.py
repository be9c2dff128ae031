"""Tests for the evaluation drivers and cross-module integration."""

import numpy as np
import pytest

from repro.eval.accuracy import bcq_perplexity_table, engine_perplexity_table
from repro.eval.efficiency import (
    accelerator_comparison_table,
    area_breakdown_by_format,
    area_efficiency_by_model,
    energy_breakdown_by_precision,
    tops_per_watt_by_model,
)
from repro.eval.headline import PAPER_HEADLINE_RATIOS, headline_efficiency_ratios
from repro.eval.tables import format_mapping, format_table


class TestTableFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.235" in text

    def test_format_mapping(self):
        text = format_mapping("Title", {"x": 1.5, "y": "z"})
        assert text.startswith("Title")
        assert "x: 1.500" in text


class TestEfficiencyDrivers:
    def test_area_breakdown_normalised_to_fpe(self):
        result = area_breakdown_by_format(weight_bits=4, formats=("fp16",))
        fp16 = result["fp16"]
        assert fp16["fpe"]["total"] == pytest.approx(1.0)
        assert fp16["figlut-f"]["arithmetic"] < fp16["fpe"]["arithmetic"]
        assert fp16["figlut-i"]["flip_flop"] < fp16["ifpu"]["flip_flop"]

    def test_area_efficiency_fig13(self):
        result = area_efficiency_by_model(weight_bits=4, models=("opt-125m", "opt-6.7b"))
        for model_result in result.values():
            assert model_result["fpe"] == pytest.approx(1.0)
            assert model_result["figna"] > 1.0
            assert model_result["figlut-i"] > 1.0

    def test_energy_breakdown_fig15_trends(self):
        result = energy_breakdown_by_precision(model_name="opt-1.3b",
                                               precisions=(2, 4, 8))
        # FPE is the normalisation baseline at every precision.
        for precision, engines in result.items():
            assert sum(engines["fpe"].values()) == pytest.approx(1.0)
        # FIGLUT-I total energy decreases as weight precision shrinks.
        total = {p: sum(result[p]["figlut-i"].values()) for p in result}
        assert total["q2"] < total["q4"] <= total["q8"] + 1e-9

    def test_tops_per_watt_fig16_trends(self):
        result = tops_per_watt_by_model(precisions=(2, 4), models=("opt-1.3b", "opt-6.7b"))
        for model_result in result.values():
            # FIGLUT-I always wins, and wins by more at 2 bits.
            assert model_result["q4"]["figlut-i"] == max(model_result["q4"].values())
            assert model_result["q2"]["figlut-i"] > model_result["q4"]["figlut-i"]

    def test_accelerator_table_ordering(self):
        rows = accelerator_comparison_table(model_name="opt-1.3b")
        by_name = {(r["hardware"], r["format"]): r for r in rows}
        figlut = by_name[("FIGLUT", "FP16-Q4")]
        figna = by_name[("FIGNA", "FP16-Q4")]
        ifpu = by_name[("iFPU", "FP16-Q4")]
        assert figlut["tops_per_watt"] > figna["tops_per_watt"] > ifpu["tops_per_watt"]
        # GPUs deliver far more TOPS but far less TOPS/W than the accelerators.
        a100 = by_name[("A100", "FP16-FP16")]
        assert a100["throughput_tops"] > figlut["throughput_tops"]
        assert a100["tops_per_watt"] < figlut["tops_per_watt"]


class TestHeadlineClaims:
    def test_ratios_grow_as_bits_shrink(self):
        ratios = headline_efficiency_ratios(model_name="opt-1.3b")
        assert ratios["q4_vs_figna_q4"] < ratios["q3_vs_figna_q3"] < ratios["q2_vs_figna_q2"]

    def test_ratios_same_order_of_magnitude_as_paper(self):
        ratios = headline_efficiency_ratios(model_name="opt-6.7b")
        for key, paper_value in PAPER_HEADLINE_RATIOS.items():
            assert ratios[key] == pytest.approx(paper_value, rel=0.45), key

    def test_figlut_always_at_least_as_efficient_as_figna(self):
        ratios = headline_efficiency_ratios(model_name="opt-350m")
        assert all(v >= 1.0 for v in ratios.values())


class TestAccuracyDrivers:
    def test_engine_perplexity_table_rows(self, trained_testbed):
        table = engine_perplexity_table(trained_testbed)
        assert set(table) == {"fp16 (unquantized)", "gpu", "figlut-f", "figlut-i"}
        gpu = table["gpu"]
        assert table["figlut-f"] == pytest.approx(gpu, rel=0.02)
        assert table["figlut-i"] == pytest.approx(gpu, rel=0.02)

    def test_bcq_perplexity_table_ordering(self, trained_testbed):
        table = bcq_perplexity_table(trained_testbed, bit_widths=(4, 3))
        assert table["bcq4"] >= table["fp16"] * 0.999
        assert table["bcq3"] >= table["bcq4"] * 0.999


class TestEndToEndIntegration:
    def test_quantize_run_and_cost_one_layer(self, rng):
        """Full pipeline: quantize → functional GEMM → hardware cost on one layer."""
        from repro.core import figlut_gemm, prepare_weights, reference_gemm
        from repro.hw import GEMMWorkloadShape, MemorySystemModel, engine_model
        from repro.hw.performance import evaluate_workload

        weight = rng.standard_normal((64, 96)) * 0.1
        x = rng.standard_normal((96, 4))
        packed = prepare_weights(weight, bits=3, method="bcq")
        y = figlut_gemm(packed, x, activation_format="fp32")
        np.testing.assert_allclose(y, reference_gemm(packed, x), rtol=1e-4, atol=1e-5)

        engine = engine_model("figlut-i", "fp16", 4)
        result = evaluate_workload(engine, [GEMMWorkloadShape(64, 96, 4)], 3,
                                   MemorySystemModel())
        assert result.total_energy_pj > 0
        assert result.tops_per_watt > 0

    @pytest.mark.parametrize("kind", ["bcq", "rtn-uniform", "ragged-group", "mixed"])
    @pytest.mark.parametrize("acc", ["fp16", "fp32", "fp64"])
    @pytest.mark.parametrize("fmt", ["fp16", "bf16", "fp32"])
    def test_mpu_and_engine_paths_agree(self, rng, fmt, acc, kind):
        """FIGLUT-F is the MPU's compiled LUT program on cast activations,
        bit for bit, and agrees with the small-geometry MPU on uncast ones."""
        from repro.core import MPUConfig, MatrixProcessingUnit
        from repro.core.engines import FIGLUTFloatEngine
        from repro.numerics.floats import cast_to_format
        from repro.quant.bcq import (BCQConfig, quantize_bcq, quantize_bcq_mixed,
                                     uniform_to_bcq)
        from repro.quant.rtn import RTNConfig, quantize_rtn

        weight = rng.standard_normal((20, 28)) * 0.1
        x = rng.standard_normal((28, 3))
        if kind == "bcq":
            w = packed = quantize_bcq(weight, BCQConfig(bits=2, iterations=2))
        elif kind == "rtn-uniform":
            w = quantize_rtn(weight, RTNConfig(bits=3, granularity="group",
                                               group_size=8))
            packed = uniform_to_bcq(w)
        elif kind == "ragged-group":
            w = packed = quantize_bcq(weight, BCQConfig(bits=3, group_size=12,
                                                        iterations=2))
        else:
            row_bits = np.resize([1, 2, 3, 4], 20)
            w = packed = quantize_bcq_mixed(weight, row_bits,
                                            BCQConfig(group_size=8, iterations=2))
        acc_dtype = {"fp16": np.float16, "fp32": np.float32, "fp64": np.float64}[acc]

        engine_out = FIGLUTFloatEngine(activation_format=fmt, accumulator=acc).gemm(w, x)
        program_out, _ = MatrixProcessingUnit(MPUConfig(mu=4)).gemm(
            packed, cast_to_format(x, fmt), accumulate_dtype=acc_dtype)
        np.testing.assert_array_equal(engine_out, program_out)

        mpu_out, _ = MatrixProcessingUnit(MPUConfig(pe_rows=2, pe_cols=1, mu=4, k=8)).gemm(
            packed, x, accumulate_dtype=np.float64)
        fp32_out = FIGLUTFloatEngine(activation_format="fp32", accumulator="fp64").gemm(w, x)
        np.testing.assert_allclose(mpu_out, fp32_out, rtol=1e-5, atol=1e-7)

    def test_logits_run_the_served_programs(self, rng, monkeypatch):
        """Perplexity logits come from the programs the server pins: a forward
        through the prepared programs at FP16 activations and FP32
        accumulators reproduces ``qlm.logits`` bit for bit (bench-sized
        model)."""
        from repro.core import MPUConfig, MatrixProcessingUnit
        from repro.core.program import CompiledProgram
        from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
        from repro.models.transformer import TransformerConfig, TransformerLM
        from repro.numerics.floats import cast_to_format
        from repro.serve import InferenceServer

        model = TransformerLM(TransformerConfig(
            vocab_size=512, max_seq_len=256, d_model=128, n_heads=4,
            n_layers=4, d_ff=512, seed=1))
        qlm = QuantizedLM.build(model, QuantizationRecipe("bcq", bits=3,
                                                          group_size=128),
                                engine="figlut-f")
        tokens = rng.integers(0, 512, size=(2, 16))
        prepared = qlm.prepared_weights()
        mpu = MatrixProcessingUnit(MPUConfig())

        def program_gemm(name, flat):
            y, _ = mpu.gemm(prepared[name], cast_to_format(flat, "fp16"),
                            accumulate_dtype=np.float32)
            return y

        want = qlm.model.forward(tokens,
                                 matmul=qlm.matmul_via(program_gemm))[0]

        ran = []
        execute = CompiledProgram.execute

        def recording_execute(program, *args, **kwargs):
            ran.append(program)
            return execute(program, *args, **kwargs)

        monkeypatch.setattr(CompiledProgram, "execute", recording_execute)
        got = qlm.logits(tokens)
        monkeypatch.undo()
        np.testing.assert_array_equal(got, want)

        server = InferenceServer(qlm, num_shards=1)
        try:
            pinned = server.pool._programs
            assert len(ran) == len(pinned) == len(qlm.quantized_weights)
            for name, program in zip(qlm.quantized_weights, ran, strict=True):
                assert program is pinned[name]
        finally:
            server.close()
