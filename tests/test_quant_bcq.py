"""Tests for binary-coding quantization (BCQ)."""

import numpy as np
import pytest

from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed, uniform_to_bcq
from repro.quant.rtn import RTNConfig, quantize_rtn


class TestBCQConfig:
    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            BCQConfig(bits=0)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            BCQConfig(iterations=-1)


class TestQuantizeBCQ:
    def test_bitplanes_are_binary(self, small_weight):
        qt = quantize_bcq(small_weight, BCQConfig(bits=3))
        assert set(np.unique(qt.bitplanes)) <= {-1, 1}

    def test_bitplane_shape(self, small_weight):
        qt = quantize_bcq(small_weight, BCQConfig(bits=3))
        assert qt.bitplanes.shape == (3,) + small_weight.shape

    def test_scales_non_negative(self, small_weight):
        qt = quantize_bcq(small_weight, BCQConfig(bits=3, iterations=4))
        assert np.all(qt.scales >= 0)

    def test_more_bits_reduce_error(self, small_weight):
        errs = []
        for bits in (1, 2, 4):
            qt = quantize_bcq(small_weight, BCQConfig(bits=bits, iterations=3))
            errs.append(np.linalg.norm(qt.dequantize() - small_weight))
        assert errs[0] > errs[1] > errs[2]

    def test_refinement_improves_on_greedy(self, small_weight):
        greedy = quantize_bcq(small_weight, BCQConfig(bits=3, iterations=0))
        refined = quantize_bcq(small_weight, BCQConfig(bits=3, iterations=6))
        assert (np.linalg.norm(refined.dequantize() - small_weight)
                <= np.linalg.norm(greedy.dequantize() - small_weight) + 1e-12)

    def test_one_bit_with_offset_matches_row_statistics(self, rng):
        # With q=1 and an offset, the optimum is mean ± mean absolute deviation.
        weight = rng.standard_normal((1, 512))
        qt = quantize_bcq(weight, BCQConfig(bits=1, use_offset=True, iterations=10))
        deq = qt.dequantize()
        assert len(np.unique(np.round(deq, 10))) <= 2

    def test_offset_improves_asymmetric_distributions(self, rng):
        weight = rng.standard_normal((8, 128)) + 3.0  # strongly shifted
        without = quantize_bcq(weight, BCQConfig(bits=2, use_offset=False, iterations=4))
        with_offset = quantize_bcq(weight, BCQConfig(bits=2, use_offset=True, iterations=4))
        assert (np.linalg.norm(with_offset.dequantize() - weight)
                < np.linalg.norm(without.dequantize() - weight))

    def test_beats_uniform_at_two_bits(self, rng):
        weight = rng.standard_normal((16, 256)) * 0.05
        bcq = quantize_bcq(weight, BCQConfig(bits=2, iterations=6))
        rtn = quantize_rtn(weight, RTNConfig(bits=2, granularity="channel"))
        assert (np.linalg.norm(bcq.dequantize() - weight)
                < np.linalg.norm(rtn.dequantize() - weight))

    def test_group_size_creates_multiple_groups(self, small_weight):
        qt = quantize_bcq(small_weight, BCQConfig(bits=2, group_size=8))
        assert qt.n_groups == small_weight.shape[1] // 8
        assert len(qt.column_groups()) == qt.n_groups

    def test_storage_bits(self, small_weight):
        qt = quantize_bcq(small_weight, BCQConfig(bits=3))
        assert qt.storage_bits() == qt.bitplanes.size + (qt.scales.size + qt.offsets.size) * 16

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            quantize_bcq(np.zeros(7))


class TestUniformToBCQ:
    @pytest.mark.parametrize("granularity", ["tensor", "channel", "group"])
    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_conversion_is_exact(self, small_weight, bits, granularity):
        uniform = quantize_rtn(small_weight, RTNConfig(bits=bits, granularity=granularity,
                                                       group_size=8))
        bcq = uniform_to_bcq(uniform)
        np.testing.assert_allclose(bcq.dequantize(), uniform.dequantize(), atol=1e-10)

    def test_conversion_preserves_bit_count(self, small_weight):
        uniform = quantize_rtn(small_weight, RTNConfig(bits=3))
        assert uniform_to_bcq(uniform).bits == 3

    def test_scales_follow_power_of_two_ladder(self, small_weight):
        uniform = quantize_rtn(small_weight, RTNConfig(bits=4, granularity="channel"))
        bcq = uniform_to_bcq(uniform)
        # alpha_i = s * 2^(q-1-i) / 2, so consecutive planes differ by 2×.
        ratios = bcq.scales[:-1] / np.maximum(bcq.scales[1:], 1e-30)
        np.testing.assert_allclose(ratios, 2.0)


class TestTakeRows:
    def test_slice_matches_full_tensor_rows(self, rng):
        w = rng.standard_normal((30, 26)) * 0.1
        tensor = quantize_bcq_mixed(w, rng.choice([1, 2, 3, 4], size=30),
                                    BCQConfig(group_size=6, iterations=1))
        rows = np.array([0, 3, 7, 11, 29])
        sliced = tensor.take_rows(rows)
        assert sliced.shape == (5, tensor.shape[1])
        np.testing.assert_array_equal(sliced.dequantize(),
                                      tensor.dequantize()[rows])
        np.testing.assert_array_equal(np.asarray(sliced.per_row_bits),
                                      np.asarray(tensor.per_row_bits)[rows])

    def test_slice_accepts_slice_and_mask(self, rng):
        w = rng.standard_normal((32, 32)) * 0.1
        tensor = quantize_bcq(w, BCQConfig(bits=3, group_size=8, iterations=1))
        a = tensor.take_rows(slice(4, 12))
        mask = np.zeros(tensor.shape[0], dtype=bool)
        mask[4:12] = True
        b = tensor.take_rows(mask)
        np.testing.assert_array_equal(a.dequantize(), b.dequantize())
