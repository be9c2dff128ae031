"""Tests for LUT construction and the FFLUT / hFFLUT structures."""

import numpy as np
import pytest

from repro.core.lut import (
    FFLUT,
    HalfFFLUT,
    build_lut_tables,
    build_lut_values,
    key_to_pattern,
    lut_table_rows,
    pattern_to_key,
)


class TestKeys:
    def test_pattern_to_key_table2_convention(self):
        # {-1,-1,-1} -> 0, {+1,+1,+1} -> 7 (Table II).
        assert pattern_to_key([-1, -1, -1]) == 0
        assert pattern_to_key([+1, +1, +1]) == 7
        assert pattern_to_key([-1, +1, -1]) == 2
        assert pattern_to_key([+1, -1, +1]) == 5

    def test_key_to_pattern_roundtrip(self):
        for key in range(16):
            assert pattern_to_key(key_to_pattern(key, 4)) == key

    def test_pattern_rejects_non_binary(self):
        with pytest.raises(ValueError):
            pattern_to_key([0, 1, -1])

    def test_key_out_of_range(self):
        with pytest.raises(ValueError):
            key_to_pattern(8, 3)


class TestBuildLUTValues:
    def test_matches_table2_for_mu3(self):
        x = np.array([1.0, 10.0, 100.0])
        values = build_lut_values(x)
        expected = [-111.0, -11 - 100 + 200, -1 - 10 + 10 * 2 - 100, 0, 0, 0, 0, 111.0]
        # Spot check the exact Table II rows instead of the sloppy arithmetic above.
        assert values[0] == -x.sum()                      # {-1,-1,-1}
        assert values[1] == -x[0] - x[1] + x[2]           # {-1,-1,+1}
        assert values[2] == -x[0] + x[1] - x[2]           # {-1,+1,-1}
        assert values[5] == +x[0] - x[1] + x[2]           # {+1,-1,+1}
        assert values[7] == x.sum()                       # {+1,+1,+1}
        assert len(values) == 8
        del expected

    def test_matches_explicit_inner_products(self, rng):
        x = rng.standard_normal(5)
        values = build_lut_values(x)
        for key in range(32):
            pattern = key_to_pattern(key, 5)
            assert values[key] == pytest.approx(float(pattern @ x))

    def test_vertical_symmetry(self, rng):
        x = rng.standard_normal(4)
        values = build_lut_values(x)
        np.testing.assert_allclose(values, -values[::-1])

    def test_integer_dtype(self):
        values = build_lut_values(np.array([1, 2, 3]), dtype=np.int64)
        assert values.dtype == np.int64
        assert values[7] == 6

    def test_rejects_empty_and_huge(self):
        with pytest.raises(ValueError):
            build_lut_values(np.array([]))
        with pytest.raises(ValueError):
            build_lut_values(np.zeros(17))

    def test_lut_table_rows_structure(self):
        rows = lut_table_rows(np.array([1.0, 2.0, 3.0]))
        assert len(rows) == 8
        patterns, keys, values = zip(*rows, strict=True)
        assert list(keys) == list(range(8))
        assert patterns[0] == (-1, -1, -1)
        assert values[0] == -6.0


class TestBuildLUTTables:
    def test_sign_matrix_cached_read_only(self, rng):
        from repro.core.lut import _sign_matrix
        signs = _sign_matrix(4, False)
        assert signs is _sign_matrix(4, False)
        assert signs is not _sign_matrix(4, True)
        assert not signs.flags.writeable
        assert signs.shape == (16, 4) and signs.dtype == np.float64
        assert _sign_matrix(4, True).dtype == np.int64
        # Repeated builds leave the shared matrix untouched.
        build_lut_tables(rng.standard_normal((3, 4)))
        np.testing.assert_array_equal(
            signs, [key_to_pattern(k, 4) for k in range(16)])

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64,
                                       np.int64])
    def test_key_axis_layout_is_bitwise_transpose(self, rng, dtype):
        # Entries along any axis are the same values as along the last.
        groups = rng.standard_normal((5, 3, 4)) * 10
        if dtype is np.int64:
            groups = np.round(groups)
        last = build_lut_tables(groups, dtype=dtype)            # (5, 3, 16)
        middle = build_lut_tables(groups.transpose(0, 2, 1), dtype=dtype,
                                  axis=1)                       # (5, 16, 3)
        assert middle.shape == (5, 16, 3) and middle.dtype == dtype
        np.testing.assert_array_equal(middle, last.transpose(0, 2, 1))


class TestFFLUT:
    def test_read_matches_values(self, rng):
        x = rng.standard_normal(4)
        lut = FFLUT.from_activations(x)
        values = build_lut_values(x)
        for key in range(16):
            assert lut.read(key) == values[key]

    def test_read_many_counts_reads(self, rng):
        lut = FFLUT.from_activations(rng.standard_normal(3))
        lut.read_many(np.array([0, 1, 2, 7, 7]))
        assert lut.read_count == 5

    def test_read_out_of_range(self, rng):
        lut = FFLUT.from_activations(rng.standard_normal(3))
        with pytest.raises(KeyError):
            lut.read(8)

    def test_storage_entries(self, rng):
        assert FFLUT.from_activations(rng.standard_normal(4)).storage_entries() == 16


class TestHalfFFLUT:
    @pytest.mark.parametrize("mu", [1, 2, 3, 4, 6])
    def test_equivalent_to_full_lut(self, rng, mu):
        x = rng.standard_normal(mu)
        full = FFLUT.from_activations(x)
        half = HalfFFLUT.from_activations(x)
        for key in range(1 << mu):
            assert half.read(key) == pytest.approx(full.read(key))

    def test_storage_is_half(self, rng):
        x = rng.standard_normal(4)
        assert HalfFFLUT.from_activations(x).storage_entries() == 8

    def test_read_many_matches_scalar_reads(self, rng):
        x = rng.standard_normal(4)
        half = HalfFFLUT.from_activations(x)
        keys = rng.integers(0, 16, size=40)
        vectorised = half.read_many(keys)
        scalar = np.array([HalfFFLUT.from_activations(x).read(int(k)) for k in keys])
        np.testing.assert_allclose(vectorised, scalar)

    def test_out_of_range_key(self, rng):
        half = HalfFFLUT.from_activations(rng.standard_normal(3))
        with pytest.raises(KeyError):
            half.read(8)
