"""Tests for the KV-cached incremental forward path of the transformer.

Every test runs on :meth:`TransformerLM.init_cache`, a paged cache over a
private page pool.  The contract under test (see the module docstring of
:mod:`repro.models.transformer`):

* a prefill (``step`` over the whole prompt on an empty cache) matches the
  stateless ``forward`` to ``DECODE_ATOL`` (bit for bit at this small
  geometry, not at every one);
* an incremental decode (prefill, then single-token steps) matches
  re-running the full forward at every length to ``DECODE_ATOL``;
* one stacked ``step`` over a ragged right-padded batch reproduces each
  row's solo run at its valid positions to ``DECODE_ATOL``;
* an unpadded ``step`` over equal-length rows gives each row its solo
  prefill bit for bit, at the bench model's geometry too (what served
  scoring relies on);
* the padding-aware mask keeps rows independent and the cache bookkeeping
  (lengths, capacity checks) honest.
"""

import numpy as np
import pytest

from repro.models.transformer import (
    DECODE_ATOL,
    PagedKVCache,
    TransformerConfig,
    TransformerLM,
)

VOCAB = 29


@pytest.fixture
def model():
    return TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=16,
                                           d_model=16, n_heads=2, n_layers=2,
                                           d_ff=32, seed=3))


class TestPrefill:
    def test_prefill_bit_identical_to_forward(self, model, rng):
        # Bit for bit at this geometry; in general the two agree to
        # DECODE_ATOL (see the module docstring of repro.models.transformer).
        tokens = rng.integers(0, VOCAB, size=(3, 10))
        full, _ = model.forward(tokens)
        cache = model.init_cache(3)
        assert isinstance(cache, PagedKVCache)
        logits = model.step(tokens, cache)
        np.testing.assert_array_equal(logits, full)
        np.testing.assert_array_equal(cache.lengths, [10, 10, 10])

    def test_prefill_uses_matmul_hook(self, model, rng):
        tokens = rng.integers(0, VOCAB, size=(1, 6))
        called = []

        def hook(name, x, w):
            called.append(name)
            return x @ w.T

        cache = model.init_cache(1)
        hooked = model.step(tokens, cache, matmul=hook)
        plain, _ = model.forward(tokens)
        np.testing.assert_array_equal(hooked, plain)
        assert "lm_head.weight" in called
        assert any(name.endswith("attn.wk") for name in called)
        assert any(name.endswith("mlp.w1") for name in called)


class TestIncrementalDecode:
    def test_step_matches_full_forward_at_every_length(self, model, rng):
        """Prefill + N single-token steps vs re-running forward per length;
        the documented DECODE_ATOL bound (observed error is ~1e-16)."""
        tokens = rng.integers(0, VOCAB, size=(2, 12))
        cache = model.init_cache(2)
        model.step(tokens[:, :5], cache)
        for t in range(5, 12):
            step_logits = model.step(tokens[:, t:t + 1], cache)
            full, _ = model.forward(tokens[:, :t + 1])
            np.testing.assert_allclose(step_logits[:, 0], full[:, -1],
                                       rtol=0, atol=DECODE_ATOL)
        np.testing.assert_array_equal(cache.lengths, [12, 12])

    def test_multi_token_step_matches_forward(self, model, rng):
        """A chunked prefill (5 + 4 positions) equals the full pass."""
        tokens = rng.integers(0, VOCAB, size=(1, 9))
        cache = model.init_cache(1)
        first = model.step(tokens[:, :5], cache)
        second = model.step(tokens[:, 5:], cache)
        full, _ = model.forward(tokens)
        np.testing.assert_allclose(first, full[:, :5], rtol=0, atol=DECODE_ATOL)
        np.testing.assert_allclose(second, full[:, 5:], rtol=0, atol=DECODE_ATOL)


class TestRaggedBatch:
    def test_ragged_stacked_prefill_matches_solo(self, model, rng):
        lens = [4, 9, 6]
        prompts = [rng.integers(0, VOCAB, size=n) for n in lens]
        stacked = np.zeros((3, max(lens)), dtype=np.int64)
        for i, p in enumerate(prompts):
            stacked[i, : p.size] = p
        cache = model.init_cache(3)
        logits = model.step(stacked, cache, num_valid=np.array(lens))
        np.testing.assert_array_equal(cache.lengths, lens)
        for i, p in enumerate(prompts):
            solo_cache = model.init_cache(1)
            solo = model.step(p[None, :], solo_cache)
            np.testing.assert_allclose(logits[i, : p.size], solo[0],
                                       rtol=0, atol=DECODE_ATOL)

    def test_ragged_decode_rows_are_independent(self, model, rng):
        """Stacked single-token decode over rows of different cached lengths
        equals each row's solo decode."""
        lens = [5, 9]
        prompts = [rng.integers(0, VOCAB, size=n) for n in lens]
        stacked = np.zeros((2, max(lens)), dtype=np.int64)
        for i, p in enumerate(prompts):
            stacked[i, : p.size] = p
        cache = model.init_cache(2)
        model.step(stacked, cache, num_valid=np.array(lens))
        nxt = rng.integers(0, VOCAB, size=(2, 1))
        batched = model.step(nxt, cache)
        for i, p in enumerate(prompts):
            solo_cache = model.init_cache(1)
            model.step(p[None, :], solo_cache)
            solo = model.step(nxt[i:i + 1], solo_cache)
            np.testing.assert_allclose(batched[i], solo[0],
                                       rtol=0, atol=DECODE_ATOL)

    def test_future_rows_do_not_leak_into_short_rows(self, model, rng):
        """Changing another row's tokens never changes this row's logits."""
        a = rng.integers(0, VOCAB, size=(2, 7))
        b = a.copy()
        b[1] = (b[1] + 3) % VOCAB
        cache_a, cache_b = model.init_cache(2), model.init_cache(2)
        la = model.step(a, cache_a)
        lb = model.step(b, cache_b)
        np.testing.assert_array_equal(la[0], lb[0])


class TestEqualLengthGroups:
    def test_group_prefill_equals_solo_prefill_at_bench_geometry(self, rng):
        """The bench model's attention geometry (d_model=128, n_heads=4)
        through the quantized GEMM hook: an unpadded group of equal-length
        prompts gives each row its solo prefill's bytes.  Lengths 30-40
        bracket 32-37, where prefill and ``forward`` differ in the last bit
        on some BLAS builds."""
        from repro.core.mpu import MPUConfig
        from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
        model = TransformerLM(TransformerConfig(
            vocab_size=64, max_seq_len=48, d_model=128, n_heads=4,
            n_layers=1, d_ff=512, seed=1))
        qlm = QuantizedLM.build(model, QuantizationRecipe("bcq", bits=3,
                                                          group_size=128))
        gemm = qlm.prepared_gemm(MPUConfig())
        for length in range(30, 41):
            tokens = rng.integers(0, 64, size=(3, length))
            group, _, _ = qlm.prefill(tokens, num_valid=np.full(3, length),
                                      gemm=gemm)
            for row in range(3):
                solo, _, _ = qlm.prefill(tokens[row], gemm=gemm)
                assert group[row].tobytes() == solo[0].tobytes(), length


class TestCacheBookkeeping:
    def test_capacity_overflow_raises(self, model, rng):
        cache = model.init_cache(1, capacity=6)
        model.step(rng.integers(0, VOCAB, size=(1, 4)), cache)
        with pytest.raises(ValueError, match="overflow"):
            model.step(rng.integers(0, VOCAB, size=(1, 3)), cache)

    def test_capacity_bounded_by_max_seq_len(self, model):
        with pytest.raises(ValueError):
            model.init_cache(1, capacity=model.config.max_seq_len + 1)
        with pytest.raises(ValueError):
            model.init_cache(0)

    def test_step_validates_shapes(self, model, rng):
        cache = model.init_cache(2)
        with pytest.raises(ValueError):
            model.step(rng.integers(0, VOCAB, size=(3, 4)), cache)
        with pytest.raises(ValueError):
            model.step(rng.integers(0, VOCAB, size=4), cache)
        with pytest.raises(ValueError):
            model.step(rng.integers(0, VOCAB, size=(2, 4)), cache,
                       num_valid=np.array([0, 4]))
        with pytest.raises(ValueError):
            model.step(rng.integers(0, VOCAB, size=(2, 4)), cache,
                       num_valid=np.array([5, 4]))

    def test_overflow_is_a_dedicated_error_naming_rows(self, model, rng):
        from repro.models import CacheOverflowError
        cache = model.init_cache(2, capacity=6)
        model.step(rng.integers(0, VOCAB, size=(2, 5)), cache,
                   num_valid=np.array([2, 5]))
        with pytest.raises(CacheOverflowError) as exc:
            model.step(rng.integers(0, VOCAB, size=(2, 2)), cache)
        assert exc.value.rows == (1,) and exc.value.capacity == 6
        assert isinstance(exc.value, ValueError)  # old except clauses still work

    def test_mask_hoist_keeps_forward_causal(self, model, rng):
        """The hoisted per-forward causal mask preserves causality."""
        tokens = rng.integers(0, VOCAB, size=(1, 8))
        logits_a, _ = model.forward(tokens)
        perturbed = tokens.copy()
        perturbed[0, -1] = (perturbed[0, -1] + 1) % VOCAB
        logits_b, _ = model.forward(perturbed)
        np.testing.assert_allclose(logits_a[0, :-1], logits_b[0, :-1],
                                   atol=1e-12)
