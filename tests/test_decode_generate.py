"""Decode-equivalence tests for ``QuantizedLM.prefill/decode_step/generate``.

Acceptance pins for the incremental-decoding refactor:

* ``generate`` (one prefill + N single-token decode steps) produces exactly
  the token sequence of naive greedy decoding that re-runs the full forward
  at every length — on uniform, ragged-length, and mixed-precision
  (``per_row_bits``) models;
* the accumulated :class:`~repro.core.mpu.MPURunStats` are plan-exact:
  the result's total is the analytic counters of the prefill at flat
  batch = prompt positions plus one flat-batch-1 decode step per further
  token — i.e. decode cost scales per emitted token, with no O(T²)
  re-prefill term.
"""

import numpy as np
import pytest

from repro.core.mpu import MPUConfig, MPURunStats
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import TransformerConfig, TransformerLM

MPU_CFG = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)
VOCAB = 41


def _build_qlm(seed=7, bits_per_layer=None):
    model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=24,
                                            d_model=16, n_heads=2, n_layers=2,
                                            d_ff=32, seed=seed))
    recipe = QuantizationRecipe(method="bcq", bits=2, group_size=8,
                                bits_per_layer=bits_per_layer)
    return QuantizedLM.build(model, recipe, engine="figlut-f")


@pytest.fixture(scope="module")
def qlm():
    return _build_qlm()


def _naive_greedy(qlm, prompt, steps, mpu_config=MPU_CFG):
    """Greedy decoding by re-running the full forward per token, through the
    same prepared-MPU GEMM dispatch the KV-cached path uses."""
    hook = qlm.matmul_via(qlm.prepared_gemm(mpu_config))
    seq = np.asarray(prompt, dtype=np.int64)
    out = []
    for _ in range(steps):
        logits, _ = qlm.model.forward(seq[None], matmul=hook)
        token = int(np.argmax(logits[0, -1]))
        out.append(token)
        seq = np.append(seq, token)
    return np.asarray(out, dtype=np.int64)


class TestGenerateEquivalence:
    def test_uniform_model_matches_naive_reprefill(self, qlm, rng):
        prompt = rng.integers(0, VOCAB, size=8)
        result = qlm.generate(prompt, 12, mpu_config=MPU_CFG)
        np.testing.assert_array_equal(result.tokens,
                                      _naive_greedy(qlm, prompt, 12))
        assert result.finish_reason == "length"

    def test_ragged_prompt_lengths_match_naive(self, qlm, rng):
        for length in (3, 7, 11):
            prompt = rng.integers(0, VOCAB, size=length)
            result = qlm.generate(prompt, 6, mpu_config=MPU_CFG)
            np.testing.assert_array_equal(result.tokens,
                                          _naive_greedy(qlm, prompt, 6))

    def test_mixed_precision_model_matches_naive(self, rng):
        names = TransformerLM(TransformerConfig(
            vocab_size=VOCAB, max_seq_len=24, d_model=16, n_heads=2,
            n_layers=2, d_ff=32, seed=11)).weight_matrix_names()
        qlm = _build_qlm(seed=11, bits_per_layer={
            name: (3 if i % 2 else 2) for i, name in enumerate(names)})
        prompt = rng.integers(0, VOCAB, size=6)
        result = qlm.generate(prompt, 8, mpu_config=MPU_CFG)
        np.testing.assert_array_equal(result.tokens,
                                      _naive_greedy(qlm, prompt, 8))

    def test_eos_stops_generation(self, qlm, rng):
        prompt = rng.integers(0, VOCAB, size=8)
        free = qlm.generate(prompt, 10, mpu_config=MPU_CFG)
        eos = int(free.tokens[3])
        stopped = qlm.generate(prompt, 10, eos_token=eos, mpu_config=MPU_CFG)
        assert stopped.finish_reason == "eos"
        np.testing.assert_array_equal(stopped.tokens, free.tokens[:4])

    def test_generate_validates_inputs(self, qlm, rng):
        with pytest.raises(ValueError):
            qlm.generate(np.zeros((2, 3), dtype=np.int64), 4)
        with pytest.raises(ValueError):
            qlm.generate(np.array([], dtype=np.int64), 4)
        with pytest.raises(ValueError):
            qlm.generate(rng.integers(0, VOCAB, size=4), 0)
        with pytest.raises(ValueError):  # 8 + 18 - 1 > max_seq_len 24
            qlm.generate(rng.integers(0, VOCAB, size=8), 18)


class TestDecodeStatsPlanExact:
    def test_prefill_and_step_stats_match_analytic(self, qlm, rng):
        """An EOS-stopped generation is charged the prompt-batch prefill
        plus one batch-1 pass per further token it actually emitted."""
        prompt = rng.integers(0, VOCAB, size=9)
        free = qlm.generate(prompt, 7, mpu_config=MPU_CFG)
        stopped = qlm.generate(prompt, 7, eos_token=int(free.tokens[4]),
                               mpu_config=MPU_CFG)
        n = len(stopped.tokens)
        assert stopped.finish_reason == "eos" and n <= 5
        expected = qlm.model_mpu_stats(batch=prompt.size, mpu_config=MPU_CFG)
        per_step = qlm.model_mpu_stats(batch=1, mpu_config=MPU_CFG)
        for _ in range(n - 1):
            expected = expected.merge(per_step)
        assert stopped.mpu_stats == expected

    def test_total_is_sum_of_prefill_and_steps(self, qlm, rng):
        """``generate`` equals composing the split entry points by hand:
        same tokens, and its total is the sum of their stats."""
        prompt = rng.integers(0, VOCAB, size=5)
        result = qlm.generate(prompt, 5, mpu_config=MPU_CFG)
        logits, cache, expected = qlm.prefill(prompt, mpu_config=MPU_CFG)
        tokens = [int(np.argmax(logits[0, -1]))]
        for _ in range(4):
            logits, stats = qlm.decode_step(np.array([[tokens[-1]]]), cache,
                                            mpu_config=MPU_CFG)
            expected = expected.merge(stats)
            tokens.append(int(np.argmax(logits[0, -1])))
        np.testing.assert_array_equal(result.tokens, tokens)
        assert result.mpu_stats == expected

    def test_decode_cost_scales_per_step_not_per_length(self, qlm, rng):
        """The O(T) pin: generating N tokens costs prefill(T) + (N-1) single
        column passes — independent of the growing cached length — whereas a
        re-prefill decode would pay sum over lengths T..T+N-1."""
        prompt = rng.integers(0, VOCAB, size=10)
        result = qlm.generate(prompt, 8, mpu_config=MPU_CFG)
        per_step = qlm.model_mpu_stats(batch=1, mpu_config=MPU_CFG)
        expected_total = qlm.model_mpu_stats(batch=prompt.size,
                                             mpu_config=MPU_CFG)
        for _ in range(7):
            expected_total = expected_total.merge(per_step)
        assert result.mpu_stats == expected_total
        reprefill_cycles = sum(
            qlm.model_mpu_stats(batch=prompt.size + i,
                                mpu_config=MPU_CFG).cycles
            for i in range(8))
        assert result.mpu_stats.cycles < reprefill_cycles

    def test_prefill_decode_step_api(self, qlm, rng):
        """The split entry points agree with generate's composition."""
        prompt = rng.integers(0, VOCAB, size=6)
        logits, cache, stats = qlm.prefill(prompt, mpu_config=MPU_CFG)
        assert logits.shape == (1, 6, VOCAB)
        assert stats == qlm.model_mpu_stats(batch=6, mpu_config=MPU_CFG)
        np.testing.assert_array_equal(cache.lengths, [6])
        token = np.array([[int(np.argmax(logits[0, -1]))]])
        step_logits, step_stats = qlm.decode_step(token, cache,
                                                  mpu_config=MPU_CFG)
        assert step_logits.shape == (1, 1, VOCAB)
        assert step_stats == qlm.model_mpu_stats(batch=1, mpu_config=MPU_CFG)
        np.testing.assert_array_equal(cache.lengths, [7])


class TestPreparedStateIsShared:
    def test_prepared_weights_memoised_per_config(self, qlm):
        first = qlm.prepared_weights(MPU_CFG)
        assert qlm.prepared_weights(MPU_CFG) is first
        assert set(first) == set(qlm.quantized_weights)
        other = qlm.prepared_weights(MPUConfig(pe_rows=4, pe_cols=2,
                                               mu=4, k=2))
        assert other is not first

    def test_layer_plan_memoised_and_reused_by_prepare(self, qlm):
        name = next(iter(qlm.quantized_weights))
        plan = qlm.layer_plan(name, MPU_CFG)
        assert qlm.layer_plan(name, MPU_CFG) is plan
        assert qlm.prepared_weights(MPU_CFG)[name].plan is plan

    def test_layer_mpu_stats_unchanged_by_memoisation(self, qlm):
        from repro.core.mpu import MatrixProcessingUnit

        name = next(iter(qlm.quantized_weights))
        fresh = MatrixProcessingUnit(MPU_CFG).plan_stats(
            qlm.bcq_views()[name], batch=5)
        assert qlm.layer_mpu_stats(name, 5, MPU_CFG) == fresh


class TestModelMpuStats:
    @pytest.mark.parametrize("mixed", [False, True])
    def test_equals_the_sum_of_layer_stats(self, mixed):
        # The memoised affine totals against the independent per-layer
        # plan counters, at two geometries of one model, at every batch and
        # again from the memo.
        bits = None
        if mixed:
            names = _build_qlm().model.weight_matrix_names()
            bits = {name: 1 + i % 3 for i, name in enumerate(names)}
        qlm = _build_qlm(bits_per_layer=bits)
        for _ in range(2):
            for cfg in (MPU_CFG, MPUConfig()):
                for batch in (0, 1, 5, 128):
                    want = MPURunStats()
                    for name in qlm.quantized_weights:
                        want = want.merge(
                            qlm.layer_mpu_stats(name, batch, cfg))
                    assert qlm.model_mpu_stats(batch, cfg) == want
        with pytest.raises(ValueError, match="batch"):
            qlm.model_mpu_stats(-1)
