"""Tests for the NumPy transformer LM: forward, backward, and training."""

import numpy as np
import pytest

from repro.models.training import AdamOptimizer, TrainingConfig, train_language_model
from repro.models.transformer import (
    TransformerConfig,
    TransformerLM,
    _layer_norm_forward,
    cross_entropy,
    softmax,
)


@pytest.fixture
def tiny_model():
    config = TransformerConfig(vocab_size=13, max_seq_len=8, d_model=8, n_heads=2,
                               n_layers=2, d_ff=16, seed=0)
    return TransformerLM(config)


@pytest.fixture
def tiny_batch(rng):
    return rng.integers(0, 13, size=(2, 6)), rng.integers(0, 13, size=(2, 6))


class TestBasics:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(rng.standard_normal((4, 7)))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)

    def test_softmax_stable_for_large_inputs(self):
        probs = softmax(np.array([1e4, 0.0]))
        assert np.isfinite(probs).all()

    def test_cross_entropy_of_uniform_logits(self):
        logits = np.zeros((1, 1, 10))
        loss, grad = cross_entropy(logits, np.array([[3]]))
        assert loss == pytest.approx(np.log(10))
        assert grad.shape == logits.shape

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_parameter_count_positive(self, tiny_model):
        assert tiny_model.num_parameters() > 0

    def test_weight_matrix_names(self, tiny_model):
        names = tiny_model.weight_matrix_names()
        assert len(names) == 2 * 6 + 1
        assert all(name in tiny_model.params for name in names)


class TestForward:
    def test_logit_shape(self, tiny_model, tiny_batch):
        tokens, _ = tiny_batch
        logits, _ = tiny_model.forward(tokens)
        assert logits.shape == (2, 6, 13)

    def test_causality(self, tiny_model, rng):
        # Changing a future token must not change earlier logits.
        tokens = rng.integers(0, 13, size=(1, 6))
        logits_a, _ = tiny_model.forward(tokens)
        perturbed = tokens.copy()
        perturbed[0, -1] = (perturbed[0, -1] + 1) % 13
        logits_b, _ = tiny_model.forward(perturbed)
        np.testing.assert_allclose(logits_a[0, :-1], logits_b[0, :-1], atol=1e-12)

    def test_too_long_sequence_raises(self, tiny_model, rng):
        with pytest.raises(ValueError):
            tiny_model.forward(rng.integers(0, 13, size=(1, 20)))

    def test_matmul_hook_is_used(self, tiny_model, tiny_batch):
        tokens, _ = tiny_batch
        called = []

        def hook(name, x, w):
            called.append(name)
            return x @ w.T

        logits_hooked, _ = tiny_model.forward(tokens, matmul=hook)
        logits_plain, _ = tiny_model.forward(tokens)
        np.testing.assert_allclose(logits_hooked, logits_plain)
        assert "lm_head.weight" in called
        assert any(name.endswith("attn.wq") for name in called)
        assert any(name.endswith("mlp.w2") for name in called)


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(1, 1, 128), (6, 1, 128), (3, 37, 128),
                                       (8, 128, 128)])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_same_bytes_as_mean_var_formula(self, rng, shape):
        # The layer norm computes np.mean / np.var's ufuncs itself, once;
        # output and backward cache must be those of the formula, byte for
        # byte, non-finite rows included.
        def formula(x, gamma, beta, eps=1e-5):
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + eps)
            x_hat = (x - mean) * inv_std
            return gamma * x_hat + beta, (x_hat, inv_std, gamma)

        for trial in range(10):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
            if trial % 2:
                x.flat[rng.choice(x.size, 3, replace=False)] = [
                    np.inf, -np.inf, np.nan]
            gamma, beta = rng.standard_normal((2, shape[-1]))
            got, got_cache = _layer_norm_forward(x, gamma, beta)
            want, want_cache = formula(x, gamma, beta)
            assert got.tobytes() == want.tobytes()
            assert len(got_cache) == len(want_cache)
            for g, w in zip(got_cache, want_cache, strict=True):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestGradients:
    def test_gradients_match_numerical(self, tiny_model, tiny_batch):
        tokens, targets = tiny_batch
        _, grads = tiny_model.loss(tokens, targets)
        rng = np.random.default_rng(0)
        eps = 1e-5
        for name in ("layer0.attn.wq", "layer1.attn.wo", "layer0.mlp.w1", "layer1.mlp.b2",
                     "layer0.ln1.gamma", "ln_f.beta", "tok_emb", "pos_emb", "lm_head.weight"):
            param = tiny_model.params[name]
            idx = tuple(rng.integers(0, s) for s in param.shape)
            original = param[idx]
            param[idx] = original + eps
            loss_plus = tiny_model.evaluate_loss(tokens, targets)
            param[idx] = original - eps
            loss_minus = tiny_model.evaluate_loss(tokens, targets)
            param[idx] = original
            numerical = (loss_plus - loss_minus) / (2 * eps)
            assert grads[name][idx] == pytest.approx(numerical, abs=1e-6, rel=1e-4), name

    def test_gradients_cover_all_parameters(self, tiny_model, tiny_batch):
        tokens, targets = tiny_batch
        _, grads = tiny_model.loss(tokens, targets)
        assert set(grads) == set(tiny_model.params)


class TestTraining:
    def test_adam_moves_parameters(self, tiny_model, tiny_batch):
        tokens, targets = tiny_batch
        _, grads = tiny_model.loss(tokens, targets)
        before = tiny_model.params["lm_head.weight"].copy()
        AdamOptimizer(learning_rate=1e-2).update(tiny_model.params, grads)
        assert not np.allclose(before, tiny_model.params["lm_head.weight"])

    def test_adam_rejects_unknown_parameter(self, tiny_model):
        with pytest.raises(KeyError):
            AdamOptimizer().update(tiny_model.params, {"bogus": np.zeros(3)})

    def test_training_reduces_loss(self, rng):
        config = TransformerConfig(vocab_size=32, max_seq_len=16, d_model=16, n_heads=2,
                                   n_layers=1, d_ff=32, seed=1)
        model = TransformerLM(config)
        # A highly predictable token stream (counting pattern).
        stream = np.tile(np.arange(32), 40)
        history = train_language_model(model, stream,
                                       TrainingConfig(epochs=3, batch_size=8, seq_len=16,
                                                      learning_rate=5e-3))
        assert history["train_loss"][-1] < history["train_loss"][0] * 0.7

    def test_validation_loss_reported(self, rng):
        config = TransformerConfig(vocab_size=16, max_seq_len=8, d_model=8, n_heads=2,
                                   n_layers=1, d_ff=16, seed=1)
        model = TransformerLM(config)
        stream = np.tile(np.arange(16), 30)
        history = train_language_model(model, stream,
                                       TrainingConfig(epochs=1, batch_size=4, seq_len=8),
                                       valid_tokens=stream[:64])
        assert len(history["valid_loss"]) == 1
