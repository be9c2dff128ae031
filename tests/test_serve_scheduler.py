"""Tests for the one request queue: scheduler and server, generation and
scoring (prefill-only) requests.

The acceptance pin: for every request in a concurrent mixed-length batch,
``InferenceServer.submit_generate`` produces the same token sequence as a
solo greedy ``generate`` — and the decode cost reported from the plan-exact
``MPURunStats`` scales per iteration (flat batch = #active), never paying a
re-prefill for tokens already cached.
"""

import asyncio

import numpy as np
import pytest

from repro.core.mpu import MPUConfig, MPURunStats
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import (
    CacheOverflowError,
    TransformerConfig,
    TransformerLM,
)
from repro.serve import BatchPolicy, CacheConfig, DecodeScheduler, InferenceServer
from repro.serve import workers

MPU_CFG = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)
VOCAB = 41


def _build_qlm(seed=7):
    model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=24,
                                            d_model=16, n_heads=2, n_layers=2,
                                            d_ff=32, seed=seed))
    recipe = QuantizationRecipe(method="bcq", bits=2, group_size=8)
    return QuantizedLM.build(model, recipe, engine="figlut-f")


@pytest.fixture(scope="module")
def qlm():
    return _build_qlm()


def _server(qlm, **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("mpu_config", MPU_CFG)
    kwargs.setdefault("policy", BatchPolicy(max_batch=8, max_wait_us=20_000))
    return InferenceServer(qlm, **kwargs)


class TestDecodeScheduler:
    """The synchronous scheduler core, driven inline."""

    def test_stacked_decode_matches_solo_generate(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=4, mpu_config=MPU_CFG)
        prompts = [rng.integers(0, VOCAB, size=int(n)) for n in (4, 8, 6)]
        seqs = [sched.submit(p, 7) for p in prompts]
        sched.run_until_idle()
        for seq, prompt in zip(seqs, prompts, strict=True):
            solo = qlm.generate(prompt, 7, mpu_config=MPU_CFG)
            np.testing.assert_array_equal(seq.tokens, solo.tokens)
            assert seq.finish_reason == "length"

    def test_max_active_caps_the_pool(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG)
        prompts = [rng.integers(0, VOCAB, size=5) for _ in range(5)]
        seqs = [sched.submit(p, 4) for p in prompts]
        while sched.has_work:
            sched.step()
            assert sched.num_active <= 2
        assert all(s.done for s in seqs)
        assert sched.metrics.admissions >= 3  # 5 requests through a pool of 2
        for seq, prompt in zip(seqs, prompts, strict=True):
            np.testing.assert_array_equal(
                seq.tokens, qlm.generate(prompt, 4, mpu_config=MPU_CFG).tokens)

    def test_admission_between_iterations(self, qlm, rng):
        """A request submitted mid-decode joins the pool at the next step and
        still reproduces its solo tokens."""
        sched = DecodeScheduler(qlm, max_active=4, mpu_config=MPU_CFG)
        first = sched.submit(rng.integers(0, VOCAB, size=6), 8)
        sched.step()   # prefill + first decode iteration, first token(s) out
        assert not first.done
        late_prompt = rng.integers(0, VOCAB, size=4)
        late = sched.submit(late_prompt, 5)
        sched.run_until_idle()
        assert first.done and late.done
        np.testing.assert_array_equal(
            late.tokens, qlm.generate(late_prompt, 5, mpu_config=MPU_CFG).tokens)

    def test_eos_leaves_the_pool_early(self, qlm, rng):
        prompt = rng.integers(0, VOCAB, size=8)
        free = qlm.generate(prompt, 10, mpu_config=MPU_CFG)
        eos = int(free.tokens[2])
        sched = DecodeScheduler(qlm, max_active=4, mpu_config=MPU_CFG)
        seq = sched.submit(prompt, 10, eos_token=eos)
        other = sched.submit(rng.integers(0, VOCAB, size=5), 8)
        sched.run_until_idle()
        assert seq.finish_reason == "eos"
        np.testing.assert_array_equal(seq.tokens, free.tokens[:3])
        assert other.finish_reason == "length"
        assert len(other.tokens) == 8

    def test_plan_exact_iteration_scaling(self, qlm, rng):
        """Aggregate MPURunStats == one unpadded stacked prefill + (N-1)
        stacked single-column decode passes: per-step cost follows the
        active count, not the cached lengths (no O(T²) re-prefill)."""
        count, steps, plen = 3, 6, 7
        sched = DecodeScheduler(qlm, max_active=count, mpu_config=MPU_CFG)
        for _ in range(count):
            sched.submit(rng.integers(0, VOCAB, size=plen), steps)
        sched.run_until_idle()
        expected = qlm.model_mpu_stats(batch=count * plen, mpu_config=MPU_CFG)
        per_iter = qlm.model_mpu_stats(batch=count, mpu_config=MPU_CFG)
        for _ in range(steps - 1):
            expected = expected.merge(per_iter)
        assert sched.metrics.mpu_stats == expected
        assert sched.metrics.iterations == steps - 1
        assert sched.metrics.decode_tokens == count * (steps - 1)
        assert sched.metrics.generated_tokens == count * steps
        assert sched.metrics.prefill_tokens == count * plen

    def test_cancel_frees_the_pool_slot(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG)
        victim = sched.submit(rng.integers(0, VOCAB, size=5), 10)
        keeper_prompt = rng.integers(0, VOCAB, size=6)
        keeper = sched.submit(keeper_prompt, 6)
        sched.step()
        assert sched.num_active == 2
        sched.cancel(victim)
        sched.cancel(victim)  # idempotent
        sched.step()
        assert sched.num_active == 1  # compacted out at the boundary
        sched.run_until_idle()
        assert victim.finish_reason == "cancelled"
        assert len(victim.tokens) < 10
        np.testing.assert_array_equal(
            keeper.tokens, qlm.generate(keeper_prompt, 6,
                                        mpu_config=MPU_CFG).tokens)

    def test_cancel_waiting_request_never_runs(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=1, mpu_config=MPU_CFG)
        sched.submit(rng.integers(0, VOCAB, size=4), 3)
        queued = sched.submit(rng.integers(0, VOCAB, size=4), 3)
        sched.cancel(queued)
        sched.run_until_idle()
        assert queued.finish_reason == "cancelled"
        assert len(queued.tokens) == 0

    def test_abort_fails_all_requests(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=1, mpu_config=MPU_CFG)
        running = sched.submit(rng.integers(0, VOCAB, size=4), 8)
        waiting = sched.submit(rng.integers(0, VOCAB, size=4), 8)
        sched.step()
        boom = RuntimeError("worker died")
        failed = sched.abort(boom)
        assert {s.request_id for s in failed} == {running.request_id,
                                                 waiting.request_id}
        assert running.finish_reason == "error" and running.error is boom
        assert not sched.has_work  # usable again after the abort
        np.testing.assert_array_equal(
            sched.submit(rng.integers(0, VOCAB, size=4), 2).prompt.shape, (4,))

    def test_abort_fails_every_request_when_release_raises(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=1, mpu_config=MPU_CFG)
        running = sched.submit(rng.integers(0, VOCAB, size=4), 8)
        waiting = sched.submit(rng.integers(0, VOCAB, size=4), 8)
        sched.step()
        release = sched._cache.release

        def failing_release():
            release()
            raise ValueError("page released more than acquired")

        sched._cache.release = failing_release
        boom = RuntimeError("worker died")
        with pytest.raises(ValueError, match="released more"):
            sched.abort(boom)
        assert running.error is boom and waiting.error is boom
        assert not sched.has_work

    def test_raising_hook_fails_only_its_request(self, qlm, rng):
        """A client hook that raises settles its own request as an error;
        its neighbours keep decoding in step with their caches."""
        sched = DecodeScheduler(qlm, max_active=3, mpu_config=MPU_CFG)
        prompts = [rng.integers(0, VOCAB, size=int(n)) for n in (5, 7, 6)]
        boom = RuntimeError("client hook bug")
        calls = []

        def bad_hook(seq, token, done):
            calls.append(token)
            if len(calls) == 2:
                raise boom

        seqs = [sched.submit(p, 6, on_token=bad_hook if i == 1 else None)
                for i, p in enumerate(prompts)]
        sched.run_until_idle()
        bad = seqs[1]
        assert bad.finish_reason == "error" and bad.error is boom
        assert len(calls) == 2 and len(bad.tokens) == 2  # hook dropped
        for i in (0, 2):
            np.testing.assert_array_equal(
                seqs[i].tokens,
                qlm.generate(prompts[i], 6, mpu_config=MPU_CFG).tokens)
        sched.audit_cache()
        assert sched.pool.num_free == sched.pool.num_pages

    def test_abort_notifies_every_request_despite_a_raising_hook(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG)
        seen = []

        def raising(seq, token, done):
            raise RuntimeError("client hook bug")

        first = sched.submit(rng.integers(0, VOCAB, size=4), 4,
                             on_token=raising)
        second = sched.submit(rng.integers(0, VOCAB, size=4), 4,
                              on_token=lambda *call: seen.append(call))
        boom = RuntimeError("worker died")
        assert sched.abort(boom) == [first, second]
        assert first.error is boom and second.error is boom
        assert seen == [(second, None, True)]

    def test_cancel_delivers_one_final_callback(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=1, mpu_config=MPU_CFG)
        calls = {0: [], 1: []}
        running, queued = (
            sched.submit(rng.integers(0, VOCAB, size=4), 8,
                         on_token=lambda s, t, d, i=i: calls[i].append((t, d)))
            for i in (0, 1))
        sched.step()
        sched.cancel(queued)   # waiting: told at once
        sched.cancel(running)  # in flight: told when compacted out
        assert calls[1] == [(None, True)]
        sched.run_until_idle()
        sched.cancel(running)  # idempotent
        assert calls[0][-1] == (None, True)
        assert [d for _, d in calls[0]].count(True) == 1

    def test_submit_validation(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG)
        with pytest.raises(ValueError):
            sched.submit(np.zeros((2, 3), dtype=np.int64), 4)
        with pytest.raises(ValueError):
            sched.submit(np.array([], dtype=np.int64), 4)
        with pytest.raises(ValueError):
            sched.submit(rng.integers(0, VOCAB, size=4), -1)
        with pytest.raises(ValueError):  # 8 + 18 - 1 > max_seq_len 24
            sched.submit(rng.integers(0, VOCAB, size=8), 18)
        with pytest.raises(ValueError):  # a scored prompt must fit too
            sched.submit(rng.integers(0, VOCAB, size=25), 0)
        assert not sched.has_work
        with pytest.raises(ValueError):
            DecodeScheduler(qlm, max_active=0)


class TestPagedScheduling:
    """Edge cases the paging rewrite must preserve, plus the paths it adds:
    prefix-hit admission, out-of-pages backpressure, per-request overflow."""

    def test_identical_prompts_in_one_wave(self, qlm, rng):
        prompt = rng.integers(0, VOCAB, size=7)
        sched = DecodeScheduler(qlm, max_active=4, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4))
        seqs = [sched.submit(prompt, 6) for _ in range(4)]
        sched.run_until_idle()
        solo = qlm.generate(prompt, 6, mpu_config=MPU_CFG)
        for seq in seqs:
            np.testing.assert_array_equal(seq.tokens, solo.tokens)
        # Same-wave twins cannot share (their pages are computed in the same
        # pass), but registration converges the chain for later arrivals.
        assert sched.metrics.prefix_hit_requests == 0
        late = sched.submit(prompt, 6)
        sched.run_until_idle()
        np.testing.assert_array_equal(late.tokens, solo.tokens)
        assert late.shared_tokens == 4  # floor((7-1)/4) pages revived
        assert sched.metrics.prefix_hit_requests == 1
        assert sched.metrics.prefix_hit_tokens == 4

    def test_whole_batch_departs_in_one_iteration(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=4, mpu_config=MPU_CFG)
        prompts = [rng.integers(0, VOCAB, size=5) for _ in range(4)]
        seqs = [sched.submit(p, 3) for p in prompts]
        sched.step()  # admit + first decode iteration
        finished = sched.step() + sched.step()
        assert {s.request_id for s in finished} == {s.request_id for s in seqs}
        assert sched.num_active == 0 and not sched.has_work
        assert sched.pool.num_free == sched.pool.num_pages  # all pages back
        for seq, p in zip(seqs, prompts, strict=True):
            np.testing.assert_array_equal(
                seq.tokens, qlm.generate(p, 3, mpu_config=MPU_CFG).tokens)
        # The emptied scheduler admits fresh work.
        again = sched.submit(rng.integers(0, VOCAB, size=6), 2)
        sched.run_until_idle()
        assert again.finish_reason == "length"

    def test_cancel_request_sharing_pages_with_live_one(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4))
        prefix = rng.integers(0, VOCAB, size=9)
        seed = sched.submit(prefix, 2)
        sched.run_until_idle()  # registers the prefix's pages, then departs
        assert seed.finish_reason == "length"

        p_victim = np.concatenate([prefix, rng.integers(0, VOCAB, size=2)])
        p_keeper = np.concatenate([prefix, rng.integers(0, VOCAB, size=3)])
        victim = sched.submit(p_victim, 8)
        keeper = sched.submit(p_keeper, 8)
        sched.step()
        assert victim.shared_tokens == 8 and keeper.shared_tokens == 8
        shared = sched._cache.row_pages(1)[:2]  # keeper's mapped prefix chain
        assert shared == sched._cache.row_pages(0)[:2]
        assert all(sched.pool.refcounts[p] == 2 for p in shared)
        sched.cancel(victim)
        sched.step()
        # The victim's references are gone; the shared pages survive because
        # the keeper still holds them.
        assert all(sched.pool.refcounts[p] == 1 for p in shared)
        sched.run_until_idle()
        assert victim.finish_reason == "cancelled"
        np.testing.assert_array_equal(
            keeper.tokens, qlm.generate(p_keeper, 8, mpu_config=MPU_CFG).tokens)
        assert sched.pool.num_free == sched.pool.num_pages

    def test_out_of_pages_admission_backpressure(self, qlm, rng):
        # Two maximal requests cannot co-reside in a 6-page pool: the second
        # waits (no mid-decode OutOfPagesError) and runs after the first.
        sched = DecodeScheduler(qlm, max_active=4, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4,
                                                         num_pages=6))
        prompts = [rng.integers(0, VOCAB, size=8) for _ in range(2)]
        seqs = [sched.submit(p, 8) for p in prompts]  # 15 tokens -> 4 pages
        sched.step()
        assert sched.num_active == 1
        assert sched.metrics.backpressure_events >= 1
        sched.run_until_idle()
        for seq, p in zip(seqs, prompts, strict=True):
            assert seq.finish_reason == "length"
            np.testing.assert_array_equal(
                seq.tokens, qlm.generate(p, 8, mpu_config=MPU_CFG).tokens)

    def test_oversized_request_fails_instead_of_wedging(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4,
                                                         num_pages=2))
        doomed = sched.submit(rng.integers(0, VOCAB, size=10), 8)
        ok = sched.submit(rng.integers(0, VOCAB, size=4), 2)
        sched.run_until_idle()
        assert doomed.finish_reason == "error"
        assert "pages" in str(doomed.error)
        assert ok.finish_reason == "length"

    def test_cache_overflow_fails_only_the_offending_request(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4,
                                                         capacity=12))
        long_prompt = rng.integers(0, VOCAB, size=10)
        short_prompt = rng.integers(0, VOCAB, size=4)
        long = sched.submit(long_prompt, 8)    # wants 17 cached > capacity 12
        short = sched.submit(short_prompt, 6)  # fits: 9 <= 12
        sched.run_until_idle()
        assert long.finish_reason == "error"
        assert isinstance(long.error, CacheOverflowError)
        assert len(long.tokens) == 3  # emitted until its row hit capacity
        np.testing.assert_array_equal(
            short.tokens, qlm.generate(short_prompt, 6,
                                       mpu_config=MPU_CFG).tokens)
        assert sched.pool.num_free == sched.pool.num_pages

    def test_prefill_overflow_fails_its_own_group(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4,
                                                         capacity=12))
        long = sched.submit(rng.integers(0, VOCAB, size=14), 2)  # 14 > 12
        short_prompt = rng.integers(0, VOCAB, size=5)
        short = sched.submit(short_prompt, 4)
        scored = sched.submit(rng.integers(0, VOCAB, size=6), 0)
        finished = sched.step()
        assert {long.request_id, scored.request_id} <= {
            s.request_id for s in finished}
        assert long.finish_reason == "error" and long.tokens.size == 0
        assert isinstance(long.error, CacheOverflowError)
        assert scored.finish_reason == "length"
        assert (scored.logits.tobytes()
                == _solo_prefill(qlm, scored.prompt).tobytes())
        sched.audit_cache()
        sched.run_until_idle()
        np.testing.assert_array_equal(
            short.tokens, qlm.generate(short_prompt, 4,
                                       mpu_config=MPU_CFG).tokens)
        sched.audit_cache()
        assert sched.pool.num_free == sched.pool.num_pages

    def test_one_unpadded_pass_per_prefill_shape(self, qlm, rng, monkeypatch):
        """Admitted prompts of different shapes prefill as separate passes
        with no padded column, and the counters bill exactly those passes."""
        sched = DecodeScheduler(qlm, max_active=4, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4))
        prefix = rng.integers(0, VOCAB, size=9)
        sched.submit(prefix, 2)
        sched.run_until_idle()  # registers the prefix's first two pages
        prompts = [rng.integers(0, VOCAB, size=5),
                   rng.integers(0, VOCAB, size=9),
                   np.concatenate([prefix[:8], rng.integers(0, VOCAB, size=5)]),
                   rng.integers(0, VOCAB, size=5)]
        solo = [qlm.generate(p, 4, mpu_config=MPU_CFG).tokens for p in prompts]
        passes, padded = [], []
        inner = qlm.prefill

        def prefill(*args, **kwargs):  # wrapped as bench/ledger.py does
            rows, width = np.shape(args[0])
            passes.append((rows, width, int(kwargs["cache"].lengths[0])))
            padded.append(int(rows * width - np.sum(kwargs["num_valid"])))
            return inner(*args, **kwargs)

        monkeypatch.setattr(qlm, "prefill", prefill)
        stats, tokens = sched.metrics.mpu_stats, sched.metrics.prefill_tokens
        seqs = [sched.submit(p, 4) for p in prompts]
        sched.step()
        # (rows, new tokens, cached length), shortest first; the two
        # 5-token shapes in the queue order of their first request.
        assert passes == [(2, 5, 0), (1, 5, 8), (1, 9, 0)]
        assert padded == [0, 0, 0]
        assert seqs[2].shared_tokens == 8
        for rows, width, _ in passes:
            stats = stats.merge(qlm.model_mpu_stats(rows * width, MPU_CFG))
        stats = stats.merge(qlm.model_mpu_stats(len(prompts), MPU_CFG))
        assert sched.metrics.mpu_stats == stats
        assert sched.metrics.prefill_tokens == tokens + 2 * 5 + 9 + 5
        sched.run_until_idle()
        for seq, want in zip(seqs, solo, strict=True):
            np.testing.assert_array_equal(seq.tokens, want)
        assert len(passes) == 3

    def test_small_pages_serve_solo_tokens(self, qlm, rng):
        prompts = [rng.integers(0, VOCAB, size=int(n)) for n in (4, 9, 6, 5)]
        sched = DecodeScheduler(qlm, max_active=3, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4))
        seqs = [sched.submit(p, 7) for p in prompts]
        sched.run_until_idle()
        for seq, p in zip(seqs, prompts, strict=True):
            np.testing.assert_array_equal(
                seq.tokens, qlm.generate(p, 7, mpu_config=MPU_CFG).tokens)

    @pytest.mark.parametrize("kwargs", [
        {"page_size": 0}, {"num_pages": 0}, {"capacity": 0},
        {"capacity": 25},  # > max_seq_len 24: caught by the scheduler
    ])
    def test_bad_cache_config_rejected_up_front(self, qlm, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            DecodeScheduler(qlm, mpu_config=MPU_CFG,
                            cache_config=CacheConfig(**kwargs))

    def test_prefix_sharing_off_still_pages(self, qlm, rng):
        prompt = rng.integers(0, VOCAB, size=7)
        sched = DecodeScheduler(qlm, max_active=1, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(
                                    page_size=4, prefix_sharing=False))
        first = sched.submit(prompt, 4)
        sched.run_until_idle()
        second = sched.submit(prompt, 4)
        sched.run_until_idle()
        np.testing.assert_array_equal(first.tokens, second.tokens)
        assert sched.metrics.prefix_hit_tokens == 0
        assert sched.metrics.prefill_tokens == 2 * 7


def _solo_prefill(qlm, prompt):
    logits, _, _ = qlm.prefill(prompt, num_valid=np.array([prompt.size]),
                               mpu_config=MPU_CFG)
    return logits[0]


class TestScoringRequests:
    """``max_new_tokens=0``: prefill-only requests through the one queue."""

    def test_scored_in_the_admitting_step_by_length_group(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=4, mpu_config=MPU_CFG)
        prompts = [rng.integers(0, VOCAB, size=n) for n in (6, 9, 6)]
        gen = sched.submit(prompts[1], 4)
        scored = [sched.submit(p, 0) for p in prompts]
        finished = sched.step()
        assert {s.request_id for s in scored} <= {s.request_id for s in finished}
        for seq, prompt in zip(scored, prompts, strict=True):
            assert seq.finish_reason == "length" and seq.generated == []
            assert seq.logits.tobytes() == _solo_prefill(qlm, prompt).tobytes()
        assert [s.prefill_rows for s in scored] == [2, 1, 2]
        # Only the generation joined the decode cache; scoring pages are
        # already back in the pool.
        assert sched.num_active == 1
        sched.audit_cache()
        assert (sched.pool.num_pages - sched.pool.num_free
                == len(sched._cache.row_pages(0)))
        sched.run_until_idle()
        assert gen.tokens.size == 4
        assert sched.pool.num_free == sched.pool.num_pages
        # The decode metrics account the generation alone.
        assert sched.metrics.finished == sched.metrics.requests == 1
        assert sched.metrics.admissions == 1
        assert sched.metrics.prefill_tokens == 9

    def test_shorter_scoring_pass_runs_first(self, qlm, rng, monkeypatch):
        # A 12-token prompt queued before a 4-token one: the 4-token group
        # prefills first, so the short pass never waits behind the long one.
        sched = DecodeScheduler(qlm, max_active=4, mpu_config=MPU_CFG)
        prompts = [rng.integers(0, VOCAB, size=n) for n in (12, 4)]
        solo = [_solo_prefill(qlm, p) for p in prompts]
        widths = []
        inner = qlm.prefill

        def prefill(*args, **kwargs):
            widths.append(np.shape(args[0])[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(qlm, "prefill", prefill)
        scored = [sched.submit(p, 0) for p in prompts]
        assert len(sched.step()) == 2
        assert widths == [4, 12]
        for seq, want in zip(scored, solo, strict=True):
            assert seq.logits.tobytes() == want.tobytes()

    def test_scoring_never_maps_a_prefix(self, qlm, rng):
        prompt = rng.integers(0, VOCAB, size=9)
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4))
        sched.submit(prompt, 3)
        sched.run_until_idle()
        scored = sched.submit(prompt, 0)
        sched.run_until_idle()
        assert scored.shared_tokens == 0
        assert sched.metrics.prefix_hit_tokens == 0
        assert scored.logits.shape == (9, VOCAB)
        assert scored.logits.tobytes() == _solo_prefill(qlm, prompt).tobytes()

    def test_scoring_passes_generations_held_at_the_cap(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=1, mpu_config=MPU_CFG)
        first = sched.submit(rng.integers(0, VOCAB, size=5), 4)
        second = sched.submit(rng.integers(0, VOCAB, size=6), 2)
        scored = [sched.submit(rng.integers(0, VOCAB, size=n), 0)
                  for n in (5, 7)]

        def step():
            return [s.request_id for s in sched.step()]

        # The cap holds the second generation back, not the scoring
        # requests queued behind it.
        assert step() == [s.request_id for s in scored]
        assert sched.num_active == 1 and sched.num_waiting == 1
        later = sched.submit(rng.integers(0, VOCAB, size=5), 0)
        assert step() == [later.request_id]
        assert not first.done and sched.num_waiting == 1
        assert step() == [first.request_id]
        sched.run_until_idle()
        assert second.tokens.size == 2
        assert sched.metrics.admissions == 2
        assert sched.metrics.backpressure_events == 0

    def test_scoring_borrows_pages_held_for_decode_growth(self, qlm, rng):
        # 4 pages of 4 tokens: the generation holds 2 and reserves 1 more.
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG,
                                cache_config=CacheConfig(page_size=4,
                                                         num_pages=4))
        gen = sched.submit(rng.integers(0, VOCAB, size=5), 8)
        sched.step()
        fits = sched.submit(rng.integers(0, VOCAB, size=8), 0)
        waits = sched.submit(rng.integers(0, VOCAB, size=12), 0)
        behind = sched.submit(rng.integers(0, VOCAB, size=3), 0)
        # The 2-page prompt uses the free pages the generation will grow
        # into; the 3-page one waits, and so does the request behind it.
        assert [s.request_id for s in sched.step()] == [fits.request_id]
        assert fits.logits.tobytes() == _solo_prefill(qlm, fits.prompt).tobytes()
        assert sched.num_waiting == 2
        sched.audit_cache()
        while not gen.done:
            assert not waits.done
            sched.step()
        sched.run_until_idle()
        assert gen.tokens.size == 8
        for seq in (waits, behind):
            assert seq.finish_reason == "length"
            assert (seq.logits.tobytes()
                    == _solo_prefill(qlm, seq.prompt).tobytes())
        assert sched.pool.num_free == sched.pool.num_pages

    def test_cancelled_scoring_request_never_runs(self, qlm, rng):
        sched = DecodeScheduler(qlm, max_active=2, mpu_config=MPU_CFG)
        calls = []
        seq = sched.submit(rng.integers(0, VOCAB, size=5), 0,
                           on_token=lambda s, t, d: calls.append((t, d)))
        sched.cancel(seq)
        sched.run_until_idle()
        assert seq.finish_reason == "cancelled" and seq.logits is None
        assert calls == [(None, True)]
        assert sched.metrics.prefill_tokens == 0


class TestServerGenerate:
    """The async front-end over the scheduler, sharded pool underneath."""

    def test_concurrent_mixed_length_matches_solo(self, qlm, rng):
        server = _server(qlm, num_shards=2, decode_max_active=8)
        prompts = [rng.integers(0, VOCAB, size=int(n))
                   for n in (5, 8, 6, 8, 4, 7)]
        solo = [server.generate_solo(p, 9) for p in prompts]

        async def main():
            results = await asyncio.gather(
                *[server.submit_generate(p, 9) for p in prompts])
            await server.aclose()
            return results

        results = asyncio.run(main())
        for result, want, prompt in zip(results, solo, prompts, strict=True):
            np.testing.assert_array_equal(result.tokens, want.tokens)
            assert result.finish_reason == want.finish_reason
            assert result.latency_s > 0
            np.testing.assert_array_equal(result.prompt, prompt)
        metrics = server.decode_metrics
        assert metrics.requests == len(prompts)
        assert metrics.finished == len(prompts)
        assert metrics.mean_active > 1.0  # iteration-level batching happened
        assert metrics.request_latency.count() == len(prompts)
        assert (0 < metrics.token_latency.percentile(50)
                <= metrics.token_latency.percentile(99))
        assert metrics.tokens_per_second > 0

    def test_decode_stats_flow_into_server_counters(self, qlm, rng):
        server = _server(qlm, num_shards=3, decode_max_active=4)

        async def main():
            await server.submit_generate(rng.integers(0, VOCAB, size=6), 5)
            await server.aclose()

        asyncio.run(main())
        # Sharded dispatch is exactly additive: the scheduler's decode-scoped
        # counters appear identically in the server-wide aggregate.
        assert server.decode_metrics.mpu_stats != MPURunStats()
        assert server.metrics.mpu_stats == server.decode_metrics.mpu_stats

    def test_streaming_yields_the_same_tokens(self, qlm, rng):
        server = _server(qlm, num_shards=2)
        prompt = rng.integers(0, VOCAB, size=6)
        want = server.generate_solo(prompt, 6)

        async def main():
            got = []
            async for token in server.stream_generate(prompt, 6):
                got.append(token)
            await server.aclose()
            return got

        assert asyncio.run(main()) == list(want.tokens)

    def test_generation_alongside_one_shot_requests(self, qlm, rng):
        """The decode pool and the one-shot logits pipeline share the server
        (and its sharded pool) without interfering."""
        server = _server(qlm, num_shards=2)
        prompt = rng.integers(0, VOCAB, size=6)
        want_logits = server.run_solo(prompt)
        want_tokens = server.generate_solo(prompt, 5).tokens

        async def main():
            gen_task = asyncio.ensure_future(server.submit_generate(prompt, 5))
            one_shot = await server.submit(prompt)
            gen = await gen_task
            await server.aclose()
            return one_shot, gen

        one_shot, gen = asyncio.run(main())
        np.testing.assert_array_equal(one_shot.logits, want_logits)
        np.testing.assert_array_equal(gen.tokens, want_tokens)

    def test_decode_error_propagates_to_clients(self, qlm, rng):
        """A fatal error inside the decode loop reaches the awaiting client
        instead of hanging its future."""
        server = _server(qlm, num_shards=2)
        boom = RuntimeError("pool worker died")
        calls = {"n": 0}
        original = server.scheduler._gemm

        def failing_gemm(name, flat):
            calls["n"] += 1
            if calls["n"] > 20:  # survive prefill, die mid-decode
                raise boom
            return original(name, flat)

        server.scheduler._gemm = failing_gemm

        async def main():
            try:
                await server.submit_generate(rng.integers(0, VOCAB, size=6), 8)
            finally:
                await server.aclose()

        with pytest.raises(RuntimeError, match="pool worker died"):
            asyncio.run(main())

    def test_failing_scoring_group_fails_only_its_requests(self, qlm, rng):
        """A GEMM error inside one scoring group's prefill fails that
        group's requests; another group, a concurrent generation and the
        pump carry on, and the page pool ends clean."""
        server = _server(qlm, num_shards=2)
        doomed = [rng.integers(0, VOCAB, size=7) for _ in range(2)]
        other = rng.integers(0, VOCAB, size=5)
        prompt = rng.integers(0, VOCAB, size=6)
        want_logits = server.run_solo(other)
        want_tokens = server.generate_solo(prompt, 5).tokens
        original = server.scheduler._gemm
        boom = RuntimeError("GEMM failed mid-group")

        def failing_gemm(name, flat):
            if flat.shape[1] == 2 * 7:  # only the two 7-token prompts' pass
                raise boom
            return original(name, flat)

        server.scheduler._gemm = failing_gemm

        async def main():
            gen = asyncio.ensure_future(server.submit_generate(prompt, 5))
            scored = await asyncio.gather(
                *(server.submit(p) for p in [*doomed, other]),
                return_exceptions=True)
            generated = await gen
            await server.aclose()
            return scored, generated

        scored, generated = asyncio.run(main())
        assert scored[0] is boom and scored[1] is boom
        assert scored[2].logits.tobytes() == want_logits.tobytes()
        np.testing.assert_array_equal(generated.tokens, want_tokens)
        server.scheduler.audit_cache()
        assert server.scheduler.pool.num_free == server.scheduler.pool.num_pages
        assert server.decode_metrics.finished == 1

    def test_failing_generation_prefill_fails_its_group(self, qlm, rng):
        """An error in a generation group's prefill reaches that group's
        clients instead of stranding them, and leaves the pool clean for
        the next request."""
        server = _server(qlm, num_shards=2)
        prompt = rng.integers(0, VOCAB, size=9)
        later = rng.integers(0, VOCAB, size=5)
        want = server.generate_solo(later, 3).tokens
        original = server.scheduler._gemm
        boom = RuntimeError("GEMM failed in prefill")

        def failing_gemm(name, flat):
            if flat.shape[1] == 9:
                raise boom
            return original(name, flat)

        server.scheduler._gemm = failing_gemm

        async def main():
            with pytest.raises(RuntimeError, match="GEMM failed"):
                await asyncio.wait_for(server.submit_generate(prompt, 4), 30)
            got = await server.submit_generate(later, 3)
            await server.aclose()
            return got

        np.testing.assert_array_equal(asyncio.run(main()).tokens, want)
        server.scheduler.audit_cache()
        assert server.scheduler.pool.num_free == server.scheduler.pool.num_pages

    def test_abandoned_stream_cancels_the_request(self, qlm, rng):
        server = _server(qlm, num_shards=2)
        budget = 10

        async def main():
            stream = server.stream_generate(rng.integers(0, VOCAB, size=5),
                                            budget)
            first = await stream.__anext__()
            await stream.aclose()  # abandon: runs the cancel path
            await server.aclose()  # pump drains at the next boundary
            return first

        assert 0 <= asyncio.run(main()) < VOCAB
        assert not server.scheduler.has_work
        # The request left the pool early instead of decoding out its budget.
        assert server.decode_metrics.generated_tokens < budget


class TestSharedPreparedState:
    def test_pool_pins_the_model_memo(self, qlm):
        # At every worker count the pool holds the model's own prepared
        # programs: one copy of the RAC keys for solo and served.
        prepared = qlm.prepared_weights(MPU_CFG)
        for num_shards in (1, 2):
            with _server(qlm, num_shards=num_shards) as server:
                assert server.pool._programs.keys() == prepared.keys()
                for name, program in server.pool._programs.items():
                    assert program is prepared[name].program

    def test_single_shard_results_unchanged(self, qlm, rng):
        shared = _server(qlm, num_shards=1)
        solo = _server(qlm, num_shards=2)
        with shared, solo:
            prompt = rng.integers(0, VOCAB, size=6)
            np.testing.assert_array_equal(shared.run_solo(prompt),
                                          solo.run_solo(prompt))
            np.testing.assert_array_equal(
                shared.generate_solo(prompt, 5).tokens,
                solo.generate_solo(prompt, 5).tokens)


class TestServerPool:
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_fanned_out_serving_equals_solo(self, qlm, rng, monkeypatch,
                                            num_shards):
        # Every GEMM of two or more columns fans out (the pool reads the
        # threshold when it is built).  Micro-batched logits and generated
        # tokens still equal the solo paths' bytes, and the solo logits
        # equal those of a server that runs every call inline.
        monkeypatch.setattr(workers, "_FANOUT_LUT_READS", 1)
        prompts = [rng.integers(0, VOCAB, size=int(n)) for n in (5, 8, 3)]
        with _server(qlm, num_shards=1) as inline:
            want_logits = [inline.run_solo(p) for p in prompts]
        server = _server(qlm, num_shards=num_shards)
        solo_logits = [server.run_solo(p) for p in prompts]
        solo_tokens = [server.generate_solo(p, 5).tokens for p in prompts]
        fanout_before = server.pool.counters.fanout

        async def main():
            one_shot = await asyncio.gather(
                *(server.submit(p) for p in prompts))
            generated = await asyncio.gather(
                *(server.submit_generate(p, 5) for p in prompts))
            await server.aclose()
            return one_shot, generated

        one_shot, generated = asyncio.run(main())
        assert server.pool.counters.fanout > fanout_before > 0
        for got, solo, want in zip(one_shot, solo_logits, want_logits,
                                   strict=True):
            assert got.logits.tobytes() == solo.tobytes() == want.tobytes()
        for got, want in zip(generated, solo_tokens, strict=True):
            np.testing.assert_array_equal(got.tokens, want)

    def test_backend_is_not_a_parameter(self, qlm):
        with pytest.raises(TypeError):
            InferenceServer(qlm, backend="thread")

    def test_closed_server_refuses_requests(self, qlm, rng):
        # close() closes the pool, so a later request raises instead of
        # running on half of a torn-down pool.
        server = _server(qlm, num_shards=2)
        prompt = rng.integers(0, VOCAB, size=5)
        server.run_solo(prompt)
        server.close()
        with pytest.raises(RuntimeError, match="pool is closed"):
            server.run_solo(prompt)
