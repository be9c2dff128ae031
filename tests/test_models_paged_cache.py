"""Paged KV cache: page pool bookkeeping, prefix sharing, bit-exactness.

The contract under test (see :mod:`repro.models.transformer`):

* :class:`PagePool` hands out refcounted fixed-size pages with an
  atomic out-of-pages check, keeps freed-but-registered pages available
  for prefix revival (oldest-freed reused first), and registers completed
  pages under a rolling token-prefix hash chain;
* :class:`PagedKVCache` over a shared pool drives
  :meth:`TransformerLM.step` to the full ``forward``'s logits (within
  ``DECODE_ATOL``) — ragged prefill and incremental decode alike, with
  pages shared and split across rows;
* prefix sharing is copy-on-write without copying: shared pages are
  complete and immutable, appends land in per-row tail pages, and a
  prompt whose prefix is resident skips prefill for the shared portion;
* batch membership (``extend`` / ``remove_rows``) touches O(pages of the
  rows involved), never the rest of the pool.
"""

import numpy as np
import pytest

from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import (
    _PAGE_ROOT_KEY,
    _page_chain_key,
    DECODE_ATOL,
    CacheOverflowError,
    OutOfPagesError,
    PagedKVCache,
    TransformerConfig,
    TransformerLM,
)
from repro.serve import CacheConfig, DecodeScheduler

VOCAB = 29


@pytest.fixture
def model():
    return TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=16,
                                           d_model=16, n_heads=2, n_layers=2,
                                           d_ff=32, seed=3))


@pytest.fixture
def pool(model):
    return model.make_page_pool(num_pages=12, page_size=4)


class TestPagePool:
    def test_allocate_release_refcount_lifecycle(self, pool):
        assert pool.num_free == 12
        pages = pool.allocate(3)
        assert len(pages) == 3 and pool.num_free == 9
        assert all(pool.refcounts[p] == 1 for p in pages)
        pool.acquire(pages)
        assert all(pool.refcounts[p] == 2 for p in pages)
        pool.release(pages)
        assert pool.num_free == 9  # still one holder
        pool.release(pages)
        assert pool.num_free == 12
        with pytest.raises(ValueError, match="released more than acquired"):
            pool.release([pages[0]])

    def test_out_of_pages_is_atomic(self, pool):
        pool.allocate(10)
        with pytest.raises(OutOfPagesError, match="only 2 of 12 are free"):
            pool.allocate(3)
        assert pool.num_free == 2  # nothing was taken by the failed call

    def test_oldest_freed_page_is_reused_first(self, pool):
        a, b, c = pool.allocate(3)
        rest = pool.allocate(9)  # free list now empty
        pool.release([b])
        pool.release([a])
        pool.release(rest[:1])
        assert pool.allocate(1) == [b]  # freed first -> reused first
        assert pool.allocate(1) == [a]

    def test_registry_revival_and_eviction(self, pool):
        page = pool.allocate(1)[0]
        key = _page_chain_key(_PAGE_ROOT_KEY, (1, 2, 3, 4))
        pool.tokens[page] = [1, 2, 3, 4]
        pool.register(page, key)
        assert pool.num_registered == 1
        pool.release([page])  # free but still registered
        mapped, prefix_key, matched = pool.map_prefix(
            np.array([1, 2, 3, 4, 5]), max_tokens=5)
        assert mapped == [page] and matched == 4
        assert prefix_key == hash(key)
        assert pool.counters.pages_revived == 1
        pool.release(mapped)
        # Reallocating the storage evicts the registration.
        taken = pool.allocate(12)
        assert page in taken and pool.num_registered == 0

    def test_first_writer_wins_registration(self, pool):
        p1, p2 = pool.allocate(2)
        key = _page_chain_key(_PAGE_ROOT_KEY, (7, 7, 7, 7))
        pool.register(p1, key)
        pool.register(p2, key)  # ignored: lookups converge on one page
        pool.tokens[p1] = 7
        assert pool.map_prefix(np.full(8, 7), max_tokens=8)[0] == [p1]

    def test_map_prefix_verifies_stored_tokens(self, pool):
        # A registry hit whose stored tokens do not match the prompt chunk
        # (stale or colliding entry) must be rejected, not attended.
        page = pool.allocate(1)[0]
        pool.register(page, _page_chain_key(_PAGE_ROOT_KEY, (1, 2, 3, 4)))
        pool.tokens[page] = [1, 2, 3, 9]
        mapped, prefix_key, matched = pool.map_prefix(
            np.array([1, 2, 3, 4]), max_tokens=4)
        assert mapped == [] and matched == 0
        assert prefix_key == _PAGE_ROOT_KEY
        assert pool.counters.lookup_misses == 1

    def test_map_prefix_respects_max_tokens(self, pool):
        prev = _PAGE_ROOT_KEY
        pages = pool.allocate(2)
        toks = np.arange(8) % VOCAB
        for i, page in enumerate(pages):
            chunk = tuple(int(t) for t in toks[i * 4:(i + 1) * 4])
            key = _page_chain_key(prev, chunk)
            pool.tokens[page] = chunk
            pool.register(page, key)
            prev = hash(key)
        mapped, _, matched = pool.map_prefix(toks, max_tokens=7)
        assert mapped == pages[:1] and matched == 4  # never maps a partial page
        pool.release(mapped)


def _fill(model, pool, tokens, num_valid=None, capacity=None):
    batch = tokens.shape[0]
    cache = model.init_paged_cache(batch, pool, capacity=capacity)
    logits = model.step(tokens, cache, num_valid=num_valid)
    return logits, cache


class TestPagedMatchesForward:
    def test_ragged_prefill_matches_forward_rows(self, model, pool, rng):
        lens = np.array([5, 9, 1, 7])
        tokens = rng.integers(0, VOCAB, size=(4, 9))
        paged, cache = _fill(model, pool, tokens, num_valid=lens)
        for r, n in enumerate(lens):
            # Valid positions only: logits at padded positions are garbage
            # by contract.
            full, _ = model.forward(tokens[r:r + 1, :n])
            np.testing.assert_allclose(paged[r, :n], full[0],
                                       rtol=0, atol=DECODE_ATOL)
        np.testing.assert_array_equal(cache.lengths, lens)

    def test_decode_matches_forward_at_every_step(self, model, pool, rng):
        seqs = rng.integers(0, VOCAB, size=(3, 6))
        _, cache = _fill(model, pool, seqs)
        for _ in range(8):
            nxt = rng.integers(0, VOCAB, size=(3, 1))
            seqs = np.concatenate([seqs, nxt], axis=1)
            paged = model.step(nxt, cache)
            full, _ = model.forward(seqs)
            np.testing.assert_allclose(paged[:, 0], full[:, -1],
                                       rtol=0, atol=DECODE_ATOL)

    def test_small_pages_serve_mixed_per_row_bits_like_forward(self, rng):
        model = TransformerLM(TransformerConfig(
            vocab_size=VOCAB, max_seq_len=16, d_model=16, n_heads=2,
            n_layers=2, d_ff=32, seed=11))
        names = model.weight_matrix_names()
        qlm = QuantizedLM.build(
            model,
            QuantizationRecipe(method="bcq", bits=2, group_size=8,
                               bits_per_layer={
                                   name: (3 if i % 2 else 2)
                                   for i, name in enumerate(names)}),
            engine="figlut-f")
        sched = DecodeScheduler(qlm, max_active=3,
                                cache_config=CacheConfig(page_size=4,
                                                         num_pages=16))
        prompts = [rng.integers(0, VOCAB, size=n) for n in (3, 6, 10)]
        seqs = [sched.submit(p, 6) for p in prompts]
        sched.run_until_idle()
        hook = qlm.matmul_via(qlm.prepared_gemm())
        for seq, prompt in zip(seqs, prompts, strict=True):
            # Greedy re-forward: the cache-free oracle, token by token.
            tokens = prompt
            for _ in range(6):
                logits, _ = model.forward(tokens[None], matmul=hook)
                tokens = np.append(tokens, int(np.argmax(logits[0, -1])))
            np.testing.assert_array_equal(seq.tokens, tokens[prompt.size:])


class TestPrefixSharing:
    def test_shared_prefix_skips_prefill_and_matches(self, model, rng):
        qlm = QuantizedLM.build(model, QuantizationRecipe(method="rtn", bits=4))
        sys_prompt = rng.integers(0, VOCAB, size=9)
        p1 = np.concatenate([sys_prompt, rng.integers(0, VOCAB, size=2)])
        p2 = np.concatenate([sys_prompt, rng.integers(0, VOCAB, size=3)])
        sched = DecodeScheduler(qlm, max_active=1,
                                cache_config=CacheConfig(page_size=4))
        first = sched.submit(p1, 4)
        sched.run_until_idle()
        assert first.shared_tokens == 0
        second = sched.submit(p2, 4)
        sched.run_until_idle()
        assert second.shared_tokens == 8  # two full pages of the 9-token prefix
        np.testing.assert_array_equal(second.tokens, qlm.generate(p2, 4).tokens)
        # Plan-exact stats: only the second prompt's 4-token suffix ran the
        # engine, then three batch-1 decode steps per request.
        expected = qlm.model_mpu_stats(batch=p1.size).merge(
            qlm.model_mpu_stats(batch=4))
        for _ in range(6):
            expected = expected.merge(qlm.model_mpu_stats(batch=1))
        assert sched.metrics.mpu_stats == expected

    def test_shared_pages_are_immutable_under_append(self, model, pool, rng):
        prompt = rng.integers(0, VOCAB, size=(1, 8))
        _, owner = _fill(model, pool, prompt)
        shared = owner.row_pages(0)  # both pages complete and registered
        snap_k = pool.k[:, shared].copy()
        mapped, key, matched = pool.map_prefix(prompt[0], max_tokens=8)
        assert mapped == shared and matched == 8
        assert all(pool.refcounts[p] == 2 for p in shared)
        cache = model.init_paged_cache(0, pool)
        cache.add_row(mapped, key, matched)
        # The sharer appends: new K/V lands in a fresh tail page, the
        # shared pages' storage is untouched (copy-on-write, no copy).
        model.step(rng.integers(0, VOCAB, size=(1, 3)), cache)
        assert cache.row_pages(0)[:2] == shared
        assert cache.row_pages(0)[2] not in shared
        np.testing.assert_array_equal(pool.k[:, shared], snap_k)

    def test_release_keeps_registration_for_future_requests(self, model, pool, rng):
        tokens = rng.integers(0, VOCAB, size=(1, 8))
        _, cache = _fill(model, pool, tokens)
        pages = cache.row_pages(0)
        cache.release()
        assert pool.num_free == pool.num_pages
        mapped, _, matched = pool.map_prefix(tokens[0], max_tokens=8)
        assert mapped == pages and matched == 8
        pool.release(mapped)

    def test_same_tokens_converge_on_one_physical_chain(self, model, pool, rng):
        tokens = rng.integers(0, VOCAB, size=(1, 8))
        _, a = _fill(model, pool, tokens)
        _, b = _fill(model, pool, tokens)  # prefilled blind (no lookup)
        # Both rows wrote their own pages, but registration is first-writer-
        # wins: lookups resolve to row a's chain only.
        mapped, _, _ = pool.map_prefix(tokens[0], max_tokens=8)
        assert mapped == a.row_pages(0) != b.row_pages(0)
        pool.release(mapped)


class TestPagedBookkeeping:
    def test_overflow_names_offending_rows(self, model, pool, rng):
        cache = model.init_paged_cache(2, pool, capacity=6)
        model.step(rng.integers(0, VOCAB, size=(2, 5)), cache,
                   num_valid=np.array([5, 2]))
        with pytest.raises(CacheOverflowError) as exc:
            model.step(rng.integers(0, VOCAB, size=(2, 3)), cache)
        assert exc.value.rows == (0,) and exc.value.capacity == 6
        np.testing.assert_array_equal(cache.lengths, [5, 2])  # untouched

    def test_plan_append_out_of_pages_is_atomic(self, model, rng):
        pool = model.make_page_pool(num_pages=2, page_size=4)
        cache = model.init_paged_cache(2, pool)
        with pytest.raises(OutOfPagesError):
            model.step(rng.integers(0, VOCAB, size=(2, 5)), cache)
        assert pool.num_free == 2  # the failed step took nothing
        np.testing.assert_array_equal(cache.lengths, [0, 0])

    def test_extend_and_remove_rows_touch_only_their_pages(self, model, pool, rng):
        _, resident = _fill(model, pool, rng.integers(0, VOCAB, size=(2, 8)))
        base = pool.counters
        allocated, written = base.pages_allocated, base.slots_written
        _, wave = _fill(model, pool, rng.integers(0, VOCAB, size=(1, 4)))
        resident.extend(wave)
        assert resident.batch == 3
        # The join wrote exactly the new row's slots and allocated exactly
        # its pages — independent of the resident rows' cached lengths.
        layers = pool.n_layers
        assert base.pages_allocated - allocated == 1
        assert base.slots_written - written == 4 * layers
        removed = resident.row_pages(0)
        released = base.pages_released
        free = pool.num_free
        resident.remove_rows([0])
        assert base.pages_released - released == len(removed)
        assert pool.num_free - free == len(removed)
        np.testing.assert_array_equal(resident.lengths, [8, 4])

    def test_decode_writes_scale_with_rows_not_cache_size(self, model, rng):
        """Bytes touched per decode append follow pages touched (one slot
        per row per layer), however much K/V is resident in the pool."""
        writes = []
        for resident_rows in (1, 6):
            pool = model.make_page_pool(num_pages=32, page_size=4)
            _, cache = _fill(model, pool,
                             rng.integers(0, VOCAB, size=(resident_rows, 8)))
            before = pool.counters.slots_written
            model.step(rng.integers(0, VOCAB, size=(resident_rows, 1)), cache)
            writes.append((pool.counters.slots_written - before) / resident_rows)
        assert writes[0] == writes[1] == model.config.n_layers

    def test_add_row_validates_length(self, model, pool):
        cache = model.init_paged_cache(0, pool, capacity=8)
        with pytest.raises(ValueError, match="exceeds its mapped pages"):
            cache.add_row([], _PAGE_ROOT_KEY, 4)
        pages = pool.allocate(3)
        with pytest.raises(ValueError, match="exceeds capacity"):
            cache.add_row(pages, _PAGE_ROOT_KEY, 12)

    def test_extend_rejects_foreign_pool_and_capacity(self, model, pool):
        a = model.init_paged_cache(1, pool)
        with pytest.raises(ValueError, match="share one PagePool"):
            a.extend(model.init_paged_cache(1, model.make_page_pool(4, 4)))
        with pytest.raises(ValueError, match="capacity"):
            a.extend(PagedKVCache(pool, capacity=4))
