"""A small decoder-only transformer language model in NumPy.

This is the accuracy-evaluation substrate: a GPT/OPT-style decoder (token +
learned positional embeddings, pre-LayerNorm blocks with multi-head causal
self-attention and a ReLU MLP, a final LayerNorm and an LM head) implemented
with explicit forward *and* backward passes so it can be trained from scratch
on the synthetic corpus without any deep-learning framework.

The weight matrices of the four attention projections, the two MLP
projections and the LM head are exactly the GEMMs that weight-only
quantization targets; :mod:`repro.models.quantized_model` swaps their
``x @ W.T`` products for quantized functional-engine GEMMs at inference time.

Two forward entry points exist:

* :meth:`TransformerLM.forward` — the stateless full pass used by training
  and perplexity evaluation (unchanged numerics);
* :meth:`TransformerLM.step` — the stateful incremental pass for
  autoregressive decoding: Q/K/V are computed only for the new position(s),
  K/V are appended to a :class:`PagedKVCache`, and attention runs against
  every cached position under a padding-aware additive mask.  Per-row cache
  lengths make one stacked ``step`` serve a ragged batch of sequences, the
  substrate the continuous-batching decode scheduler
  (:mod:`repro.serve.scheduler`) drives.

Running ``step`` on an empty cache over the whole prompt computes the
same values as ``forward`` — same GEMM shapes, same causal mask — but
attends over K/V gathered from the cache instead of the freshly split
projections.  BLAS may take a different path for the two memory layouts,
so a prefill matches the full pass to ``DECODE_ATOL``, not always bit for
bit (with a quantized GEMM hook at ``d_model=128``, ``n_heads=4``, the
BLAS build it was measured on differs in the last bit of the attention
output at prompt lengths 32–37).  Likewise an
incremental decode (prefill then single-token steps) changes the GEMM
*shapes*, and a right-padded ragged batch lengthens each short row's key
axis: masked positions contribute exact zeros, but BLAS may block the
longer reduction differently, so such rows match their solo run to
``DECODE_ATOL``.  What does hold bit for bit is row independence at equal
shapes: an unpadded step over equal-length rows gives each row exactly its
solo step's logits — the property serving relies on, which is why the
decode scheduler prefills every request, scoring or generation, in
unpadded groups of one shape (equal cached length, equal new tokens).

The K/V cache is one representation: a :class:`PagedKVCache` holds
per-sequence page tables over a :class:`PagePool` of fixed-size K/V pages,
shared by every sequence of a decode server or private to one
:meth:`TransformerLM.init_cache` batch.  Pages holding a completed token
prefix are content-addressed by a rolling hash, so a new sequence whose
prompt shares a prefix with any resident (or recently freed) page chain
maps those pages copy-on-write and skips recomputing their K/V entirely.
Attention gathers the mapped pages into a stacked buffer and runs the
*same* masked attention as :meth:`TransformerLM.forward`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["TransformerConfig", "TransformerLM", "PagePool", "PagedKVCache",
           "CacheOverflowError", "OutOfPagesError",
           "cross_entropy", "softmax", "DECODE_ATOL"]

# Absolute logit tolerance between the step path and re-running the full
# forward: a prefill, prefill-then-step decoding, or a right-padded row.
# Both perform the same reductions over identically-valued operands, but with
# different matrix shapes (t_new=1 GEMMs vs the full-sequence GEMM, a padded
# key axis) or memory layouts (cache-gathered K/V), so BLAS may reorder the
# K-loop; observed differences are < 1e-12 on float64 logits of O(1)
# magnitude and this bound leaves an order-of-magnitude margin.
DECODE_ATOL = 1e-9


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture hyperparameters of the small LM."""

    vocab_size: int
    max_seq_len: int = 64
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        for name in ("vocab_size", "max_seq_len", "d_model", "n_heads", "n_layers", "d_ff"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean next-token cross entropy and its gradient w.r.t. the logits.

    ``logits`` has shape (batch, seq, vocab); ``targets`` (batch, seq).
    """
    b, t, v = logits.shape
    probs = softmax(logits, axis=-1)
    flat_probs = probs.reshape(b * t, v)
    flat_targets = targets.reshape(b * t)
    picked = flat_probs[np.arange(b * t), flat_targets]
    loss = float(np.mean(-np.log(np.maximum(picked, 1e-12))))
    grad = flat_probs.copy()
    grad[np.arange(b * t), flat_targets] -= 1.0
    grad /= b * t
    return loss, grad.reshape(b, t, v)


def _layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                        eps: float = 1e-5):
    # np.mean and np.var's own ufuncs on float64 (a sum, then a divide by
    # the count), with the mean taken once and ``x - mean`` shared by the
    # variance and ``x_hat``: the same bytes at half the NumPy calls.
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out = gamma * x_hat + beta
    cache = (x_hat, inv_std, gamma)
    return out, cache


def _layer_norm_backward(dout: np.ndarray, cache):
    x_hat, inv_std, gamma = cache
    d = x_hat.shape[-1]
    dgamma = np.sum(dout * x_hat, axis=tuple(range(dout.ndim - 1)))
    dbeta = np.sum(dout, axis=tuple(range(dout.ndim - 1)))
    dx_hat = dout * gamma
    dx = (inv_std / d) * (d * dx_hat
                          - np.sum(dx_hat, axis=-1, keepdims=True)
                          - x_hat * np.sum(dx_hat * x_hat, axis=-1, keepdims=True))
    return dx, dgamma, dbeta


def _linear_backward(dout: np.ndarray, cache):
    x, weight = cache
    dw = dout.reshape(-1, dout.shape[-1]).T @ x.reshape(-1, x.shape[-1])
    db = dout.reshape(-1, dout.shape[-1]).sum(axis=0)
    dx = dout @ weight
    return dx, dw, db


class CacheOverflowError(ValueError):
    """Appending would push one or more cache rows past their capacity.

    ``rows`` names the offending batch rows, so a scheduler can fail just
    those requests instead of treating the whole stacked step as fatal.
    """

    def __init__(self, rows, capacity: int) -> None:
        self.rows = tuple(int(r) for r in np.atleast_1d(rows))
        self.capacity = int(capacity)
        super().__init__(
            f"cache overflow: rows {list(self.rows)} would exceed the cache "
            f"capacity of {self.capacity} cached positions")


class OutOfPagesError(RuntimeError):
    """A :class:`PagePool` has no free page left to satisfy an allocation.

    The decode scheduler treats this as admission backpressure (the request
    waits until departures free pages); hitting it mid-decode means the
    caller admitted more growth than it reserved.
    """


# Seed of the rolling page-hash chain: every sequence's first page hashes
# against this root, so equal leading token chunks collide into the same
# registry key regardless of which sequence produced them.
_PAGE_ROOT_KEY = 0


def _page_chain_key(prefix_key: int, chunk: tuple) -> tuple:
    """Registry key of a completed page: ``(prefix chain hash, its tokens)``.

    The token chunk is stored verbatim (no information is discarded at the
    final link), so two keys collide only if their *ancestor chains* hash
    equal — a 64-bit ``hash`` collision over structurally different tuples.
    ``map_prefix`` additionally verifies the matched page's stored tokens,
    so a collision would also need identical current-page tokens.
    """
    return (prefix_key, chunk)


@dataclass
class PagePoolCounters:
    """Bytes-touched instrumentation of a :class:`PagePool`.

    ``slots_written`` counts per-layer K/V slot writes (the only mutation of
    page storage), and the page counters count membership work — admission
    and departure never copy K/V arrays, so these counters *are* the cost of
    a batch-membership change, and the instrumented scheduler tests pin that
    they scale with the pages a request touches, not with pool residency.
    """

    pages_allocated: int = 0     # fresh pages taken off the free list
    pages_revived: int = 0       # free-list pages re-acquired via prefix hits
    pages_shared: int = 0        # refcount bumps on resident pages
    pages_released: int = 0      # refcount drops
    slots_written: int = 0       # (layer, slot) K/V writes
    gathered_slots: int = 0      # (row, position) slots gathered per layer
    lookup_hit_pages: int = 0    # registry hits during prefix walks
    lookup_misses: int = 0       # prefix walks that ended on a miss

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-walk page lookups that hit the registry.

        Page-granular (one sample per page-chain step), unlike the
        token-granular :attr:`~repro.serve.scheduler.DecodeMetrics.
        prefix_hit_rate`; 0.0 before any lookup happened.
        """
        total = self.lookup_hit_pages + self.lookup_misses
        return self.lookup_hit_pages / total if total else 0.0


class PagePool:
    """A shared pool of fixed-size K/V pages with content-addressed reuse.

    Storage is two arrays of shape ``(n_layers, num_pages, n_heads,
    page_size, d_head)`` plus a per-page token record; sequences reference
    pages through per-row page tables (:class:`PagedKVCache`), so batch
    membership changes move page *indices*, never K/V data.

    Pages are refcounted.  A page whose refcount drops to zero joins the
    free list but keeps its registry entry, so a later request whose prompt
    prefix hashes to it can revive it without recomputing its K/V; pages are
    reallocated oldest-freed-first, evicting their registration only when
    the storage is actually reused.

    Completed pages (every slot written) are registered under a rolling
    hash over ``(prefix_chain, page_tokens)`` — see :func:`_page_chain_key`
    — which is what makes cross-request prefix sharing a dictionary lookup.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int,
                 num_pages: int, page_size: int,
                 dtype: np.dtype | type = np.float64) -> None:
        for name, value in (("n_layers", n_layers), ("n_heads", n_heads),
                            ("d_head", d_head), ("num_pages", num_pages),
                            ("page_size", page_size)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        shape = (n_layers, num_pages, n_heads, page_size, d_head)
        self.k = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.tokens = np.full((num_pages, page_size), -1, dtype=np.int64)
        self.refcounts = np.zeros(num_pages, dtype=np.int64)
        # Free pages in freed order: allocation pops the oldest, so recently
        # freed (still registered) pages survive longest for prefix revival.
        self._free: OrderedDict[int, None] = OrderedDict(
            (p, None) for p in range(num_pages))
        self._registry: dict = {}      # chain key -> page id
        self._page_key: dict = {}      # page id -> chain key (for eviction)
        self.counters = PagePoolCounters()

    @property
    def n_layers(self) -> int:
        return self.k.shape[0]

    @property
    def num_pages(self) -> int:
        return self.k.shape[1]

    @property
    def page_size(self) -> int:
        return self.k.shape[3]

    @property
    def num_free(self) -> int:
        """Pages available for allocation (registered-but-free included)."""
        return len(self._free)

    @property
    def num_registered(self) -> int:
        return len(self._registry)

    def pages_for(self, num_tokens: int) -> int:
        """Pages spanned by ``num_tokens`` cached positions."""
        return -(-int(num_tokens) // self.page_size)

    def audit(self, caches: list | None = None) -> list[str]:
        """Bookkeeping invariant violations (empty list = consistent).

        Delegates to :func:`repro.analysis.pool_audit.audit_page_pool`:
        refcount conservation against ``caches`` (the complete set of live
        :class:`PagedKVCache` views, when given), registry bijection, and
        free-list consistency.  Cheap — never touches K/V storage.
        """
        from repro.analysis.pool_audit import audit_page_pool
        return audit_page_pool(self, caches)

    def allocate(self, n: int) -> list[int]:
        """Take ``n`` fresh pages (refcount 1 each) off the free list.

        Raises :class:`OutOfPagesError` — before touching anything — when
        fewer than ``n`` pages are free.  Reused pages lose their registry
        entry: their storage is about to be overwritten.
        """
        if n > len(self._free):
            raise OutOfPagesError(
                f"need {n} free pages but only {len(self._free)} of "
                f"{self.num_pages} are free; admit fewer sequences or grow "
                f"the pool")
        pages: list[int] = []
        for _ in range(n):
            page, _ = self._free.popitem(last=False)
            key = self._page_key.pop(page, None)
            if key is not None and self._registry.get(key) == page:
                del self._registry[key]
            self.refcounts[page] = 1
            self.tokens[page] = -1
            pages.append(page)
        self.counters.pages_allocated += n
        return pages

    def acquire(self, pages) -> None:
        """Add one reference to each page (reviving free registered pages)."""
        for page in pages:
            if self.refcounts[page] == 0:
                del self._free[page]
                self.counters.pages_revived += 1
            else:
                self.counters.pages_shared += 1
            self.refcounts[page] += 1

    def release(self, pages) -> None:
        """Drop one reference per page; zero-ref pages join the free list
        (registry entries retained for prefix revival)."""
        for page in pages:
            count = int(self.refcounts[page])
            if count < 1:
                raise ValueError(f"page {page} released more than acquired")
            self.refcounts[page] = count - 1
            if count == 1:
                self._free[page] = None
        self.counters.pages_released += len(pages)

    def register(self, page: int, key) -> None:
        """Publish a completed page under its chain key (first writer wins —
        later identical pages stay unregistered so lookups converge on one
        physical page)."""
        if key in self._registry or page in self._page_key:
            return
        self._registry[key] = page
        self._page_key[page] = key

    def map_prefix(self, tokens: np.ndarray,
                   max_tokens: int) -> tuple[list[int], int, int]:
        """Match the longest registered page chain for a prompt prefix.

        Walks ``tokens`` page-aligned chunk by chunk (never past
        ``max_tokens``), following the rolling hash chain; each candidate
        page's stored tokens are verified against the chunk.  Matched pages
        are **acquired** (the caller owns one reference each).

        Returns ``(pages, prefix_key, matched_tokens)`` where ``prefix_key``
        is the chain state after the matched pages — the key the sequence's
        next completed page registers under.
        """
        ps = self.page_size
        arr = np.asarray(tokens, dtype=np.int64).reshape(-1)
        pages: list[int] = []
        prefix_key = _PAGE_ROOT_KEY
        for i in range(min(arr.size, int(max_tokens)) // ps):
            chunk = tuple(int(t) for t in arr[i * ps:(i + 1) * ps])
            key = _page_chain_key(prefix_key, chunk)
            page = self._registry.get(key)
            if page is None or not np.array_equal(self.tokens[page],
                                                  np.asarray(chunk)):
                self.counters.lookup_misses += 1
                break
            pages.append(page)
            self.counters.lookup_hit_pages += 1
            prefix_key = hash(key)
        self.acquire(pages)
        return pages, prefix_key, len(pages) * ps


@dataclass
class _PagedAppendPlan:
    """One step's pre-validated scatter targets through the page tables."""

    rows: np.ndarray       # batch row per write
    positions: np.ndarray  # logical cached position per write
    tokens: np.ndarray     # token id per write (for prefix hashing)
    pages: np.ndarray      # physical page per write
    slots: np.ndarray      # slot within the page per write
    end: np.ndarray        # per-row lengths after the step


class PagedKVCache:
    """Per-sequence page tables over a :class:`PagePool`.

    :meth:`TransformerLM.step` drives it through an append/attend protocol
    (``plan_append`` → per-layer ``scatter`` / ``attention_view`` →
    ``commit_append``).  The gathered keys/values hold the cached numbers
    at every unmasked slot and masked slots contribute exact zeros, so a
    prefill's logits match :meth:`TransformerLM.forward` to
    ``DECODE_ATOL`` (see the module docstring for when they differ in the
    last bit).

    Rows only ever *append*; completed pages are immutable, so prefix
    sharing is copy-on-write without ever copying — shared (refcount > 1)
    pages are always complete, and new tokens land in freshly allocated
    tail pages owned by exactly one row.

    Batch membership is O(pages touched): :meth:`extend` splices another
    cache's page tables in (reference transfer, no K/V copy) and
    :meth:`remove_rows` releases the departing rows' references.
    """

    def __init__(self, pool: PagePool, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.pool = pool
        self._capacity = int(capacity)
        self.page_tables: list[list[int]] = []
        self.lengths = np.zeros(0, dtype=np.int64)
        self._prefix_keys: list[int] = []   # chain state after registered pages
        self._registered: list[int] = []    # leading pages already registered
        self._version = 0                   # bumped on any table change
        self._gather_memo: tuple | None = None

    # -- construction / membership ------------------------------------------
    @classmethod
    def empty(cls, pool: PagePool, batch: int, capacity: int) -> PagedKVCache:
        cache = cls(pool, capacity)
        for _ in range(int(batch)):
            cache.add_row([], _PAGE_ROOT_KEY, 0)
        return cache

    def add_row(self, pages: list[int], prefix_key: int, length: int) -> int:
        """Append one sequence row; ownership of ``pages``' references
        transfers to this cache (``pool.map_prefix`` output plugs in
        directly).  Returns the new row index."""
        if length > len(pages) * self.pool.page_size:
            raise ValueError("row length exceeds its mapped pages")
        if length > self._capacity:
            raise ValueError(f"row length {length} exceeds capacity "
                             f"{self._capacity}")
        self.page_tables.append(list(pages))
        self.lengths = np.append(self.lengths, np.int64(length))
        self._prefix_keys.append(prefix_key)
        self._registered.append(len(pages))
        self._version += 1
        return len(self.page_tables) - 1

    def extend(self, other: PagedKVCache) -> None:
        """Splice another cache's rows onto this one (same pool required).

        Page references transfer — the donor must be discarded afterwards.
        This is how admitted sequences join a decode pool: O(rows added)
        bookkeeping, no K/V copy.
        """
        if other.pool is not self.pool:
            raise ValueError("caches must share one PagePool to merge")
        if other._capacity != self._capacity:
            raise ValueError(
                f"cannot merge paged caches: capacity {self._capacity} != "
                f"{other._capacity}")
        self.page_tables.extend(other.page_tables)
        self.lengths = np.concatenate([self.lengths, other.lengths])
        self._prefix_keys.extend(other._prefix_keys)
        self._registered.extend(other._registered)
        self._version += 1

    def remove_rows(self, rows) -> None:
        """Drop rows in place, releasing their page references — O(pages of
        the removed rows), however large the pool's resident set is."""
        drop = set(int(r) for r in np.atleast_1d(np.asarray(rows, dtype=np.int64)))
        for r in drop:
            if not 0 <= r < self.batch:
                raise IndexError(f"row {r} out of range for batch {self.batch}")
            self.pool.release(self.page_tables[r])
        keep = [i for i in range(self.batch) if i not in drop]
        self.page_tables = [self.page_tables[i] for i in keep]
        self.lengths = self.lengths[keep]
        self._prefix_keys = [self._prefix_keys[i] for i in keep]
        self._registered = [self._registered[i] for i in keep]
        self._version += 1

    def release(self) -> None:
        """Release every row (drop all page references)."""
        self.remove_rows(np.arange(self.batch))

    # -- shape / bookkeeping -------------------------------------------------
    @property
    def batch(self) -> int:
        return len(self.page_tables)

    @property
    def n_layers(self) -> int:
        return self.pool.n_layers

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def page_size(self) -> int:
        return self.pool.page_size

    def row_pages(self, row: int) -> list[int]:
        """The row's page chain (copy)."""
        return list(self.page_tables[row])

    # -- the append/attend protocol step() drives ---------------------------
    def plan_append(self, rows: np.ndarray, positions: np.ndarray,
                    tokens: np.ndarray) -> _PagedAppendPlan:
        """Resolve logical positions to page slots, allocating tail pages.

        Allocation is checked atomically before any page is taken, so an
        :class:`OutOfPagesError` leaves the cache (and the pool) unchanged.
        """
        ps = self.pool.page_size
        rows = np.asarray(rows, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        end = self.lengths.copy()
        np.maximum.at(end, rows, positions + 1)
        needed: list[tuple[int, int]] = []
        for r in np.unique(rows):
            missing = self.pool.pages_for(end[r]) - len(self.page_tables[r])
            if missing > 0:
                needed.append((int(r), missing))
        total = sum(m for _, m in needed)
        if total > self.pool.num_free:
            raise OutOfPagesError(
                f"appending to rows {[r for r, _ in needed]} needs {total} "
                f"new pages but only {self.pool.num_free} are free")
        for r, missing in needed:
            self.page_tables[r].extend(self.pool.allocate(missing))
        if needed:
            self._version += 1
        pages = np.fromiter(
            (self.page_tables[r][p // ps] for r, p in zip(rows, positions, strict=True)),
            dtype=np.int64, count=rows.size)
        return _PagedAppendPlan(rows=rows, positions=positions,
                                tokens=np.asarray(tokens, dtype=np.int64),
                                pages=pages, slots=positions % ps, end=end)

    def scatter(self, layer: int, plan: _PagedAppendPlan, k_new: np.ndarray,
                v_new: np.ndarray) -> None:
        """Write one layer's new K/V into the planned page slots."""
        self.pool.k[layer][plan.pages, :, plan.slots] = k_new
        self.pool.v[layer][plan.pages, :, plan.slots] = v_new
        self.pool.counters.slots_written += int(plan.pages.size)

    def _gather_index(self, kv_len: int) -> tuple[np.ndarray, np.ndarray]:
        """(page, slot) index matrices of shape ``(batch, kv_len)``.

        Positions beyond a row's mapped span pad with page 0 — they are
        always masked, and masked slots contribute exact zeros whatever
        finite values they hold.  Memoised per (membership version, kv_len):
        every layer of a step gathers through one index build.
        """
        memo = self._gather_memo
        if memo is not None and memo[0] == (self._version, kv_len):
            return memo[1], memo[2]
        ps = self.pool.page_size
        pages = np.zeros((self.batch, kv_len), dtype=np.int64)
        for r, table in enumerate(self.page_tables):
            span = min(len(table) * ps, kv_len)
            if span:
                pages[r, :span] = np.repeat(np.asarray(table, dtype=np.int64),
                                            ps)[:span]
        slots = np.broadcast_to(np.arange(kv_len, dtype=np.int64) % ps,
                                (self.batch, kv_len))
        self._gather_memo = ((self._version, kv_len), pages, slots)
        return pages, slots

    def attention_view(self, layer: int, kv_len: int):
        """Gather the mapped pages into stacked ``(batch, heads, kv_len,
        d_head)`` keys/values (slots beyond a row's length hold stale data
        the step mask blocks)."""
        pages, slots = self._gather_index(kv_len)
        keys = self.pool.k[layer][pages, :, slots]  # (batch, kv_len, h, dh)
        vals = self.pool.v[layer][pages, :, slots]
        self.pool.counters.gathered_slots += int(pages.size)
        return keys.transpose(0, 2, 1, 3), vals.transpose(0, 2, 1, 3)

    def commit_append(self, plan: _PagedAppendPlan) -> None:
        """Record the appended tokens and register newly completed pages.

        A page is registered the moment its last slot fills, under the
        rolling chain key of everything before it — from then on any
        prompt sharing that exact token prefix maps it instead of
        recomputing its K/V.
        """
        ps = self.pool.page_size
        self.pool.tokens[plan.pages, plan.slots] = plan.tokens
        for r in np.unique(plan.rows):
            r = int(r)
            full = int(plan.end[r]) // ps
            while self._registered[r] < full:
                i = self._registered[r]
                page = self.page_tables[r][i]
                chunk = tuple(int(t) for t in self.pool.tokens[page])
                key = _page_chain_key(self._prefix_keys[r], chunk)
                self.pool.register(page, key)
                self._prefix_keys[r] = hash(key)
                self._registered[r] = i + 1


class TransformerLM:
    """Decoder-only transformer language model with manual backprop.

    Parameters are stored in ``self.params`` (a flat name → array dict) so an
    optimiser can update them generically and the quantized inference wrapper
    can locate every weight matrix by name.
    """

    def __init__(self, config: TransformerConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, v, f = config.d_model, config.vocab_size, config.d_ff
        scale = 0.02

        def init(shape):
            return (rng.standard_normal(shape) * scale).astype(np.float64)

        params: dict[str, np.ndarray] = {
            "tok_emb": init((v, d)),
            "pos_emb": init((config.max_seq_len, d)),
            "ln_f.gamma": np.ones(d),
            "ln_f.beta": np.zeros(d),
            "lm_head.weight": init((v, d)),
        }
        for layer in range(config.n_layers):
            p = f"layer{layer}."
            params[p + "ln1.gamma"] = np.ones(d)
            params[p + "ln1.beta"] = np.zeros(d)
            params[p + "attn.wq"] = init((d, d))
            params[p + "attn.wk"] = init((d, d))
            params[p + "attn.wv"] = init((d, d))
            params[p + "attn.wo"] = init((d, d))
            params[p + "ln2.gamma"] = np.ones(d)
            params[p + "ln2.beta"] = np.zeros(d)
            params[p + "mlp.w1"] = init((f, d))
            params[p + "mlp.b1"] = np.zeros(f)
            params[p + "mlp.w2"] = init((d, f))
            params[p + "mlp.b2"] = np.zeros(d)
        self.params = params

    # ------------------------------------------------------------------ util
    def weight_matrix_names(self) -> list[str]:
        """Names of the GEMM weight matrices targeted by weight-only quantization."""
        names = []
        for layer in range(self.config.n_layers):
            p = f"layer{layer}."
            names.extend([p + "attn.wq", p + "attn.wk", p + "attn.wv", p + "attn.wo",
                          p + "mlp.w1", p + "mlp.w2"])
        names.append("lm_head.weight")
        return names

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    # --------------------------------------------------------------- forward
    def _attention_forward(self, x: np.ndarray, layer: int, matmul=None,
                           mask: np.ndarray | None = None):
        cfg = self.config
        p = self.params
        prefix = f"layer{layer}.attn."
        b, t, d = x.shape
        h, dh = cfg.n_heads, d // cfg.n_heads
        mm = matmul or (lambda name, inp, w: inp @ w.T)

        q = mm(prefix + "wq", x, p[prefix + "wq"])
        k = mm(prefix + "wk", x, p[prefix + "wk"])
        v = mm(prefix + "wv", x, p[prefix + "wv"])

        def split(z):
            return z.reshape(b, t, h, dh).transpose(0, 2, 1, 3)  # (b, h, t, dh)

        qh, kh, vh = split(q), split(k), split(v)
        scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(dh)
        if mask is None:
            mask = np.triu(np.ones((t, t), dtype=bool), k=1)
        scores = np.where(mask, -1e30, scores)
        attn = softmax(scores, axis=-1)
        ctx = attn @ vh  # (b, h, t, dh)
        ctx_merged = ctx.transpose(0, 2, 1, 3).reshape(b, t, d)
        out = mm(prefix + "wo", ctx_merged, p[prefix + "wo"])
        cache = (x, qh, kh, vh, attn, ctx_merged, mask)
        return out, cache

    def _attention_backward(self, dout: np.ndarray, layer: int, cache):
        cfg = self.config
        p = self.params
        prefix = f"layer{layer}.attn."
        x, qh, kh, vh, attn, ctx_merged, mask = cache
        b, t, d = x.shape
        h, dh = cfg.n_heads, d // cfg.n_heads
        grads: dict[str, np.ndarray] = {}

        # output projection
        dctx_merged, dwo, _ = _linear_backward(dout, (ctx_merged, p[prefix + "wo"]))
        grads[prefix + "wo"] = dwo

        dctx = dctx_merged.reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        dattn = dctx @ vh.transpose(0, 1, 3, 2)
        dvh = attn.transpose(0, 1, 3, 2) @ dctx

        # softmax backward
        dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
        dscores = np.where(mask, 0.0, dscores) / np.sqrt(dh)

        dqh = dscores @ kh
        dkh = dscores.transpose(0, 1, 3, 2) @ qh

        def merge(z):
            return z.transpose(0, 2, 1, 3).reshape(b, t, d)

        dq, dk, dv = merge(dqh), merge(dkh), merge(dvh)
        dx = np.zeros_like(x)
        for name, dz in (("wq", dq), ("wk", dk), ("wv", dv)):
            dxi, dw, _ = _linear_backward(dz, (x, p[prefix + name]))
            grads[prefix + name] = dw
            dx += dxi
        return dx, grads

    def forward(self, tokens: np.ndarray, matmul=None):
        """Run the model; returns (logits, cache) with cache for backward().

        ``matmul`` optionally overrides every weight GEMM with a callable
        ``matmul(name, x, w) -> x @ w.T`` — the hook the quantized inference
        wrapper uses to route GEMMs through a functional engine.
        """
        cfg = self.config
        p = self.params
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise ValueError("tokens must have shape (batch, seq)")
        b, t = tokens.shape
        if t > cfg.max_seq_len:
            raise ValueError(f"sequence length {t} exceeds max_seq_len {cfg.max_seq_len}")
        mm = matmul or (lambda name, inp, w: inp @ w.T)

        x = p["tok_emb"][tokens] + p["pos_emb"][:t][None, :, :]
        # The causal mask depends only on the sequence length; build it once
        # per forward instead of once per layer.
        causal_mask = np.triu(np.ones((t, t), dtype=bool), k=1)
        caches = {"tokens": tokens, "layers": []}
        for layer in range(cfg.n_layers):
            prefix = f"layer{layer}."
            ln1_out, ln1_cache = _layer_norm_forward(x, p[prefix + "ln1.gamma"], p[prefix + "ln1.beta"])
            attn_out, attn_cache = self._attention_forward(ln1_out, layer, matmul=mm,
                                                           mask=causal_mask)
            x1 = x + attn_out
            ln2_out, ln2_cache = _layer_norm_forward(x1, p[prefix + "ln2.gamma"], p[prefix + "ln2.beta"])
            w1, w2 = p[prefix + "mlp.w1"], p[prefix + "mlp.w2"]
            h_pre = mm(prefix + "mlp.w1", ln2_out, w1) + p[prefix + "mlp.b1"]
            h_act = np.maximum(h_pre, 0.0)
            mlp_out = mm(prefix + "mlp.w2", h_act, w2) + p[prefix + "mlp.b2"]
            x2 = x1 + mlp_out
            caches["layers"].append({
                "x_in": x, "ln1": ln1_cache, "attn": attn_cache, "x1": x1,
                "ln2": ln2_cache, "lin1": (ln2_out, w1), "h_pre": h_pre,
                "h_act": h_act, "lin2": (h_act, w2),
            })
            x = x2

        lnf_out, lnf_cache = _layer_norm_forward(x, p["ln_f.gamma"], p["ln_f.beta"])
        logits = mm("lm_head.weight", lnf_out, p["lm_head.weight"])
        caches["ln_f"] = lnf_cache
        caches["lnf_out"] = lnf_out
        return logits, caches

    # ------------------------------------------------- incremental decoding
    def _check_capacity(self, capacity: int | None) -> int:
        """The per-row cached-position bound: default and hard upper bound
        ``max_seq_len`` (the positional table has no entries beyond it)."""
        max_len = self.config.max_seq_len
        capacity = max_len if capacity is None else capacity
        if not 1 <= capacity <= max_len:
            raise ValueError(
                f"capacity must be in [1, {max_len}], got {capacity}")
        return capacity

    def init_cache(self, batch: int, capacity: int | None = None) -> PagedKVCache:
        """An empty :class:`PagedKVCache` for ``batch`` sequences over a
        private :class:`PagePool` holding ``capacity`` positions per row.

        ``capacity`` bounds the cached positions per row (default: the
        model's ``max_seq_len``).
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        capacity = self._check_capacity(capacity)
        page_size = 8
        pool = self.make_page_pool(batch * -(-capacity // page_size),
                                   page_size)
        return PagedKVCache.empty(pool, batch, capacity)

    def make_page_pool(self, num_pages: int, page_size: int = 8) -> PagePool:
        """A :class:`PagePool` sized for this model's K/V geometry."""
        cfg = self.config
        return PagePool(n_layers=cfg.n_layers, n_heads=cfg.n_heads,
                        d_head=cfg.d_model // cfg.n_heads,
                        num_pages=num_pages, page_size=page_size)

    def init_paged_cache(self, batch: int, pool: PagePool,
                         capacity: int | None = None) -> PagedKVCache:
        """An empty :class:`PagedKVCache` for ``batch`` sequences over a
        shared pool (same capacity rules as :meth:`init_cache`)."""
        cfg = self.config
        if batch < 0:
            raise ValueError("batch must be >= 0")
        capacity = self._check_capacity(capacity)
        dh = cfg.d_model // cfg.n_heads
        got = (pool.n_layers, pool.k.shape[2], pool.k.shape[4])
        if got != (cfg.n_layers, cfg.n_heads, dh):
            raise ValueError(
                f"page pool geometry {got} does not match the model's "
                f"(layers, heads, d_head) = {(cfg.n_layers, cfg.n_heads, dh)}")
        return PagedKVCache.empty(pool, batch, capacity)

    def _attention_step(self, x: np.ndarray, layer: int, cache,
                        plan, write_rows: np.ndarray, write_cols: np.ndarray,
                        kv_len: int, mask: np.ndarray, matmul=None) -> np.ndarray:
        """Attention for new positions only, against all cached positions.

        ``x`` is the layer-norm output for the new positions ``(b, t_new,
        d)``; the freshly computed K/V of the valid ``(row, col)`` pairs are
        scattered into ``cache`` at the pre-validated page slots of
        ``plan``, then every query attends the first ``kv_len`` cached
        positions under ``mask`` ``(b, t_new, kv_len)`` (True = blocked).
        """
        cfg = self.config
        p = self.params
        prefix = f"layer{layer}.attn."
        b, t, d = x.shape
        h, dh = cfg.n_heads, d // cfg.n_heads
        mm = matmul or (lambda name, inp, w: inp @ w.T)

        q = mm(prefix + "wq", x, p[prefix + "wq"])
        k = mm(prefix + "wk", x, p[prefix + "wk"])
        v = mm(prefix + "wv", x, p[prefix + "wv"])

        # Position-major head split (b, t, h, dh) for the cache scatter; only
        # the valid (row, col) pairs are written, so slots belonging to other
        # (future) positions of short rows are never clobbered.
        kh_t = k.reshape(b, t, h, dh)
        vh_t = v.reshape(b, t, h, dh)
        cache.scatter(layer, plan, kh_t[write_rows, write_cols],
                      vh_t[write_rows, write_cols])

        qh = q.reshape(b, t, h, dh).transpose(0, 2, 1, 3)      # (b, h, t, dh)
        keys, vals = cache.attention_view(layer, kv_len)       # (b, h, kv, dh)
        scores = qh @ keys.transpose(0, 1, 3, 2) / np.sqrt(dh)
        scores = np.where(mask[:, None, :, :], -1e30, scores)
        attn = softmax(scores, axis=-1)
        ctx = attn @ vals                                      # (b, h, t, dh)
        ctx_merged = ctx.transpose(0, 2, 1, 3).reshape(b, t, d)
        return mm(prefix + "wo", ctx_merged, p[prefix + "wo"])

    def step(self, tokens: np.ndarray, cache, matmul=None,
             num_valid: np.ndarray | None = None) -> np.ndarray:
        """Incremental forward: run only the new position(s) against a cache.

        Parameters
        ----------
        tokens:
            ``(batch, t_new)`` new token ids.  With an empty cache and the
            whole prompt as ``tokens`` this is a *prefill* (equal to
            :meth:`forward` to ``DECODE_ATOL``); with ``t_new == 1`` it is
            one decode iteration.
        cache:
            A :class:`PagedKVCache` from :meth:`init_cache` or
            :meth:`init_paged_cache`; K/V of the valid new positions are
            appended in place and ``cache.lengths`` advances by each row's
            valid count.  The cache may start with nonzero lengths from
            prefix-mapped pages, in which case ``tokens`` holds only each
            row's unshared suffix.
        matmul:
            Optional weight-GEMM hook, exactly as in :meth:`forward`.
        num_valid:
            Per-row count of valid leading tokens (``(batch,)``), enabling
            one stacked pass over a *ragged* right-padded batch.  Rows are
            independent: logits at a row's padded positions are garbage and
            must be ignored (take row ``r``'s last logits at column
            ``num_valid[r] - 1``).  Default: all ``t_new`` tokens valid.

        Returns
        -------
        ``(batch, t_new, vocab)`` logits for the new positions.
        """
        cfg = self.config
        p = self.params
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise ValueError("tokens must have shape (batch, new_positions)")
        b, t_new = tokens.shape
        if t_new < 1:
            raise ValueError("step needs at least one new position")
        if b != cache.batch:
            raise ValueError(f"batch {b} != cache batch {cache.batch}")
        lengths = np.asarray(cache.lengths, dtype=np.int64)
        if num_valid is None:
            valid = np.full(b, t_new, dtype=np.int64)
        else:
            valid = np.asarray(num_valid, dtype=np.int64)
            if valid.shape != (b,):
                raise ValueError(f"num_valid must have shape ({b},)")
            if (valid < 1).any() or (valid > t_new).any():
                raise ValueError("num_valid entries must be in [1, t_new]")
        end = lengths + valid
        overflow = np.nonzero(end > cache.capacity)[0]
        if overflow.size:
            raise CacheOverflowError(overflow, cache.capacity)
        mm = matmul or (lambda name, inp, w: inp @ w.T)

        positions = lengths[:, None] + np.arange(t_new)[None, :]  # (b, t_new)
        # Padded columns of short rows may index past the table; clip them —
        # their K/V are never written and their logits are discarded.
        pos_idx = np.minimum(positions, cfg.max_seq_len - 1)
        x = p["tok_emb"][tokens] + p["pos_emb"][pos_idx]

        # Valid (row, col) scatter targets, shared by every layer (for a
        # paged cache, plan_append also allocates the tail pages up front,
        # atomically — an OutOfPagesError here leaves the cache untouched).
        valid_mask = np.arange(t_new)[None, :] < valid[:, None]   # (b, t_new)
        write_rows, write_cols = np.nonzero(valid_mask)
        write_pos = positions[write_rows, write_cols]
        plan = cache.plan_append(write_rows, write_pos,
                                 tokens[write_rows, write_cols])
        kv_len = int(min(lengths.max() + t_new, cache.capacity))
        # Query j of row r sees cached positions p <= lengths[r] + j: its own
        # prefix plus the new tokens up to and including itself (causal).
        mask = np.arange(kv_len)[None, None, :] > positions[:, :, None]

        for layer in range(cfg.n_layers):
            prefix = f"layer{layer}."
            ln1_out, _ = _layer_norm_forward(x, p[prefix + "ln1.gamma"],
                                             p[prefix + "ln1.beta"])
            attn_out = self._attention_step(ln1_out, layer, cache, plan,
                                            write_rows, write_cols, kv_len,
                                            mask, matmul=mm)
            x1 = x + attn_out
            ln2_out, _ = _layer_norm_forward(x1, p[prefix + "ln2.gamma"],
                                             p[prefix + "ln2.beta"])
            h_pre = mm(prefix + "mlp.w1", ln2_out, p[prefix + "mlp.w1"]) \
                + p[prefix + "mlp.b1"]
            h_act = np.maximum(h_pre, 0.0)
            mlp_out = mm(prefix + "mlp.w2", h_act, p[prefix + "mlp.w2"]) \
                + p[prefix + "mlp.b2"]
            x = x1 + mlp_out

        lnf_out, _ = _layer_norm_forward(x, p["ln_f.gamma"], p["ln_f.beta"])
        logits = mm("lm_head.weight", lnf_out, p["lm_head.weight"])
        cache.commit_append(plan)
        cache.lengths = end
        return logits

    # -------------------------------------------------------------- backward
    def backward(self, dlogits: np.ndarray, caches) -> dict[str, np.ndarray]:
        """Backprop from the logits gradient; returns gradients for all params."""
        cfg = self.config
        p = self.params
        grads: dict[str, np.ndarray] = {name: np.zeros_like(value)
                                        for name, value in p.items()}

        # LM head
        dlnf_out, dw_head, _ = _linear_backward(dlogits, (caches["lnf_out"], p["lm_head.weight"]))
        grads["lm_head.weight"] += dw_head
        dx, dgamma, dbeta = _layer_norm_backward(dlnf_out, caches["ln_f"])
        grads["ln_f.gamma"] += dgamma
        grads["ln_f.beta"] += dbeta

        for layer in reversed(range(cfg.n_layers)):
            prefix = f"layer{layer}."
            c = caches["layers"][layer]

            # MLP branch
            dmlp_out = dx
            dh_act, dw2, db2 = _linear_backward(dmlp_out, c["lin2"])
            grads[prefix + "mlp.w2"] += dw2
            grads[prefix + "mlp.b2"] += db2
            dh_pre = dh_act * (c["h_pre"] > 0.0)
            dln2_out, dw1, db1 = _linear_backward(dh_pre, c["lin1"])
            grads[prefix + "mlp.w1"] += dw1
            grads[prefix + "mlp.b1"] += db1
            dx1, dgamma2, dbeta2 = _layer_norm_backward(dln2_out, c["ln2"])
            grads[prefix + "ln2.gamma"] += dgamma2
            grads[prefix + "ln2.beta"] += dbeta2
            dx1 = dx1 + dx  # residual around the MLP

            # attention branch
            dattn_out = dx1
            dln1_out, attn_grads = self._attention_backward(dattn_out, layer, c["attn"])
            for name, g in attn_grads.items():
                grads[name] += g
            dx_in, dgamma1, dbeta1 = _layer_norm_backward(dln1_out, c["ln1"])
            grads[prefix + "ln1.gamma"] += dgamma1
            grads[prefix + "ln1.beta"] += dbeta1
            dx = dx_in + dx1  # residual around the attention

        # embeddings
        tokens = caches["tokens"]
        b, t = tokens.shape
        np.add.at(grads["tok_emb"], tokens.reshape(-1), dx.reshape(b * t, -1))
        grads["pos_emb"][:t] += dx.sum(axis=0)
        return grads

    # -------------------------------------------------------------- loss API
    def loss(self, tokens: np.ndarray, targets: np.ndarray,
             matmul=None) -> tuple[float, dict[str, np.ndarray]]:
        """Compute the mean cross-entropy loss and parameter gradients."""
        logits, caches = self.forward(tokens, matmul=matmul)
        loss_value, dlogits = cross_entropy(logits, np.asarray(targets, dtype=np.int64))
        grads = self.backward(dlogits, caches)
        return loss_value, grads

    def evaluate_loss(self, tokens: np.ndarray, targets: np.ndarray, matmul=None) -> float:
        """Forward-only mean cross-entropy (used by the perplexity evaluation)."""
        logits, _ = self.forward(tokens, matmul=matmul)
        loss_value, _ = cross_entropy(logits, np.asarray(targets, dtype=np.int64))
        return loss_value
