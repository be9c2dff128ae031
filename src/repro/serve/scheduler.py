"""Continuous (iteration-level) batching: the one queue of all serving.

Re-running a full prefill per emitted token would pay O(T²) attention and
re-execute every tile plan per token.  :class:`DecodeScheduler` uses the
scheduling discipline real LLM inference engines use (Orca-style
iteration-level batching):

* a pool of *in-flight sequences* shares one **paged KV cache** — a
  :class:`~repro.models.transformer.PagePool` of fixed-size K/V pages with
  per-sequence page tables (:class:`~repro.models.transformer.
  PagedKVCache`);
* each scheduler iteration runs **one stacked single-position decode step**
  over every in-flight sequence — the engine work per iteration is one
  plan execution at flat batch = #active, independent of how long the
  cached sequences already are;
* new requests are admitted *between* iterations: any prompt prefix
  already resident as registered pages is mapped copy-on-write (its
  prefill is **skipped**), the suffixes prefill in unpadded same-shape
  groups (equal cached length, equal new tokens: one stacked pass each,
  so no padded column is ever computed or billed), and the new page
  tables splice onto the shared cache in O(rows added) — no K/V copies;
* sequences leave as soon as they emit their EOS token or exhaust their
  token budget; departure releases their page references in O(pages of
  the departing rows) — no survivor-gather compaction copies;
* admission reserves worst-case page growth for every in-flight sequence,
  so a request that would exhaust the pool mid-decode is simply not admitted
  (out-of-pages backpressure: the request waits, ``backpressure_events``
  counts the stalls).

Every weight GEMM goes through a pluggable ``gemm(name, flat) -> y`` —
the pool dispatch of a server, or the model's own memoised
:meth:`~repro.models.quantized_model.QuantizedLM.prepared_gemm`.  Costs are
counted per pass: :class:`DecodeMetrics` adds each pass's
:meth:`~repro.models.quantized_model.QuantizedLM.model_mpu_stats` at its
column count, so its counters are plan-exact for the passes that ran.

The scheduler core is synchronous and thread-safe (``submit`` may be called
from any thread; ``step`` is driven by one driver at a time) —
:class:`~repro.serve.server.InferenceServer` steps it back to back on one
driver thread, and tests/benchmarks drive it inline with
:meth:`DecodeScheduler.run_until_idle`.  It is the only greedy decode loop:
:meth:`~repro.models.quantized_model.QuantizedLM.generate` is a one-request
inline run over a private pool, so solo and served tokens come from the
same code.

Scoring rides the same queue.  A request submitted with
``max_new_tokens=0`` is *prefill-only*: it waits in the same FIFO and is
prefilled through the same group passes.  Scoring requests of one length
form one group (no prefix mapping: every position's logits are wanted),
get their ``(seq, vocab)`` logits attached, settle with
``finish_reason="length"`` and release their pages in the same
iteration — they never join the decode cache, so they do not count
against ``max_active`` and only free pages gate them.  Their passes
run between decode iterations, and :class:`DecodeMetrics` leaves them out.

A failure settles only the requests it concerns: a decode step's cache
overflow fails the rows that overflow, a prefill pass that raises (a
cache overflow included) fails its own group, an oversized request fails
at admission, and an ``on_token`` hook that raises fails its own request
and is dropped.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.mpu import MPUConfig, MPURunStats
from repro.models.quantized_model import QuantizedLM
from repro.models.transformer import (
    _PAGE_ROOT_KEY,
    CacheOverflowError,
    OutOfPagesError,
    PagedKVCache,
    PagePool,
)
from repro.telemetry import Histogram, get_telemetry

__all__ = ["CacheConfig", "DecodeMetrics", "DecodeScheduler", "SequenceState"]


@dataclass(frozen=True)
class CacheConfig:
    """Paged KV-cache knobs for a :class:`DecodeScheduler`.

    Attributes
    ----------
    page_size:
        Tokens per K/V page.  Smaller pages share finer-grained prefixes
        and waste fewer tail slots; larger pages mean fewer gather indices
        per step.
    num_pages:
        Physical pages in the pool.  Default ``None`` sizes it as
        ``max_active × ceil(max_seq_len / page_size)`` — enough that the
        reservation-based admission check never blocks below the
        ``max_active`` cap.
    capacity:
        Per-row cached-position bound (default: the model's
        ``max_seq_len``).  Lowering it below what admitted requests need
        turns the overflow into a per-request
        :class:`~repro.models.transformer.CacheOverflowError` failure.
    prefix_sharing:
        Map registered page chains for new prompts (default).  ``False``
        keeps paging (O(pages) membership, page reuse) but always
        prefills prompts in full — the benchmark baseline.
    """

    page_size: int = 8
    num_pages: int | None = None
    capacity: int | None = None
    prefix_sharing: bool = True

    def __post_init__(self) -> None:
        for name in ("page_size", "num_pages", "capacity"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def pool_pages(self, max_active: int, max_seq_len: int) -> int:
        if self.num_pages is not None:
            return self.num_pages
        return max_active * (-(-max_seq_len // self.page_size))


@dataclass
class DecodeMetrics:
    """Aggregate accounting of a scheduler's decode traffic.

    ``token_latency`` records the wall-clock duration of each decode
    iteration — every in-flight sequence receives exactly one token per
    iteration, so these *are* the per-token latencies.
    ``request_latency`` records the submit-to-last-token time of each
    request the server awaited.  Both are the registry's
    :class:`~repro.telemetry.metrics.Histogram` (``.percentile(q)``,
    ``.count()``), so binding telemetry exports these very objects.
    ``mpu_stats`` sums the plan-exact counters of every prefill and decode
    pass the scheduler actually dispatched for generation requests.
    Scoring requests are not counted here: every field, ``busy_s`` and
    ``mpu_stats`` included, accounts generation traffic only.
    """

    requests: int = 0
    finished: int = 0
    admissions: int = 0
    iterations: int = 0
    prefill_tokens: int = 0
    decode_tokens: int = 0
    generated_tokens: int = 0
    prefix_hit_requests: int = 0
    prefix_hit_tokens: int = 0
    backpressure_events: int = 0
    busy_s: float = 0.0
    token_latency: Histogram = field(default_factory=lambda: Histogram(
        "decode_token_latency_seconds",
        help="stacked decode-step latency (one token per in-flight "
             "sequence per step)"))
    request_latency: Histogram = field(default_factory=lambda: Histogram(
        "decode_request_latency_seconds",
        help="submit-to-last-token latency of served generation requests"))
    mpu_stats: MPURunStats = field(default_factory=MPURunStats)

    @property
    def tokens_per_second(self) -> float:
        return self.generated_tokens / self.busy_s if self.busy_s > 0 else 0.0

    @property
    def mean_active(self) -> float:
        """Mean in-flight sequences per decode iteration."""
        return self.decode_tokens / self.iterations if self.iterations else 0.0

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prompt tokens served from shared pages instead of
        prefill compute (``prefill_tokens`` counts *computed* tokens only)."""
        total = self.prefix_hit_tokens + self.prefill_tokens
        return self.prefix_hit_tokens / total if total else 0.0


@dataclass
class SequenceState:
    """One request as the scheduler tracks it: a generation, or a scoring
    request (``max_new_tokens == 0``) whose prompt logits land in
    ``logits``.

    ``finish_reason`` settles to ``"eos"``, ``"length"`` (also every
    scored request), ``"cancelled"`` (the client abandoned the request),
    or ``"error"`` (the request failed or its ``on_token`` hook raised —
    ``error`` then carries the exception).
    """

    request_id: int
    prompt: np.ndarray
    max_new_tokens: int
    eos_token: int | None = None
    on_token: callable | None = None   # on_token(seq, token|None, done)
    generated: list[int] = field(default_factory=list)
    finish_reason: str | None = None
    error: BaseException | None = None
    shared_tokens: int = 0               # prompt tokens served from shared pages
    logits: np.ndarray | None = None     # scoring: (seq, vocab) prompt logits
    prefill_rows: int = 0                # scoring: rows of its prefill pass
    _max_pages: int = 0                  # worst-case page span (reservation)
    _submitted_ns: int = 0               # perf_counter_ns at submit (telemetry)

    @property
    def done(self) -> bool:
        return self.finish_reason is not None

    @property
    def scoring(self) -> bool:
        return self.max_new_tokens == 0

    @property
    def tokens(self) -> np.ndarray:
        return np.asarray(self.generated, dtype=np.int64)

    def _score(self, logits: np.ndarray, rows: int) -> None:
        """Attach a scoring request's prompt logits and settle it."""
        self.logits = logits
        self.prefill_rows = rows
        if not self.done:  # cancelled mid-iteration: keep the settled reason
            self.finish_reason = "length"
        self._notify(None)

    def _emit(self, token: int) -> None:
        """Record one generated token and settle the finish state."""
        self.generated.append(token)
        if self.done:
            pass  # cancelled mid-iteration: keep the settled reason
        elif self.eos_token is not None and token == self.eos_token:
            self.finish_reason = "eos"
        elif len(self.generated) >= self.max_new_tokens:
            self.finish_reason = "length"
        self._notify(token)

    def _fail(self, error: BaseException) -> None:
        """Settle as failed and tell the hook (``token=None, done=True``)."""
        self.finish_reason = "error"
        self.error = error
        self._notify(None)

    def _notify(self, token: int | None) -> None:
        """Fire ``on_token``; the ``done=True`` call is the hook's last.

        A hook that raises fails only this request: it settles as
        ``"error"`` with the exception attached (an earlier error is kept)
        and the hook is never called again, so the driver and the other
        requests of the batch carry on.
        """
        hook = self.on_token
        if hook is None:
            return
        if self.done:
            self.on_token = None
        try:
            hook(self, token, self.done)
        except Exception as exc:
            self.on_token = None
            self.finish_reason = "error"
            if self.error is None:
                self.error = exc


class DecodeScheduler:
    """Iteration-level scheduler over stacked KV-cached decode steps.

    Parameters
    ----------
    qlm:
        The quantized model; its transformer runs the cache-aware ``step``
        passes, its :meth:`~repro.models.quantized_model.QuantizedLM.
        prepared_gemm` is the default engine dispatch.
    gemm:
        Optional ``gemm(name, flat) -> y`` override — e.g. an
        :class:`~repro.serve.server.InferenceServer`'s pool dispatch,
        which is bit-exact against the default (inline or fanned out over
        columns), so served generations match solo ones token for token.
    max_active:
        In-flight sequence cap: waiting generation requests are admitted
        between iterations only while the pool holds fewer than this many
        (scoring requests never join the pool and do not count).
    mpu_config:
        The geometry of ``gemm`` and of the counters.
    cache_config:
        Paged KV-cache knobs (:class:`CacheConfig`); default: prefix
        sharing and a pool sized so admission never blocks below
        ``max_active``.
    debug_audit:
        Run the :mod:`repro.analysis.pool_audit` invariant auditor after
        every :meth:`step` (cheap: O(pages + table entries), no K/V data
        touched).  Defaults to on when ``REPRO_VERIFY`` is set in the
        environment, off otherwise.
    """

    def __init__(self, qlm: QuantizedLM, gemm=None, max_active: int = 8,
                 mpu_config: MPUConfig | None = None,
                 cache_config: CacheConfig | None = None,
                 debug_audit: bool | None = None) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.qlm = qlm
        self.model = qlm.model
        self.max_active = max_active
        self.mpu_config = mpu_config
        self._gemm = gemm or qlm.prepared_gemm(mpu_config)
        self.cache_config = cache_config or CacheConfig()
        max_seq_len = self.model.config.max_seq_len
        capacity = self.cache_config.capacity
        if capacity is not None and capacity > max_seq_len:
            raise ValueError(f"cache capacity {capacity} exceeds the "
                             f"model's max_seq_len {max_seq_len}")
        self.pool: PagePool = self.model.make_page_pool(
            self.cache_config.pool_pages(max_active, max_seq_len),
            self.cache_config.page_size)
        self.metrics = DecodeMetrics()
        self._waiting: deque[SequenceState] = deque()
        self._active: list[SequenceState] = []
        self._cache: PagedKVCache | None = None
        self._lock = threading.Lock()
        self._next_id = 0
        if debug_audit is None:
            debug_audit = bool(os.environ.get("REPRO_VERIFY"))
        self.debug_audit = debug_audit

    # -- request admission -------------------------------------------------
    def submit(self, prompt: np.ndarray, max_new_tokens: int,
               eos_token: int | None = None,
               on_token=None) -> SequenceState:
        """Queue one request (thread-safe); admitted at the next iteration
        boundary.  ``max_new_tokens=0`` queues a scoring request, which
        settles with its prompt logits in ``seq.logits``.
        ``on_token(seq, token, done)`` fires from the decode thread as
        tokens are produced (streaming hook)."""
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        # A scoring request's prompt must fit as a one-token generation's.
        arr = self.qlm.check_generation_request(prompt, max(max_new_tokens, 1))
        with self._lock:
            seq = SequenceState(request_id=self._next_id, prompt=arr,
                                max_new_tokens=max_new_tokens,
                                eos_token=eos_token, on_token=on_token,
                                _submitted_ns=time.perf_counter_ns())
            self._next_id += 1
            self._waiting.append(seq)
            if not seq.scoring:
                self.metrics.requests += 1
        return seq

    @property
    def has_work(self) -> bool:
        with self._lock:
            return bool(self._waiting or self._active)

    @property
    def num_active(self) -> int:
        with self._lock:
            return len(self._active)

    @property
    def num_waiting(self) -> int:
        with self._lock:
            return len(self._waiting)

    def cancel(self, seq: SequenceState) -> None:
        """Abandon a request (thread-safe, idempotent).

        A waiting request is dropped immediately; an in-flight one is
        compacted out of the cache at the next iteration boundary, so it
        stops consuming a pool slot and a decode-step row.  Either way its
        ``on_token`` hook gets one last ``token=None, done=True`` call
        (unless the current iteration already delivered ``done=True``).
        """
        with self._lock:
            if seq.done:
                return
            seq.finish_reason = "cancelled"
            try:
                self._waiting.remove(seq)
            except ValueError:
                return  # already admitted; step() compacts it out
        seq._notify(None)

    def abort(self, error: BaseException) -> list[SequenceState]:
        """Fail every waiting and in-flight request (fatal driver error).

        Each sequence settles with ``finish_reason="error"`` and the
        exception attached, and its ``on_token`` hook fires once more with
        ``token=None, done=True`` so async front-ends can propagate the
        failure instead of hanging their clients.  The scheduler is left
        empty and usable for new requests, and every request is failed
        even when releasing the cache raises.
        """
        failed: list[SequenceState] = []
        try:
            with self._lock:
                failed = list(self._waiting) + self._active
                self._waiting.clear()
                self._active = []
                cache, self._cache = self._cache, None
                if cache is not None:
                    cache.release()
        finally:
            for seq in failed:
                seq._fail(error)
        return failed

    # -- the iteration loop ------------------------------------------------
    def _compact(self) -> None:
        """Drop finished/cancelled sequences from the pool, keeping
        active-list order and cache-row order aligned, then give each
        departed request its final callback (a no-op for all but requests
        cancelled in flight).

        O(pages of the departing rows): their page references are released
        (shared pages survive while any holder lives, and freed pages keep
        their registration for prefix revival).
        """
        with self._lock:
            dead = [i for i, seq in enumerate(self._active) if seq.done]
            if not dead:
                return
            departed = [self._active[i] for i in dead]
            self._active = [seq for seq in self._active if not seq.done]
            self._cache.remove_rows(dead)
        for seq in departed:
            seq._notify(None)

    def _outstanding_growth_locked(self) -> int:
        """Pages the in-flight set may still allocate before every sequence
        hits its token budget — the reservation the admission check holds
        free so a decode step can never run out of pages."""
        held = self._cache.page_tables if self._active else []
        return sum(seq._max_pages - len(held[i])
                   for i, seq in enumerate(self._active))

    def _admit(self) -> tuple[list[SequenceState], float]:
        """Admit waiting requests and prefill them; returns those that
        finished and the seconds the scoring passes took.

        The queue is read in FIFO order.  A generation prompt is admitted
        while the pool holds fewer than ``max_active`` requests; it first
        maps its longest registered page-chain prefix (those tokens **skip
        the prefill pass**).  A scoring prompt maps nothing, since every
        position's logits are wanted, and does not count against
        ``max_active``.  A generation is admitted only while the pool can
        cover its worst-case page span plus every in-flight sequence's
        remaining growth; a scoring prompt's pages are back in the pool
        before the decode step, so it may borrow the pages held for that
        growth.  A request that does not fit waits: out-of-pages
        backpressure instead of a mid-decode failure.  A generation held
        back (at the cap or for pages) holds back the generations behind it
        but not the scoring requests, whose pages return before the next
        admission; a scoring request held back for pages ends the round.

        The admitted requests then prefill in groups of one shape —
        ``(scoring, cached length, new tokens)`` — one unpadded pass per
        group (:meth:`_prefill_group`), shortest first: by new tokens,
        ascending, groups of equal width in the queue order of their first
        request.  A short pass then never waits behind a long one.
        """
        pool = self.pool
        sharing = self.cache_config.prefix_sharing
        tel = get_telemetry()
        t_adm = time.perf_counter_ns() if tel.enabled else 0
        admitted: list[SequenceState] = []
        # (scoring, cached length, new tokens) -> [(seq, pages, prefix key)]
        groups: dict[tuple[bool, int, int], list] = {}
        oversized: list[tuple[SequenceState, int]] = []
        with self._lock:
            slots = self.max_active - len(self._active)
            growth = self._outstanding_growth_locked()
            reserved = scored = 0  # pages of admitted generations / scoring
            gens_held = False
            waiting, self._waiting = self._waiting, deque()
            while waiting:
                seq = waiting.popleft()
                if not seq.scoring and (gens_held or slots == 0):
                    gens_held = True
                    self._waiting.append(seq)
                    continue
                max_pages = pool.pages_for(
                    seq.prompt.size + max(seq.max_new_tokens, 1) - 1)
                if max_pages > pool.num_pages:
                    oversized.append((seq, max_pages))
                    continue
                if sharing and not seq.scoring:
                    # Cap the match below the full prompt: the last prompt
                    # token must run through the model to produce the first
                    # logit.
                    pages, key, matched = pool.map_prefix(seq.prompt,
                                                          seq.prompt.size - 1)
                else:
                    pages, key, matched = [], _PAGE_ROOT_KEY, 0
                need = max_pages - len(pages)
                if seq.scoring:
                    needed = reserved + max(growth, scored + need)
                else:
                    needed = reserved + need + max(growth, scored)
                if pool.num_free < needed:
                    pool.release(pages)
                    self._waiting.append(seq)
                    if tel.enabled:
                        tel.instant("scheduler.backpressure",
                                    request_id=seq.request_id,
                                    free_pages=pool.num_free,
                                    needed_pages=needed)
                    if seq.scoring:
                        break
                    self.metrics.backpressure_events += 1
                    gens_held = True
                    continue
                seq._max_pages = max_pages
                seq.shared_tokens = matched
                if seq.scoring:
                    scored += need
                else:
                    reserved += need
                    slots -= 1
                admitted.append(seq)
                shape = (seq.scoring, matched, seq.prompt.size - matched)
                groups.setdefault(shape, []).append((seq, pages, key))
            self._waiting.extend(waiting)
        finished: list[SequenceState] = []
        for seq, max_pages in oversized:
            seq._fail(OutOfPagesError(
                f"request {seq.request_id} spans {max_pages} pages but "
                f"the pool only holds {pool.num_pages}; grow num_pages "
                f"or page_size"))
            finished.append(seq)
        if not admitted:
            return finished, 0.0
        if tel.enabled:
            now = time.perf_counter_ns()
            for seq in admitted:
                tel.trace.record("request.queue", seq._submitted_ns, now,
                                 request_id=seq.request_id)

        if any(not seq.scoring for seq in admitted):
            with self._lock:
                self.metrics.admissions += 1
        score_s = 0.0
        for (scoring, _, _), group in sorted(groups.items(),
                                             key=lambda item: item[0][2]):
            t_pass = time.perf_counter()
            finished += self._prefill_group(group)
            if scoring:
                score_s += time.perf_counter() - t_pass
        if tel.enabled:
            tel.trace.record(
                "scheduler.admission", t_adm, time.perf_counter_ns(),
                request_ids=[s.request_id for s in admitted],
                prefill_tokens=sum(s.prompt.size - s.shared_tokens
                                   for s in admitted),
                prefix_hit_tokens=sum(s.shared_tokens for s in admitted))
        return finished, score_s

    def _prefill_group(self, group: list[tuple[SequenceState, list[int], int]]
                       ) -> list[SequenceState]:
        """Prefill one group of same-shape requests as one unpadded pass;
        returns the requests that finished.

        Each entry is ``(seq, pages, prefix_key)``: the prefix pages
        ``map_prefix`` mapped, whose references pass to the group's cache.
        Every row has the same cached length and the same number of new
        tokens, so each row's logits equal its solo prefill bit for bit,
        and the rows either all overflow the cache or none do.  A scoring
        group settles with its ``(seq, vocab)`` logits and releases its
        pages; a generation group emits each row's first token from its
        last logit, and the rows still running join the decode cache.  A
        pass that raises fails only this group's requests.
        """
        tel = get_telemetry()
        seqs = [seq for seq, _, _ in group]
        rows, shared = len(seqs), seqs[0].shared_tokens
        width = seqs[0].prompt.size - shared
        cache = self.model.init_paged_cache(
            0, self.pool, capacity=self.cache_config.capacity)
        for _, pages, key in group:
            cache.add_row(pages, key, shared)
        t_pf = time.perf_counter_ns() if tel.enabled else 0
        try:
            logits, cache, stats = self.qlm.prefill(
                np.stack([seq.prompt[shared:] for seq in seqs]),
                num_valid=np.full(rows, width), cache=cache,
                mpu_config=self.mpu_config, gemm=self._gemm)
        except Exception as err:
            cache.release()
            for seq in seqs:
                seq._fail(err)
            return seqs
        if tel.enabled:
            tel.trace.record("scheduler.prefill", t_pf, time.perf_counter_ns(),
                             request_ids=[s.request_id for s in seqs],
                             prefill_tokens=rows * width,
                             prefix_hit_tokens=rows * shared)
        if seqs[0].scoring:
            cache.release()
            for i, seq in enumerate(seqs):
                seq._score(logits[i], rows)
            return seqs

        with self._lock:
            self.metrics.mpu_stats = self.metrics.mpu_stats.merge(stats)
            self.metrics.prefill_tokens += rows * width
            self.metrics.prefix_hit_tokens += rows * shared
            self.metrics.prefix_hit_requests += rows if shared else 0
            self.metrics.generated_tokens += rows
        for i, seq in enumerate(seqs):
            seq._emit(int(np.argmax(logits[i, -1])))
        dead = [i for i, seq in enumerate(seqs) if seq.done]
        if dead:
            cache.remove_rows(dead)
        with self._lock:
            if self._cache is None:
                self._cache = cache
            else:
                self._cache.extend(cache)
            self._active.extend(seq for seq in seqs if not seq.done)
        return [seqs[i] for i in dead]

    def audit_cache(self) -> None:
        """Assert the paged pool's bookkeeping invariants.

        Cheap debug hook (O(pages + page-table entries), never touches K/V
        data): refcount conservation against the live cache's page tables,
        registry bijection, free-list consistency.  Raises
        :class:`repro.analysis.pool_audit.PoolAuditError` naming every
        violated invariant.
        """
        from repro.analysis.pool_audit import assert_pool_consistent
        with self._lock:
            caches = [self._cache] if self._cache is not None else []
            assert_pool_consistent(self.pool, caches)

    def step(self) -> list[SequenceState]:
        """One scheduler iteration: admit, then one stacked decode step.

        Returns the sequences that finished during this iteration.  Safe to
        call when idle (returns ``[]``).  With ``debug_audit`` (or
        ``REPRO_VERIFY=1``) the pool auditor runs after the iteration.
        """
        tel = get_telemetry()
        t0 = time.perf_counter()
        finished, score_s = self._admit()
        t_admit = time.perf_counter()

        # Compact cancelled sequences out before the stacked pass so they
        # stop occupying a cache row and a decode column.
        self._compact()
        with self._lock:
            active = list(self._active)
        if active:
            last = np.array([[seq.generated[-1]] for seq in active],
                            dtype=np.int64)
            it0 = time.perf_counter()
            it0_ns = time.perf_counter_ns() if tel.enabled else 0
            try:
                logits, stats = self.qlm.decode_step(
                    last, self._cache, mpu_config=self.mpu_config,
                    gemm=self._gemm)
            except CacheOverflowError as err:
                # The overflow check runs before any cache write, so only
                # the named rows fail; survivors decode next iteration.
                for r in err.rows:
                    active[r]._fail(err)
                    finished.append(active[r])
                self._compact()
                self._account(t0, score_s, finished)
                if tel.enabled:
                    self._record_departures(tel, finished)
                if self.debug_audit:
                    self.audit_cache()
                return finished
            step_s = time.perf_counter() - it0
            if tel.enabled:
                tel.trace.record("decode.iteration", it0_ns,
                                 time.perf_counter_ns(),
                                 request_ids=[s.request_id for s in active])
                if tel.profiling:
                    tel.profile.record("scheduler.decode", step_s)
            self.metrics.token_latency.observe(step_s)
            with self._lock:
                self.metrics.mpu_stats = self.metrics.mpu_stats.merge(stats)
                self.metrics.iterations += 1
                self.metrics.decode_tokens += len(active)
                self.metrics.generated_tokens += len(active)
            for i, seq in enumerate(active):
                seq._emit(int(np.argmax(logits[i, 0])))
                if seq.done:
                    finished.append(seq)
            self._compact()

        self._account(t0, score_s, finished)
        if tel.enabled:
            if tel.profiling:
                tel.profile.record("scheduler.admit", t_admit - t0)
            self._record_departures(tel, finished)
        if self.debug_audit:
            self.audit_cache()
        return finished

    def _account(self, t0: float, score_s: float,
                 finished: list[SequenceState]) -> None:
        """Add an iteration's generation work to the metrics: its time less
        the scoring passes, and the generation requests it settled."""
        with self._lock:
            self.metrics.busy_s += time.perf_counter() - t0 - score_s
            self.metrics.finished += sum(not seq.scoring for seq in finished)

    def _record_departures(self, tel, finished: list[SequenceState]) -> None:
        """Close each finished request's lifecycle span (telemetry only)."""
        if not finished:
            return
        now = time.perf_counter_ns()
        for seq in finished:
            tel.trace.record("request.lifecycle", seq._submitted_ns, now,
                             request_id=seq.request_id,
                             finish_reason=seq.finish_reason,
                             generated_tokens=len(seq.generated),
                             shared_tokens=seq.shared_tokens)
            tel.instant("request.departure", request_id=seq.request_id,
                        finish_reason=seq.finish_reason)

    def run_until_idle(self) -> list[SequenceState]:
        """Drive :meth:`step` until no work remains (inline driver)."""
        finished: list[SequenceState] = []
        while self.has_work:
            finished.extend(self.step())
        return finished
