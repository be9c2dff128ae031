"""Async-batched inference serving over a quantized LM.

:class:`InferenceServer` is the top of the serving stack: requests (token
sequences) are coalesced by an :class:`~repro.serve.batching.AsyncBatcher`
into micro-batches, each micro-batch runs one transformer forward pass
whose weight GEMMs are dispatched — layer by layer — through a
:class:`~repro.serve.workers.ShardedMPUPool` (one pinned program per
layer; small GEMMs run inline, large ones fan their activation columns out
across the workers), and the per-request logits fan back out with
per-request latency recorded.

The pipeline ``submit → batch → per-layer pooled GEMM → de-batch`` is
bit-transparent: the MPU program is batch-column-independent, the pool's
column chunks are concatenated unchanged, and the transformer's
elementwise/attention ops are per-sequence, so the logits a request
receives are identical whether it rode a micro-batch or ran alone
(:meth:`InferenceServer.run_solo`), and identical to a single-process run
of the model's prepared programs.

Accounting reuses the analytic plan counters: every pooled GEMM returns its
plan-exact :class:`~repro.core.mpu.MPURunStats` for the whole call, so the
server's aggregate modelled cycles equal the ``QuantizedLM.model_mpu_stats``
totals for the batches it actually ran, alongside the measured wall-clock
latency percentiles and throughput.

Multi-token generation does **not** go through the one-shot pipeline:
:meth:`InferenceServer.submit_generate` (and the streaming
:meth:`InferenceServer.stream_generate`) hand requests to a
:class:`~repro.serve.scheduler.DecodeScheduler` that keeps a pool of
in-flight sequences over one shared paged KV cache, admits new requests
between decode iterations, and drives one stacked single-position decode
step per iteration through the same pool — so each emitted token costs one
plan execution at flat batch = #active instead of a full re-prefill.
:meth:`InferenceServer.generate_solo` runs one request through a private
scheduler of the same kind, so a request's served tokens are
bit-identical to its solo run.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.mpu import MPUConfig, MPURunStats
from repro.models.quantized_model import GenerationResult, QuantizedLM
from repro.serve.batching import AsyncBatcher, BatchPolicy
from repro.serve.scheduler import CacheConfig, DecodeScheduler
from repro.serve.workers import ShardedMPUPool
from repro.telemetry import Histogram, Telemetry, get_telemetry
from repro.telemetry.adapters import bind_server

__all__ = ["InferenceResult", "GeneratedSequence", "ServerMetrics",
           "InferenceServer"]


@dataclass(frozen=True)
class InferenceResult:
    """One served request: its logits and how the batch treated it."""

    request_id: int
    logits: np.ndarray          # (seq, vocab)
    latency_s: float
    batch_size: int             # requests sharing the forward pass


@dataclass(frozen=True)
class GeneratedSequence:
    """One served generation request (continuous-batching decode path).

    ``request_id`` comes from the decode scheduler's id space (independent
    of the one-shot :class:`InferenceResult` ids); ``latency_s`` is the
    submit-to-last-token wall time the request observed.
    """

    request_id: int
    prompt: np.ndarray
    tokens: np.ndarray          # generated tokens, prompt excluded
    finish_reason: str          # "eos" or "length"
    latency_s: float


@dataclass
class ServerMetrics:
    """Aggregate accounting across every request a server handled.

    Counters are exact over the server's lifetime.  ``request_latency``
    is the registry's :class:`~repro.telemetry.metrics.Histogram` of
    one-shot submit latencies (``.percentile(q)``, ``.count()``): exact up
    to its reservoir size, a seeded uniform sample beyond it, at O(1)
    memory.
    """

    requests: int = 0
    batches: int = 0
    tokens: int = 0
    request_latency: Histogram = field(default_factory=lambda: Histogram(
        "server_request_latency_seconds",
        help="one-shot submit latency"))
    mpu_stats: MPURunStats = field(default_factory=MPURunStats)
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def elapsed_s(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return max(self.finished_at - self.started_at, 0.0)

    @property
    def tokens_per_second(self) -> float:
        elapsed = self.elapsed_s
        return self.tokens / elapsed if elapsed > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


class InferenceServer:
    """Async-batched, pooled inference over a :class:`QuantizedLM`.

    Parameters
    ----------
    qlm:
        The quantized model; its prepared programs are pinned in the pool,
        its transformer runs the forward pass.
    num_shards, mpu_config:
        Forwarded to :class:`~repro.serve.workers.ShardedMPUPool`, which
        pins the model's own memoised
        :meth:`~repro.models.quantized_model.QuantizedLM.prepared_weights`
        programs, so the served path and any standalone ``qlm`` decode
        share one compiled copy.  The pool runs them with float64 LUT
        entries and accumulators on uncast activations (see "Numerics" in
        ``docs/serving.md``).
    policy:
        Micro-batching policy (:class:`~repro.serve.batching.BatchPolicy`).
        ``max_wait_us`` doubles as the decode scheduler's admission window:
        generation requests submitted within it join the first iteration.
    decode_max_active:
        In-flight sequence cap of the continuous-batching decode scheduler.
    cache_config:
        Paged KV-cache knobs for the decode scheduler
        (:class:`~repro.serve.scheduler.CacheConfig`): cross-request
        prefix sharing by default; ``page_size`` / ``num_pages`` size the
        page pool.
    """

    def __init__(self, qlm: QuantizedLM, num_shards: int = 2,
                 policy: BatchPolicy | None = None,
                 mpu_config: MPUConfig | None = None,
                 decode_max_active: int = 8,
                 cache_config: CacheConfig | None = None) -> None:
        self.qlm = qlm
        self.pool = ShardedMPUPool(qlm.prepared_weights(mpu_config),
                                   num_shards=num_shards,
                                   mpu_config=mpu_config)
        self.metrics = ServerMetrics()
        self.batcher = AsyncBatcher(self._run_batch, policy)
        self.scheduler = DecodeScheduler(qlm, gemm=self._metered_gemm,
                                         max_active=decode_max_active,
                                         cache_config=cache_config)
        self._hook = qlm.matmul_via(self._pool_gemm)
        self._lock = threading.Lock()
        self._next_id = 0
        self._pump_task: asyncio.Task | None = None
        if get_telemetry().enabled:
            self.bind_telemetry()

    def bind_telemetry(self, telemetry: Telemetry | None = None) -> None:
        """Export this stack's live metrics through a telemetry registry.

        Registers the server's and the decode scheduler's latency
        histograms themselves, and binds callback gauges over every
        counter field of the serving structs plus queue depth,
        active/waiting requests, page-pool occupancy, prefix hit rates and
        the pool's inline/fan-out call counts, into ``telemetry.metrics``
        — the active handle by default.  Runs automatically at
        construction when telemetry is already enabled; call it manually
        after enabling a handle for an existing server.  Idempotent: re-binding replaces
        every family in place, so a registry exports the server bound
        last.  Private schedulers (:meth:`generate_solo`) are never bound.
        """
        tel = telemetry if telemetry is not None else get_telemetry()
        bind_server(tel.metrics, self)

    # -- the pooled forward path ------------------------------------------
    def _metered_gemm(self, name: str,
                      flat: np.ndarray) -> tuple[np.ndarray, MPURunStats]:
        """Pool dispatch that also feeds the server-wide counters."""
        y, stats = self.pool.gemm(name, flat)
        with self._lock:
            self.metrics.mpu_stats = self.metrics.mpu_stats.merge(stats)
        return y, stats

    def _pool_gemm(self, name: str, flat: np.ndarray) -> np.ndarray:
        y, _ = self._metered_gemm(name, flat)
        return y

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Logits ``(batch, seq, vocab)`` with every weight GEMM pooled."""
        return self.qlm.logits(tokens, matmul=self._hook)

    # -- batching ----------------------------------------------------------
    def _run_batch(self, items: list[np.ndarray]) -> list[tuple[np.ndarray, int]]:
        """One micro-batch: stack same-length requests, forward, de-batch.

        Requests of different lengths fall into separate stacks (the
        substrate transformer has no padding/attention-mask path), each
        still amortising one forward per length.
        """
        results: list = [None] * len(items)
        by_length: dict[int, list[int]] = {}
        for i, tokens in enumerate(items):
            by_length.setdefault(len(tokens), []).append(i)
        total_tokens = 0
        for _, indices in sorted(by_length.items()):
            stacked = np.stack([items[i] for i in indices])
            logits = self.forward(stacked)
            total_tokens += stacked.size
            for row, i in enumerate(indices):
                results[i] = (logits[row], len(indices))
        with self._lock:
            self.metrics.batches += len(by_length)
            self.metrics.tokens += total_tokens
        return results

    @staticmethod
    def _check_request(tokens) -> np.ndarray:
        arr = np.asarray(tokens, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a request is a non-empty 1-D token sequence")
        return arr

    async def submit(self, tokens: np.ndarray) -> InferenceResult:
        """Serve one request through the batcher; await its logits."""
        arr = self._check_request(tokens)
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            if self.metrics.started_at is None:
                self.metrics.started_at = time.perf_counter()
        tel = get_telemetry()
        t0 = time.perf_counter()
        t0_ns = time.perf_counter_ns() if tel.enabled else 0
        logits, batch_size = await self.batcher.submit(arr)
        latency = time.perf_counter() - t0
        if tel.enabled:
            tel.trace.record("server.submit", t0_ns, time.perf_counter_ns(),
                             request_id=request_id, batch_size=batch_size,
                             tokens=arr.size)
        self.metrics.request_latency.observe(latency)
        with self._lock:
            self.metrics.requests += 1
            self.metrics.finished_at = time.perf_counter()
        return InferenceResult(request_id=request_id, logits=logits,
                               latency_s=latency, batch_size=batch_size)

    # -- continuous-batching generation ------------------------------------
    @property
    def decode_metrics(self):
        """The decode scheduler's :class:`~repro.serve.scheduler.
        DecodeMetrics`: per-token and per-request latency, decode
        tokens/s, and the plan-exact counters of every prefill/decode pass
        it dispatched."""
        return self.scheduler.metrics

    def _ensure_pump(self) -> None:
        """Start (or restart) the scheduler pump on the running loop.

        The pump first sleeps the batching policy's admission window so
        concurrently-submitted requests share the first iteration, then
        drives one scheduler iteration at a time in the executor — between
        iterations the event loop runs, which is exactly when new requests
        enqueue and get admitted (iteration-level batching).
        """
        with self._lock:
            if self._pump_task is None or self._pump_task.done():
                self._pump_task = asyncio.get_running_loop().create_task(
                    self._pump())

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        await asyncio.sleep(self.batcher.policy.max_wait_us / 1e6)
        try:
            while self.scheduler.has_work:
                await loop.run_in_executor(None, self.scheduler.step)
        except Exception as exc:
            # A fatal driver error (e.g. a dead pool worker) must reach the
            # awaiting clients, not die silently with the pump task.
            self.scheduler.abort(exc)

    async def submit_generate(self, tokens: np.ndarray,
                              max_new_tokens: int = 16,
                              eos_token: int | None = None) -> GeneratedSequence:
        """Generate up to ``max_new_tokens`` greedily; await the full result.

        The request joins the continuous-batching decode pool at the next
        iteration boundary and leaves on EOS or budget exhaustion.  Its
        token sequence is bit-identical to a solo :meth:`generate_solo` run
        of the same prompt — row-independent stacked decode over the same
        pool.  Cancelling the awaiting task abandons the request
        (it is compacted out of the decode pool at the next iteration);
        a fatal decode error is re-raised here.
        """
        arr = self._check_request(tokens)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        tel = get_telemetry()
        t0 = time.perf_counter()
        t0_ns = time.perf_counter_ns() if tel.enabled else 0

        def on_token(seq, token, done):
            if done:
                loop.call_soon_threadsafe(
                    lambda: future.done() or future.set_result(seq))

        seq = self.scheduler.submit(arr, max_new_tokens, eos_token=eos_token,
                                    on_token=on_token)
        self._ensure_pump()
        try:
            finished = await future
        except asyncio.CancelledError:
            self.scheduler.cancel(seq)
            raise
        if finished.error is not None:
            raise finished.error
        latency = time.perf_counter() - t0
        if tel.enabled:
            tel.trace.record("server.submit_generate", t0_ns,
                             time.perf_counter_ns(),
                             request_id=finished.request_id,
                             finish_reason=finished.finish_reason,
                             generated_tokens=len(finished.generated))
        self.scheduler.metrics.request_latency.observe(latency)
        return GeneratedSequence(request_id=finished.request_id, prompt=arr,
                                 tokens=finished.tokens,
                                 finish_reason=finished.finish_reason,
                                 latency_s=latency)

    async def stream_generate(self, tokens: np.ndarray,
                              max_new_tokens: int = 16,
                              eos_token: int | None = None):
        """Async generator yielding tokens as the decode pool emits them.

        Abandoning the iteration (``break`` / generator close) cancels the
        request so it stops occupying a decode-pool slot; a fatal decode
        error is re-raised to the consumer.
        """
        arr = self._check_request(tokens)
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue[tuple[int | None, bool]] = asyncio.Queue()
        tel = get_telemetry()
        t0 = time.perf_counter()
        t0_ns = time.perf_counter_ns() if tel.enabled else 0

        def on_token(seq, token, done):
            item = (None if token is None else int(token), bool(done))
            loop.call_soon_threadsafe(queue.put_nowait, item)

        seq = self.scheduler.submit(arr, max_new_tokens, eos_token=eos_token,
                                    on_token=on_token)
        self._ensure_pump()
        try:
            while True:
                token, done = await queue.get()
                if token is not None:
                    yield token
                if done:
                    break
        finally:
            self.scheduler.cancel(seq)  # no-op if the request finished
        if seq.error is not None:
            raise seq.error
        if tel.enabled:
            tel.trace.record("server.stream_generate", t0_ns,
                             time.perf_counter_ns(),
                             request_id=seq.request_id,
                             finish_reason=seq.finish_reason)
        self.scheduler.metrics.request_latency.observe(
            time.perf_counter() - t0)

    # -- baselines / lifecycle --------------------------------------------
    def run_solo(self, tokens: np.ndarray) -> np.ndarray:
        """One request through the same pool, no batching.

        The sequential baseline the throughput benchmark compares against;
        returns logits ``(seq, vocab)`` bit-identical to what the same
        request receives from :meth:`submit` inside any micro-batch.  Runs
        over the pool's pinned programs, so the standalone path
        re-plans and re-compiles nothing.
        Updates only the modelled GEMM counters, not the request metrics.
        """
        arr = self._check_request(tokens)
        return self.forward(arr[None])[0]

    def generate_solo(self, tokens: np.ndarray, max_new_tokens: int = 16,
                      eos_token: int | None = None) -> GenerationResult:
        """One KV-cached greedy generation through the same pool.

        The sequential baseline for :meth:`submit_generate` — identical
        tokens, no iteration-level batching, same pinned prepared state:
        :meth:`~repro.models.quantized_model.QuantizedLM.generate` runs the
        request alone through a private scheduler.  Updates only the
        modelled GEMM counters, not the decode metrics.
        """
        return self.qlm.generate(np.asarray(tokens, dtype=np.int64),
                                 max_new_tokens, eos_token=eos_token,
                                 gemm=self._metered_gemm)

    async def aclose(self) -> None:
        if self._pump_task is not None and not self._pump_task.done():
            await self._pump_task
        await self.batcher.aclose()
        self.pool.close()

    def close(self) -> None:
        """Synchronous shutdown (pool only; call :meth:`aclose` in a loop)."""
        self.pool.close()

    def __enter__(self) -> InferenceServer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
