"""Pooled inference serving over a quantized LM.

:class:`InferenceServer` is the top of the serving stack.  Every request
joins one :class:`~repro.serve.scheduler.DecodeScheduler` queue, and one
driver thread runs its iterations back to back while there is work; the
event loop only queues requests and delivers results, and it does so
while the next iteration computes:

* :meth:`InferenceServer.submit` scores a prompt.  It is a prefill-only
  scheduler request (``max_new_tokens=0``): admitted from the same FIFO
  as generation requests but never waiting for a generation slot,
  prefilled in one unpadded pass with the other
  admitted scoring prompts of its length, and settled with its ``(seq,
  vocab)`` logits in the same iteration;
* :meth:`InferenceServer.submit_generate` (and the streaming
  :meth:`InferenceServer.stream_generate`) join the pool of in-flight
  sequences over one shared paged KV cache and receive one token per
  stacked single-position decode step.

Every weight GEMM is dispatched — layer by layer — through a
:class:`~repro.serve.workers.ShardedMPUPool` (one pinned program per
layer; small GEMMs run inline, large ones fan their activation columns
out across the workers).  The MPU program is batch-column-independent and
the pool's column chunks are concatenated unchanged, so a request's
output does not depend on what it was batched with: served logits equal
:meth:`InferenceServer.run_solo`'s bit for bit (both run the cache-aware
step prefill, the scoring group without padding), and served tokens equal
:meth:`InferenceServer.generate_solo`'s.

Accounting reuses the analytic plan counters: the pool counts each layer's
completed GEMM calls and columns, and ``ServerMetrics.mpu_stats`` turns
them into plan-exact :class:`~repro.core.mpu.MPURunStats` when read, equal
to the ``QuantizedLM.model_mpu_stats`` totals of the passes that ran.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.mpu import MPUConfig, MPURunStats
from repro.models.quantized_model import GenerationResult, QuantizedLM
from repro.serve.scheduler import CacheConfig, DecodeScheduler, SequenceState
from repro.serve.workers import ShardedMPUPool
from repro.telemetry import Histogram, Telemetry, get_telemetry
from repro.telemetry.adapters import bind_server

__all__ = ["BatchPolicy", "InferenceResult", "GeneratedSequence",
           "ServerMetrics", "InferenceServer"]


@dataclass(frozen=True)
class BatchPolicy:
    """The server driver's admission window.

    Attributes
    ----------
    max_wait_us:
        A driver woken from idle sleeps this long (microseconds) so
        requests submitted together share the first scheduler iteration.
        ``0`` starts at once.  The sleep runs on the driver thread, so
        windows below a millisecond are honoured.
    max_batch:
        Reported with the server's configuration only: the serving path
        does not read it.  Admission is capped by the scheduler's
        ``max_active`` (generations) and by free pages.
    """

    max_batch: int = 8
    max_wait_us: float = 1000.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_us < 0:
            raise ValueError("max_wait_us must be >= 0")


@dataclass(frozen=True)
class InferenceResult:
    """One scored request: its logits and the pass that computed them."""

    request_id: int
    logits: np.ndarray          # (seq, vocab)
    latency_s: float
    batch_size: int             # scoring requests sharing the prefill pass


@dataclass(frozen=True)
class GeneratedSequence:
    """One served generation request (continuous-batching decode path).

    ``request_id`` comes from the scheduler's id space, which scoring
    requests share; ``latency_s`` is the submit-to-last-token wall time the
    request observed.
    """

    request_id: int
    prompt: np.ndarray
    tokens: np.ndarray          # generated tokens, prompt excluded
    finish_reason: str          # "eos" or "length"
    latency_s: float


@dataclass
class ServerMetrics:
    """Aggregate accounting across every request a server handled.

    Counters are exact over the server's lifetime: ``requests`` and
    ``tokens`` count scored requests and their prompt tokens,
    ``mpu_stats`` every GEMM ``pool`` completed (scoring, generation and
    the solo baselines).  ``request_latency`` is the registry's
    :class:`~repro.telemetry.metrics.Histogram` of scoring latencies
    (``.percentile(q)``, ``.count()``): exact up to its reservoir size, a
    seeded uniform sample beyond it, at O(1) memory.
    """

    pool: ShardedMPUPool = field(repr=False, compare=False)
    requests: int = 0
    tokens: int = 0
    request_latency: Histogram = field(default_factory=lambda: Histogram(
        "server_request_latency_seconds",
        help="one-shot submit latency"))
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def mpu_stats(self) -> MPURunStats:
        """The pool's :attr:`ShardedMPUPool.mpu_stats`, read now."""
        return self.pool.mpu_stats

    @property
    def elapsed_s(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return max(self.finished_at - self.started_at, 0.0)

    @property
    def tokens_per_second(self) -> float:
        elapsed = self.elapsed_s
        return self.tokens / elapsed if elapsed > 0 else 0.0


class InferenceServer:
    """Pooled inference over a :class:`QuantizedLM`, one scheduler for all.

    One driver thread runs the scheduler's iterations.  It starts with the
    first request; :meth:`aclose` joins it after serving out the queued
    work, :meth:`close` after failing that work.

    Parameters
    ----------
    qlm:
        The quantized model; its prepared programs are pinned in the pool,
        its transformer runs the cache-aware step passes.
    num_shards, mpu_config:
        Forwarded to :class:`~repro.serve.workers.ShardedMPUPool`, which
        pins the model's own memoised
        :meth:`~repro.models.quantized_model.QuantizedLM.prepared_weights`
        programs, so the served path and any standalone ``qlm`` decode
        share one compiled copy.  The pool runs them with float64 LUT
        entries and accumulators on uncast activations (see "Numerics" in
        ``docs/serving.md``).
    policy:
        The driver's admission window (:class:`BatchPolicy`): requests
        submitted within ``max_wait_us`` of an idle server share the first
        iteration.
    decode_max_active:
        In-flight generation cap of the scheduler.
    cache_config:
        Paged KV-cache knobs for the scheduler
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
        self.policy = policy or BatchPolicy()
        self.metrics = ServerMetrics(pool=self.pool)
        # Looked up per call, so a wrapper later set on ``pool.gemm`` sees
        # every scheduled GEMM.
        self.scheduler = DecodeScheduler(
            qlm, gemm=lambda name, flat: self.pool.gemm(name, flat),
            max_active=decode_max_active, mpu_config=self.pool.mpu.config,
            cache_config=cache_config)
        # Guards the metrics and the driver's state; the driver thread
        # waits on it.
        self._lock = threading.Condition()
        self._driver: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False     # no new requests; the driver exits idle
        self._aborting = False   # close(): fail queued work, do not drain
        if get_telemetry().enabled:
            self.bind_telemetry()

    @property
    def batcher(self) -> InferenceServer:
        """This server, under the name ``bench/run.py`` reads the batch
        policy through (``server.batcher.policy``)."""
        return self

    def bind_telemetry(self, telemetry: Telemetry | None = None) -> None:
        """Export this stack's live metrics through a telemetry registry.

        Registers the server's and the scheduler's latency histograms
        themselves, and binds callback gauges over every counter field of
        the serving structs plus active/waiting requests, page-pool
        occupancy, prefix hit rates and the pool's inline/fan-out call
        counts, into ``telemetry.metrics`` — the active handle by default.
        Runs automatically at construction when telemetry is already
        enabled; call it manually after enabling a handle for an existing
        server.  Idempotent: re-binding replaces every family in place, so
        a registry exports the server bound last.  Private schedulers
        (:meth:`generate_solo`) are never bound.
        """
        tel = telemetry if telemetry is not None else get_telemetry()
        bind_server(tel.metrics, self)

    # -- the pooled GEMM path ---------------------------------------------
    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Logits ``(batch, seq, vocab)`` of equal-length prompts.

        The pass a scoring group runs: one unpadded step prefill, here on a
        private cache, with every weight GEMM pooled.
        """
        batch, seq = np.shape(tokens)
        logits, _, _ = self.qlm.prefill(
            tokens, num_valid=np.full(batch, seq), capacity=seq,
            mpu_config=self.pool.mpu.config, gemm=self.pool.gemm)
        return logits

    # -- the one request queue ---------------------------------------------
    def _enqueue(self, tokens: np.ndarray, max_new_tokens: int,
                 eos_token: int | None, on_token) -> SequenceState:
        """Queue one request and wake the driver thread.

        The driver starts with the first request.  The wake is scheduled
        with ``loop.call_soon``, so an idle driver runs only after every
        request submitted in the same loop turn is queued.  Raises
        ``RuntimeError("pool is closed")`` once the server is closed.
        """
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            seq = self.scheduler.submit(tokens, max_new_tokens,
                                        eos_token=eos_token, on_token=on_token)
            self._loop = loop
            if self._driver is None:
                self._start_driver_locked()
        loop.call_soon(self._wake)
        return seq

    def _start_driver_locked(self) -> None:
        self._driver = threading.Thread(target=self._drive,
                                        name="serve-driver", daemon=True)
        self._driver.start()

    def _wake(self) -> None:
        with self._lock:
            self._lock.notify()

    def _drive(self) -> None:
        """The driver thread: scheduler steps back to back while there is
        work, all on this one thread.

        Woken from idle, it first sleeps the policy's admission window so
        concurrently submitted requests share the first iteration.  After
        a step that settled requests it waits for their clients
        (:meth:`_settle`).  A step that raises fails every queued and
        in-flight request, and the driver keeps serving.  Should the driver
        itself die (``abort`` raising, say), a new one takes over the work
        still queued, or else starts with the next request.
        """
        window = self.policy.max_wait_us / 1e6
        try:
            while self._await_work():
                time.sleep(window)
                while self.scheduler.has_work:
                    if self._aborting:
                        self.scheduler.abort(RuntimeError("pool is closed"))
                        break
                    try:
                        # Looked up per iteration: a wrapper set on the
                        # instance sees every step.
                        finished = self.scheduler.step()
                    except Exception as exc:
                        finished = self.scheduler.abort(exc)
                    if finished:
                        self._settle()
        except BaseException:
            with self._lock:
                self._driver = None
                if self.scheduler.has_work:
                    self._start_driver_locked()
            raise

    def _await_work(self) -> bool:
        """Wait until a request is queued (``True``) or the server is
        closed with no work left (``False``)."""
        with self._lock:
            self._lock.wait_for(
                lambda: self._closed or self.scheduler.has_work)
            return self.scheduler.has_work

    def _settle(self) -> None:
        """Wait two turns of the clients' loop before the next admission.

        A settled request's result is delivered in one turn and its
        awaiting task resumes in the next, so a closed-loop client's next
        request is queued when this settle's own marker, sent through
        ``call_soon_threadsafe(loop.call_soon, ...)``, runs.  The wait also
        ends when the server closes, the loop closes or another loop takes
        over, so ``close()`` called on the loop thread cannot deadlock.
        """
        with self._lock:
            loop = self._loop
        settled = threading.Event()
        try:
            loop.call_soon_threadsafe(loop.call_soon, self._end_settle,
                                      settled)
        except RuntimeError:  # the loop is closed
            return
        with self._lock:
            while not (settled.is_set() or self._closed or loop.is_closed()
                       or loop is not self._loop):
                # A loop closed with the marker still queued sends no
                # notify; the timeout re-checks it.
                self._lock.wait(0.1)

    def _end_settle(self, settled: threading.Event) -> None:
        with self._lock:
            settled.set()
            self._lock.notify()

    async def _settled(self, tokens: np.ndarray, max_new_tokens: int,
                       eos_token: int | None = None) -> SequenceState:
        """Queue one request and await its settlement.

        Cancelling the awaiting task abandons the request; a failure is
        re-raised here.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def on_token(seq, token, done):
            if done:
                loop.call_soon_threadsafe(
                    lambda: future.done() or future.set_result(seq))

        seq = self._enqueue(tokens, max_new_tokens, eos_token, on_token)
        try:
            await future
        except asyncio.CancelledError:
            self.scheduler.cancel(seq)
            raise
        if seq.error is not None:
            raise seq.error
        return seq

    async def submit(self, tokens: np.ndarray) -> InferenceResult:
        """Score one prompt; await its ``(seq, vocab)`` logits.

        A prefill-only scheduler request: it is admitted from the same FIFO
        as generation requests, needing free pages but no generation slot,
        and prefilled with the other admitted scoring
        prompts of its length in one unpadded pass, so its logits equal
        :meth:`run_solo`'s bit for bit.  A failure of that pass is
        re-raised here.
        """
        tel = get_telemetry()
        t0 = time.perf_counter()
        t0_ns = time.perf_counter_ns() if tel.enabled else 0
        with self._lock:
            if self.metrics.started_at is None:
                self.metrics.started_at = t0
        seq = await self._settled(tokens, 0)
        latency = time.perf_counter() - t0
        if tel.enabled:
            tel.trace.record("server.submit", t0_ns, time.perf_counter_ns(),
                             request_id=seq.request_id,
                             batch_size=seq.prefill_rows,
                             tokens=seq.prompt.size)
        self.metrics.request_latency.observe(latency)
        with self._lock:
            self.metrics.requests += 1
            self.metrics.tokens += seq.prompt.size
            self.metrics.finished_at = time.perf_counter()
        return InferenceResult(request_id=seq.request_id, logits=seq.logits,
                               latency_s=latency, batch_size=seq.prefill_rows)

    @property
    def decode_metrics(self):
        """The scheduler's :class:`~repro.serve.scheduler.DecodeMetrics`:
        per-token and per-request latency, decode tokens/s, and the
        plan-exact counters of every prefill/decode pass it dispatched."""
        return self.scheduler.metrics

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
        arr = self.qlm.check_generation_request(tokens, max_new_tokens)
        tel = get_telemetry()
        t0 = time.perf_counter()
        t0_ns = time.perf_counter_ns() if tel.enabled else 0
        finished = await self._settled(arr, max_new_tokens, eos_token)
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
        arr = self.qlm.check_generation_request(tokens, max_new_tokens)
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue[tuple[int | None, bool]] = asyncio.Queue()
        tel = get_telemetry()
        t0 = time.perf_counter()
        t0_ns = time.perf_counter_ns() if tel.enabled else 0

        def on_token(seq, token, done):
            item = (None if token is None else int(token), bool(done))
            loop.call_soon_threadsafe(queue.put_nowait, item)

        seq = self._enqueue(arr, max_new_tokens, eos_token, on_token)
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
        """Score one prompt through the same pool, no queue.

        The sequential baseline for :meth:`submit`: the same unpadded step
        prefill over the pool's pinned programs (nothing re-planned or
        re-compiled), so it returns the ``(seq, vocab)`` logits that
        :meth:`submit` gives the prompt in any scoring group, bit for bit.
        Updates only the modelled GEMM counters, not the request metrics.
        """
        # The prompt alone must fit, as for a one-token generation.
        arr = self.qlm.check_generation_request(tokens, 1)
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
                                 mpu_config=self.pool.mpu.config,
                                 gemm=self.pool.gemm)

    def _stop(self, abort: bool) -> None:
        """Refuse new requests, then join the driver once it has drained
        the queued work (or, with ``abort``, failed it)."""
        with self._lock:
            self._closed = True
            self._aborting = self._aborting or abort
            self._lock.notify()
            driver = self._driver
        while driver is not None and driver is not threading.current_thread():
            driver.join()
            with self._lock:  # a driver that died may have handed over
                driver = None if self._driver is driver else self._driver

    async def aclose(self) -> None:
        """Serve every queued and in-flight request, stop the driver, then
        close the pool.  The driver is joined off the loop, which keeps
        delivering tokens meanwhile."""
        await asyncio.to_thread(self._stop, False)
        self.pool.close()

    def close(self) -> None:
        """Synchronous shutdown: stop the driver, then close the pool.

        Queued and in-flight requests fail with ``RuntimeError("pool is
        closed")`` after the step running now, as every later request
        does; :meth:`aclose` serves them out instead.
        """
        self._stop(True)
        self.pool.close()

    def __enter__(self) -> InferenceServer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
