#!/usr/bin/env python
"""Generate quickstart: continuous-batching KV-cached decoding over a
quantized LM.

Builds a small transformer, quantizes its weight GEMMs to BCQ, and stands
up an :class:`repro.serve.InferenceServer`; N concurrent clients then each
ask for a multi-token greedy generation.  The server's decode scheduler
keeps every in-flight sequence in one shared KV cache, runs one stacked
single-position decode step per iteration through the worker pool,
and admits newly arrived requests between iterations — so each emitted
token costs one plan execution at flat batch = #active instead of a full
re-prefill of the growing sequence.

The script prints per-token p50/p99 latency, decode tokens/s, the batching
profile, and the plan-exact modelled MPU counters — and verifies that a
request's tokens are identical to a solo KV-cached run *and* to naive
greedy decoding that re-runs the full forward per token.  A final section
serves a shared system-prompt workload through the scheduler's **paged KV
cache** twice — prefix sharing on vs off — and prints the prefix-cache hit
rate and time-to-first-token of each run (see ``docs/serving.md``).

Every GEMM here runs the **compiled executor**: each layer's tile plan is
lowered once into a flat :class:`repro.core.program.CompiledProgram`
(preconcatenated LUT-key buffers + a short instruction list) that the
workers pin and replay — bit-identical to the scalar
``MatrixProcessingUnit.gemm_reference`` walk of the same plan, but
without per-segment Python dispatch on the batch-1 decode path. See
``docs/compilation.md``.

Run:  python examples/generate_quickstart.py
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path

import numpy as np

from repro.core.mpu import MPUConfig
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import TransformerConfig, TransformerLM
from repro.serve import BatchPolicy, CacheConfig, DecodeScheduler, InferenceServer
from repro.telemetry import Telemetry, set_telemetry

NUM_REQUESTS = 12
NEW_TOKENS = 12
VOCAB = 211

# REPRO_TELEMETRY=1 turns on the observability layer for the whole script
# (request/executor tracing + metrics + per-opcode profiling) and exports a
# Chrome trace and a Prometheus snapshot into REPRO_TELEMETRY_DIR (default:
# the current directory).  See docs/observability.md.
TELEMETRY_ON = os.environ.get("REPRO_TELEMETRY", "") not in ("", "0")


def build_server() -> InferenceServer:
    model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=32,
                                            d_model=32, n_heads=4, n_layers=2,
                                            d_ff=64, seed=0))
    recipe = QuantizationRecipe(method="bcq", bits=2, group_size=32)
    qlm = QuantizedLM.build(model, recipe, engine="figlut-f")
    return InferenceServer(
        qlm,
        num_shards=2,                    # workers for column fan-out of large GEMMs
        policy=BatchPolicy(max_wait_us=500),
        mpu_config=MPUConfig(pe_rows=4, pe_cols=2, mu=4, k=4),
        decode_max_active=8,                           # in-flight sequences
    )


async def clients(server: InferenceServer, prompts: list[np.ndarray]):
    """N concurrent generation clients; half arrive late (mid-decode)."""

    async def one(tokens: np.ndarray, delay_s: float):
        await asyncio.sleep(delay_s)
        return await server.submit_generate(tokens, NEW_TOKENS)

    return await asyncio.gather(*[
        one(tokens, 0.0 if i % 2 == 0 else 0.02)
        for i, tokens in enumerate(prompts)])


def main() -> None:
    tel = None
    if TELEMETRY_ON:
        tel = Telemetry(enabled=True, profiling=True)
        set_telemetry(tel)  # InferenceServer auto-binds its metrics
    rng = np.random.default_rng(0)
    server = build_server()
    prompts = [rng.integers(0, VOCAB, size=int(rng.integers(6, 17)))
               for _ in range(NUM_REQUESTS)]

    print("=" * 72)
    print(f"1. {NUM_REQUESTS} concurrent generation requests "
          f"({NEW_TOKENS} tokens each, half arriving mid-decode)")
    print("=" * 72)
    server.run_solo(prompts[0])  # warm the pinned workers
    t0 = time.perf_counter()
    results = asyncio.run(clients(server, prompts))
    elapsed = time.perf_counter() - t0

    metrics = server.decode_metrics
    print(f"requests        : {metrics.requests}  "
          f"({metrics.generated_tokens} tokens in {elapsed * 1e3:.1f} ms)")
    print(f"decode loop     : {metrics.iterations} iterations, "
          f"{metrics.admissions} admission waves, "
          f"mean active {metrics.mean_active:.1f}")
    token, request = metrics.token_latency, metrics.request_latency
    print(f"token latency   : p50 {token.percentile(50) * 1e3:.1f} ms   "
          f"p99 {token.percentile(99) * 1e3:.1f} ms")
    print(f"request latency : p50 {request.percentile(50) * 1e3:.1f} ms   "
          f"p99 {request.percentile(99) * 1e3:.1f} ms")
    print(f"throughput      : {metrics.tokens_per_second:,.0f} tokens/s "
          f"(decode-loop busy time)")

    print()
    print("=" * 72)
    print("2. Continuous batching == solo KV-cached == naive re-prefill")
    print("=" * 72)
    first = results[0]
    solo = server.generate_solo(prompts[0], NEW_TOKENS)
    seq = prompts[0].copy()
    naive = []
    for _ in range(NEW_TOKENS):
        token = int(np.argmax(server.run_solo(seq)[-1]))
        naive.append(token)
        seq = np.append(seq, token)
    print(f"request 0 tokens      : {first.tokens.tolist()}")
    print(f"solo KV-cached match  : {np.array_equal(first.tokens, solo.tokens)}")
    print(f"naive re-prefill match: {np.array_equal(first.tokens, np.asarray(naive))}")

    print()
    print("=" * 72)
    print("3. Plan-exact decode cost (per stacked step, not per re-prefill)")
    print("=" * 72)
    stats = metrics.mpu_stats
    print(f"modelled cycles : {stats.cycles:,}")
    print(f"LUT reads (RAC) : {stats.lut_reads:,}")
    print(f"LUT generations : {stats.lut_generations:,}")
    print(f"solo comparison : prefill({len(prompts[0])} tokens) + "
          f"{len(solo.tokens) - 1} steps × batch-1 passes = "
          f"{solo.mpu_stats.cycles:,} cycles for request 0 alone")

    print()
    print("=" * 72)
    print("4. Shared system prompt: paged KV cache + prefix sharing")
    print("=" * 72)
    system_prompt = rng.integers(0, VOCAB, size=20)
    shared_prompts = [np.concatenate([system_prompt,
                                      rng.integers(0, VOCAB, size=4)])
                      for _ in range(6)]

    def serve_stream(prefix_sharing: bool):
        """Requests arriving one at a time (the shape where reuse happens)."""
        sched = DecodeScheduler(server.qlm,
                                mpu_config=MPUConfig(pe_rows=4, pe_cols=2,
                                                     mu=4, k=4),
                                cache_config=CacheConfig(
                                    page_size=4,
                                    prefix_sharing=prefix_sharing))
        ttfts, token_lists = [], []
        for prompt in shared_prompts:
            t0 = time.perf_counter()
            arrivals: list[float] = []
            seq = sched.submit(prompt, 4,
                               on_token=lambda s, t, done: arrivals.append(
                                   time.perf_counter()) if not arrivals else None)
            sched.run_until_idle()
            ttfts.append((arrivals[0] - t0) * 1e3)
            token_lists.append(seq.tokens)
        return ttfts, token_lists, sched.metrics, sched.pool.counters

    ttft_off, tokens_off, m_off, pages_off = serve_stream(prefix_sharing=False)
    ttft_on, tokens_on, m_on, pages_on = serve_stream(prefix_sharing=True)
    same = all(np.array_equal(a, b) for a, b in zip(tokens_on, tokens_off, strict=True))
    print(f"workload          : {len(shared_prompts)} requests = "
          f"{len(system_prompt)}-token system prompt + 4-token question")
    print(f"prefix hit rate   : off {m_off.prefix_hit_rate:.0%}   "
          f"on {m_on.prefix_hit_rate:.0%}  "
          f"({m_on.prefix_hit_tokens} prompt tokens never re-prefilled)")
    print(f"page-level hits   : off {pages_off.prefix_hit_rate:.0%}   "
          f"on {pages_on.prefix_hit_rate:.0%}  "
          f"({pages_on.lookup_hit_pages} whole pages reused from the pool)")
    print(f"prefill computed  : off {m_off.prefill_tokens} tokens   "
          f"on {m_on.prefill_tokens} tokens")
    print(f"TTFT (median)     : off {float(np.median(ttft_off[1:])):.2f} ms   "
          f"on {float(np.median(ttft_on[1:])):.2f} ms   "
          f"({float(np.median(ttft_off[1:]) / np.median(ttft_on[1:])):.1f}x "
          f"faster for requests 2..N)")
    print(f"tokens identical  : {same}")

    asyncio.run(server.aclose())

    if tel is not None:
        out_dir = Path(os.environ.get("REPRO_TELEMETRY_DIR", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        trace = tel.export_chrome(out_dir / "telemetry_trace.json")
        prom = out_dir / "telemetry_metrics.prom"
        prom.write_text(tel.render_prometheus())
        print()
        print("=" * 72)
        print("5. Telemetry exports (REPRO_TELEMETRY=1)")
        print("=" * 72)
        print(f"chrome trace      : {trace} ({len(tel.trace)} events — open "
              f"in Perfetto / chrome://tracing)")
        print(f"prometheus        : {prom}")


if __name__ == "__main__":
    main()
