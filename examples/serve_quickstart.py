#!/usr/bin/env python
"""Serve quickstart: pooled, batched scoring over a quantized LM.

Builds a small transformer, quantizes its weight GEMMs to BCQ, and stands up
an :class:`repro.serve.InferenceServer`: every layer's compiled program is
pinned once in a worker pool (large GEMMs split their activation columns
across the workers), and the server's one scheduler admits concurrent
scoring requests between iterations, prefilling the admitted prompts of
each length in one shared, unpadded engine pass.  An async client fires
N concurrent requests, then the script prints per-request p50/p99
latency, tokens/s, the batching
profile, and the plan-exact modelled MPU counters — and verifies that a
batched request's logits are bit-identical to a solo run.

This covers the one-shot logits path; for multi-token generation through
the same scheduler (shared KV cache, per-token latency), see
``examples/generate_quickstart.py``.

Run:  python examples/serve_quickstart.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.core.mpu import MPUConfig
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import TransformerConfig, TransformerLM
from repro.serve import BatchPolicy, InferenceServer

NUM_REQUESTS = 24
VOCAB = 211


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
    )


async def client(server: InferenceServer, requests: list[np.ndarray]):
    """N concurrent clients: submit, await logits, pick the next token."""

    async def one(tokens: np.ndarray):
        result = await server.submit(tokens)
        next_token = int(np.argmax(result.logits[-1]))
        return result, next_token

    return await asyncio.gather(*[one(tokens) for tokens in requests])


def main() -> None:
    rng = np.random.default_rng(0)
    server = build_server()
    requests = [rng.integers(0, VOCAB, size=int(rng.integers(8, 17)))
                for _ in range(NUM_REQUESTS)]

    print("=" * 72)
    print(f"1. Fire {NUM_REQUESTS} concurrent requests at the pooled server")
    print("=" * 72)
    solo_reference = server.run_solo(requests[0])  # also warms the workers
    t0 = time.perf_counter()
    results = asyncio.run(client(server, requests))
    elapsed = time.perf_counter() - t0
    asyncio.run(server.aclose())

    metrics = server.metrics
    print(f"requests      : {metrics.requests}  ({metrics.tokens} tokens "
          f"in {elapsed * 1e3:.1f} ms)")
    sizes = [r.batch_size for r, _ in results]
    print(f"batching      : a request shared its prefill pass with "
          f"{np.mean(sizes) - 1:.1f} others on average (max {max(sizes) - 1})")
    latency = metrics.request_latency
    print(f"latency       : p50 {latency.percentile(50) * 1e3:.1f} ms   "
          f"p99 {latency.percentile(99) * 1e3:.1f} ms")
    print(f"throughput    : {metrics.tokens_per_second:,.0f} tokens/s")

    print()
    print("=" * 72)
    print("2. Batched == solo, bit for bit (per-column LUTs and offset sums)")
    print("=" * 72)
    result0 = next(r for r, _ in results if r.request_id == 0)
    exact = np.array_equal(result0.logits, solo_reference)
    print(f"request 0 rode a batch of {result0.batch_size}; "
          f"logits identical to its solo run: {exact}")

    print()
    print("=" * 72)
    print("3. Plan-exact modelled counters, aggregated across calls")
    print("=" * 72)
    stats = metrics.mpu_stats
    print(f"modelled cycles : {stats.cycles:,}")
    print(f"LUT reads (RAC) : {stats.lut_reads:,}")
    print(f"LUT generations : {stats.lut_generations:,}")
    print(f"weight tiles    : {stats.tiles:,}")


if __name__ == "__main__":
    main()
