"""Decode throughput: continuous-batching KV-cached generation vs naive
per-token re-prefill.

The incremental-decoding claim, measured: N concurrent generation requests
through :meth:`~repro.serve.server.InferenceServer.submit_generate`
(one shared KV cache, one stacked single-position decode step per
iteration, admission between iterations) must beat the naive baseline that
re-runs a full forward over the growing sequence for every emitted token of
every request — O(T²) attention and a full tile-plan execution per token —
through the *same* sharded pool.  The recorded floor is conservative
(measured ~8× on the development machine at 8 requests × 16 tokens).

Run with ``-s`` to see the latency/throughput rows; deselect all benchmarks
with ``-m "not bench"``.
"""

import asyncio
import time

import numpy as np
import pytest

from benchmarks.conftest import record_bench, run_once
from repro.core.mpu import MPUConfig
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import TransformerConfig, TransformerLM
from repro.serve import BatchPolicy, InferenceServer

# Continuous-batching decode must beat naive per-token re-prefill by this
# factor (BENCH trajectory: decode speedup floor).
SPEEDUP_FLOOR = 3.0
NUM_REQUESTS = 8
PROMPT_LEN = 8
NEW_TOKENS = 16
VOCAB = 101
ROUNDS = 3


def _build_server() -> InferenceServer:
    model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=32,
                                            d_model=32, n_heads=4, n_layers=2,
                                            d_ff=64, seed=5))
    qlm = QuantizedLM.build(model,
                            QuantizationRecipe(method="bcq", bits=2,
                                               group_size=32),
                            engine="figlut-f")
    return InferenceServer(qlm, num_shards=2,
                           policy=BatchPolicy(max_batch=8, max_wait_us=200),
                           mpu_config=MPUConfig(pe_rows=4, pe_cols=2,
                                                mu=4, k=4),
                           decode_max_active=NUM_REQUESTS)


def _naive_reprefill(server: InferenceServer, prompt: np.ndarray) -> np.ndarray:
    """Greedy decoding the pre-KV-cache way: one full forward per token."""
    seq = np.asarray(prompt, dtype=np.int64)
    out = []
    for _ in range(NEW_TOKENS):
        logits = server.run_solo(seq)
        token = int(np.argmax(logits[-1]))
        out.append(token)
        seq = np.append(seq, token)
    return np.asarray(out, dtype=np.int64)


def _round(server: InferenceServer, rng: np.random.Generator) -> tuple[float, float]:
    """Time both legs once on a fresh prompt set; returns ``(naive_s,
    batched_s)``.  Fresh prompts keep the prefix cache from serving a
    later round's prefill out of an earlier one's pages."""
    requests = [rng.integers(0, VOCAB, size=PROMPT_LEN)
                for _ in range(NUM_REQUESTS)]

    t0 = time.perf_counter()
    naive = [_naive_reprefill(server, tokens) for tokens in requests]
    naive_s = time.perf_counter() - t0

    async def fire():
        return await asyncio.gather(
            *[server.submit_generate(t, NEW_TOKENS) for t in requests])

    t0 = time.perf_counter()
    results = asyncio.run(fire())
    batched_s = time.perf_counter() - t0

    # Same tokens, three ways: naive re-prefill, solo KV-cached decode, and
    # continuous-batching decode.
    for result, want, tokens in zip(results, naive, requests, strict=True):
        np.testing.assert_array_equal(result.tokens, want)
        np.testing.assert_array_equal(
            result.tokens, server.generate_solo(tokens, NEW_TOKENS).tokens)
    return naive_s, batched_s


def _drive() -> dict:
    server = _build_server()
    rng = np.random.default_rng(5)
    # One untimed round warms both legs (pool threads, page pool, first-call
    # paths); a cold first round alone read well under the steady ratio on a
    # 2-vCPU host.  Each leg then keeps its best of ROUNDS timed rounds.
    _round(server, rng)
    timings = [_round(server, rng) for _ in range(ROUNDS)]
    asyncio.run(server.aclose())
    naive_s = min(naive for naive, _ in timings)
    batched_s = min(batched for _, batched in timings)

    metrics = server.decode_metrics
    total_tokens = NUM_REQUESTS * NEW_TOKENS
    return {
        "naive_s": naive_s,
        "batched_s": batched_s,
        "speedup": naive_s / batched_s,
        "iterations": metrics.iterations,
        "mean_active": metrics.mean_active,
        "p50_ms": metrics.token_latency.percentile(50) * 1e3,
        "p99_ms": metrics.token_latency.percentile(99) * 1e3,
        "tokens_per_s": total_tokens / batched_s,
    }


def _decode_step_drive() -> dict:
    """Batch-1 autoregressive decode step time through the compiled executor.

    The latency-critical serving shape: one sequence, one new token per
    iteration, so every layer GEMM runs at batch 1 and per-call overhead —
    not arithmetic — dominates.
    """
    model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=256,
                                            d_model=128, n_heads=4, n_layers=2,
                                            d_ff=256, seed=7))
    qlm = QuantizedLM.build(model,
                            QuantizationRecipe(method="bcq", bits=2,
                                               group_size=32),
                            engine="figlut-f")
    cfg = MPUConfig(pe_rows=4, pe_cols=2, mu=4, k=4)
    rng = np.random.default_rng(7)
    prompt = rng.integers(0, VOCAB, size=PROMPT_LEN)
    steps, rounds = 20, 3

    best_ms, tokens = np.inf, []
    for _ in range(rounds):  # best-of-rounds damps machine noise
        logits, cache, _ = qlm.prefill(prompt, mpu_config=cfg)
        token = np.array([[int(np.argmax(logits[0, -1]))]])
        qlm.decode_step(token, cache, mpu_config=cfg)  # warm
        round_tokens = []
        t0 = time.perf_counter()
        for _ in range(steps):
            logits, _ = qlm.decode_step(token, cache, mpu_config=cfg)
            token = np.array([[int(np.argmax(logits[0, -1]))]])
            round_tokens.append(int(token[0, 0]))
        best_ms = min(best_ms, (time.perf_counter() - t0) / steps * 1e3)
        tokens.append(round_tokens)
    return {"step_ms": best_ms, "tokens": tokens}


@pytest.mark.bench
def test_compiled_decode_step_latency(benchmark):
    data = run_once(benchmark, _decode_step_drive)
    print()
    print("batch-1 decode step — d_model 128, 2 layers, bits 2 "
          "(best of 3×20 steps)")
    print(f"  compiled executor : {data['step_ms']:6.2f} ms/step")
    # An absolute row with no floor: milliseconds move with the host.
    record_bench("decode_throughput::compiled_step_ms", "ms_per_step",
                 data["step_ms"], unit="ms")
    # Same cache contents every round: the emitted tokens never change.
    assert all(t == data["tokens"][0] for t in data["tokens"])


@pytest.mark.bench
def test_continuous_batching_decode_beats_reprefill(benchmark):
    data = run_once(benchmark, _drive)
    print()
    print(f"decode throughput — {NUM_REQUESTS} requests × {NEW_TOKENS} new "
          f"tokens (prompt {PROMPT_LEN}), 2 shards, best of {ROUNDS} warm rounds")
    print(f"  naive re-prefill    : {data['naive_s'] * 1e3:8.1f} ms")
    print(f"  continuous batching : {data['batched_s'] * 1e3:8.1f} ms   "
          f"({data['iterations']} iterations, "
          f"mean active {data['mean_active']:.1f})")
    print(f"  speedup             : {data['speedup']:8.2f}x   "
          f"(floor {SPEEDUP_FLOOR}x)")
    print(f"  per-token latency   : p50 {data['p50_ms']:.1f} ms   "
          f"p99 {data['p99_ms']:.1f} ms")
    print(f"  throughput          : {data['tokens_per_s']:8.0f} tokens/s")
    record_bench("decode_throughput::continuous_batching_speedup", "speedup_x",
                 data["speedup"], floor=SPEEDUP_FLOOR)
    assert data["mean_active"] > 1.0, "decode iterations were not batched"
    assert data["speedup"] > SPEEDUP_FLOOR
