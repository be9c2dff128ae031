"""Serving throughput: batched pooled execution vs sequential requests.

The scale-out claim of the ``repro.serve`` subsystem, measured: N concurrent
single-sequence requests fired at an :class:`~repro.serve.server.
InferenceServer` (one scheduler prefilling the admitted same-length
prompts in one unpadded pass, over an MPU worker pool with one pinned
program per layer) must beat the same N requests executed
sequentially through the identical pool — LUT tables and per-segment dispatch
are amortised across every request sharing an engine pass.  The recorded
floor is conservative (measured ~3× on the development machine at batch 8).
The two legs are timed in interleaved paired rounds and the pinned speedup
is the median of the per-round ratios.

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

# Batched sharded throughput must beat sequential execution by this factor
# for >= 8 concurrent requests (BENCH trajectory: serve speedup floor).
SPEEDUP_FLOOR = 1.3
NUM_REQUESTS = 16
SEQ_LEN = 12
VOCAB = 101
# Paired rounds of both legs.  A single round's ratio read 1.10-3.07x on a
# loaded 2-vCPU host: a burst of CPU steal or a neighbour's BLAS threads
# lands on one leg.  Each round times the two legs back to back under the
# same ambient load, and the median over rounds ignores the bursts that
# hit a few of them: with 15 rounds one run in ten still read 1.02x; with
# 30, ten runs read 1.49-2.14x.
ROUNDS = 30


def _build_server() -> tuple[InferenceServer, QuantizedLM]:
    model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=24,
                                            d_model=32, n_heads=4, n_layers=2,
                                            d_ff=64, seed=5))
    qlm = QuantizedLM.build(model,
                            QuantizationRecipe(method="bcq", bits=2,
                                               group_size=32),
                            engine="figlut-f")
    server = InferenceServer(qlm, num_shards=2,
                             policy=BatchPolicy(max_batch=8, max_wait_us=200),
                             mpu_config=MPUConfig(pe_rows=4, pe_cols=2,
                                                  mu=4, k=4))
    return server, qlm


def _drive() -> dict:
    server, _ = _build_server()
    rng = np.random.default_rng(5)
    requests = [rng.integers(0, VOCAB, size=SEQ_LEN)
                for _ in range(NUM_REQUESTS)]

    server.run_solo(requests[0])  # warm the sequential leg

    async def fire():
        return await asyncio.gather(*[server.submit(t) for t in requests])

    async def paired_rounds():
        # One untimed round warms the batched leg in the loop it is timed
        # in: the event loop, the server's driver thread and its first
        # step.
        await fire()
        sequential, batched = [], []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            solo = [server.run_solo(tokens) for tokens in requests]
            sequential.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            results = await fire()
            batched.append(time.perf_counter() - t0)
        await server.aclose()
        return solo, results, sequential, batched

    solo, results, sequential, batched = asyncio.run(paired_rounds())

    for result, want in zip(results, solo, strict=True):
        np.testing.assert_array_equal(result.logits, want)

    metrics = server.metrics
    batched_s = float(np.median(batched))
    return {
        "sequential_s": float(np.median(sequential)),
        "batched_s": batched_s,
        "speedup": float(np.median([seq / bat for seq, bat in
                                    zip(sequential, batched, strict=True)])),
        # Per request: the scoring requests that shared its prefill pass.
        "mean_batch": float(np.mean([r.batch_size for r in results])),
        "p50_ms": metrics.request_latency.percentile(50) * 1e3,
        "p99_ms": metrics.request_latency.percentile(99) * 1e3,
        "tokens_per_s": NUM_REQUESTS * SEQ_LEN / batched_s,
    }


@pytest.mark.bench
def test_batched_sharded_throughput_beats_sequential(benchmark):
    data = run_once(benchmark, _drive)
    print()
    print(f"serve throughput — {NUM_REQUESTS} requests × {SEQ_LEN} tokens, "
          f"2 shards, max_batch 8 (median of {ROUNDS} paired rounds)")
    print(f"  sequential : {data['sequential_s'] * 1e3:8.1f} ms")
    print(f"  batched    : {data['batched_s'] * 1e3:8.1f} ms   "
          f"(mean batch {data['mean_batch']:.1f})")
    print(f"  speedup    : {data['speedup']:8.2f}x   (floor {SPEEDUP_FLOOR}x)")
    print(f"  latency    : p50 {data['p50_ms']:.1f} ms   p99 {data['p99_ms']:.1f} ms")
    print(f"  throughput : {data['tokens_per_s']:8.0f} tokens/s")
    record_bench("serve_throughput::batched_vs_sequential", "speedup_x",
                 data["speedup"], floor=SPEEDUP_FLOOR)
    assert data["mean_batch"] > 1.0, "requests were not coalesced"
    assert data["speedup"] > SPEEDUP_FLOOR
