"""Prefix-cache benchmark: shared system-prompt serving, sharing on vs off.

The dominant production workload at scale: many requests over one long
common prompt (a system prompt / few-shot template) with short unique
suffixes.  With cross-request prefix sharing, the first request prefills
the full prompt and registers its completed pages; every later request maps
those pages out of the :class:`~repro.models.transformer.PagePool` registry
and prefills **only its suffix** — so time-to-first-token drops by roughly
the shared/unshared prefill ratio, and the plan-exact MPU counters prove
the shared portion executed exactly once across the whole workload.

The recorded floor is ≥2× lower TTFT for the requests that share, with a
96-token shared prefix and 4-token suffixes.  Measured ~3× on a 2-vCPU
Xeon VM: with the native GEMM kernel a 100-token prefill takes only a few
milliseconds, so the suffix request's fixed per-step costs (scheduler,
attention, logits) are a large share of its TTFT.  Each workload runs
``REPEATS`` times, alternating sharing off and on, and every request keeps
its best TTFT, so one noisy millisecond window on a shared host cannot
decide the ratio.  Run with ``-s`` to see the rows.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import record_bench, run_once
from repro.core.mpu import MPUConfig
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import TransformerConfig, TransformerLM
from repro.serve import CacheConfig, DecodeScheduler

TTFT_FLOOR = 2.0
NUM_REQUESTS = 6
REPEATS = 3
SHARED_LEN = 96
SUFFIX_LEN = 4
NEW_TOKENS = 4
PAGE_SIZE = 8
VOCAB = 101
MPU_CFG = MPUConfig(pe_rows=4, pe_cols=2, mu=4, k=4)


def _build_qlm() -> QuantizedLM:
    model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=128,
                                            d_model=64, n_heads=4, n_layers=2,
                                            d_ff=128, seed=9))
    return QuantizedLM.build(model,
                            QuantizationRecipe(method="bcq", bits=2,
                                               group_size=32),
                            engine="figlut-f")


def _run_workload(qlm, prompts, prefix_sharing):
    """Serve the requests one wave at a time (the streaming-arrival shape
    where prefix reuse happens); returns per-request TTFT and the metrics."""
    sched = DecodeScheduler(qlm, max_active=NUM_REQUESTS, mpu_config=MPU_CFG,
                            cache_config=CacheConfig(
                                page_size=PAGE_SIZE,
                                prefix_sharing=prefix_sharing))
    ttfts, tokens = [], []
    for prompt in prompts:
        first_token_at = []
        t0 = time.perf_counter()
        seq = sched.submit(prompt, NEW_TOKENS,
                           on_token=lambda s, t, done: first_token_at.append(
                               time.perf_counter()) if not first_token_at else None)
        sched.run_until_idle()
        ttfts.append(first_token_at[0] - t0)
        tokens.append(seq.tokens)
    return ttfts, tokens, sched.metrics


def _drive() -> dict:
    qlm = _build_qlm()
    rng = np.random.default_rng(9)
    shared = rng.integers(0, VOCAB, size=SHARED_LEN)
    prompts = [np.concatenate([shared, rng.integers(0, VOCAB, size=SUFFIX_LEN)])
               for _ in range(NUM_REQUESTS)]

    qlm.prefill(prompts[0], mpu_config=MPU_CFG)  # warm the memos

    # Best of REPEATS alternating runs: per request the least TTFT, per
    # setting the least wall time.
    off_runs, on_runs, off_s, on_s = [], [], float("inf"), float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        off_runs.append(_run_workload(qlm, prompts, False))
        off_s = min(off_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        on_runs.append(_run_workload(qlm, prompts, True))
        on_s = min(on_s, time.perf_counter() - t0)
    ttft_off = np.min([run[0] for run in off_runs], axis=0)
    ttft_on = np.min([run[0] for run in on_runs], axis=0)
    _, tokens_off, metrics_off = off_runs[0]
    _, tokens_on, metrics_on = on_runs[0]
    for _, tokens, _ in off_runs[1:] + on_runs[1:]:
        for a, b in zip(tokens, tokens_off, strict=True):
            np.testing.assert_array_equal(a, b)
    for _, _, metrics in on_runs[1:]:
        assert metrics.mpu_stats == metrics_on.mpu_stats

    # Bit-exactness: sharing changes where K/V is read from, not its values.
    for a, b, p in zip(tokens_on, tokens_off, prompts, strict=True):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            a, qlm.generate(p, NEW_TOKENS, mpu_config=MPU_CFG).tokens)

    # Plan-exact proof the shared portion executed once: request 1 prefilled
    # the full prompt; every other request computed only its suffix.
    plen = SHARED_LEN + SUFFIX_LEN
    steps = qlm.model_mpu_stats(batch=1, mpu_config=MPU_CFG)
    expected_on = qlm.model_mpu_stats(batch=plen, mpu_config=MPU_CFG)
    for _ in range(NUM_REQUESTS - 1):
        expected_on = expected_on.merge(
            qlm.model_mpu_stats(batch=SUFFIX_LEN, mpu_config=MPU_CFG))
    for _ in range(NUM_REQUESTS * (NEW_TOKENS - 1)):
        expected_on = expected_on.merge(steps)
    assert metrics_on.mpu_stats == expected_on
    assert metrics_on.prefix_hit_tokens == (NUM_REQUESTS - 1) * SHARED_LEN
    assert metrics_on.prefix_hit_requests == NUM_REQUESTS - 1
    assert metrics_off.prefix_hit_tokens == 0
    assert metrics_off.prefill_tokens == NUM_REQUESTS * plen

    # TTFT of the requests that can share (all but the first arrival).
    ttft_ratio = float(np.median(ttft_off[1:]) / np.median(ttft_on[1:]))
    total = NUM_REQUESTS * NEW_TOKENS
    return {
        "ttft_off_ms": float(np.median(ttft_off[1:])) * 1e3,
        "ttft_on_ms": float(np.median(ttft_on[1:])) * 1e3,
        "ttft_ratio": ttft_ratio,
        "off_s": off_s,
        "on_s": on_s,
        "workload_speedup": off_s / on_s,
        "tokens_per_s_on": total / on_s,
        "hit_rate": metrics_on.prefix_hit_rate,
    }


@pytest.mark.bench
def test_prefix_sharing_cuts_time_to_first_token(benchmark):
    data = run_once(benchmark, _drive)
    print()
    print(f"prefix cache — {NUM_REQUESTS} requests, shared prefix "
          f"{SHARED_LEN} + suffix {SUFFIX_LEN}, page size {PAGE_SIZE}")
    print(f"  TTFT sharing off : {data['ttft_off_ms']:8.2f} ms (median, "
          f"requests 2..N)")
    print(f"  TTFT sharing on  : {data['ttft_on_ms']:8.2f} ms")
    print(f"  TTFT ratio       : {data['ttft_ratio']:8.2f}x   "
          f"(floor {TTFT_FLOOR}x)")
    print(f"  workload         : {data['off_s'] * 1e3:6.1f} ms -> "
          f"{data['on_s'] * 1e3:6.1f} ms "
          f"({data['workload_speedup']:.2f}x, "
          f"{data['tokens_per_s_on']:.0f} tokens/s)")
    print(f"  prefix hit rate  : {data['hit_rate']:8.1%}")
    record_bench("prefix_cache::ttft_ratio", "ttft_ratio_x",
                 data["ttft_ratio"], floor=TTFT_FLOOR)
    assert data["hit_rate"] > 0.5
    assert data["ttft_ratio"] > TTFT_FLOOR
