"""Telemetry overhead: the observability layer must be (nearly) free.

The acceptance pins for PR 9's tracing/metrics/profiling instrumentation,
measured on the latency-critical batch-1 decode-step shape from
``test_decode_throughput``:

* with telemetry **disabled** (the default), the instrumented hot paths
  pay one module-global load plus an attribute branch per site;
* with telemetry **enabled** (tracing + metrics + per-opcode profiling),
  decode must stay within 15% of the disabled run;
* the generated tokens are identical in every configuration — telemetry
  never touches a computed value.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import record_bench, run_once
from repro.core.mpu import MPUConfig
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import TransformerConfig, TransformerLM
from repro.telemetry import telemetry_session

# Enabled telemetry may cost at most 15% of decode-step time (~12%
# measured), i.e. the disabled/enabled step-time ratio stays above
# 1/1.15 — floored with a 5% timing-noise allowance, since the
# single-CPU CI box times both legs under whatever else the machine is
# doing.
ENABLED_RATIO_FLOOR = (1.0 / 1.15) * 0.95
VOCAB = 101
PROMPT_LEN = 8
# Paired rounds of STEPS decode steps per configuration.  One round's
# ratio swings by ±0.1-0.2 under host load (CPU steal, a neighbour's
# BLAS threads), so the median needs enough rounds that a burst spanning
# a few of them cannot move it: with 6 rounds a loaded 2-vCPU host saw
# medians as low as 0.64 around a true ratio of ~0.87; with 30 the
# median stayed within 0.85-0.89.
STEPS, ROUNDS = 20, 30


def _drive() -> dict:
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

    def one_round() -> tuple[float, list[int]]:
        """One timed batch-1 decode round: ms/step + the emitted tokens."""
        logits, cache, _ = qlm.prefill(prompt, mpu_config=cfg)
        token = np.array([[int(np.argmax(logits[0, -1]))]])
        qlm.decode_step(token, cache, mpu_config=cfg)  # warm
        round_tokens = []
        t0 = time.perf_counter()
        for _ in range(STEPS):
            logits, _ = qlm.decode_step(token, cache, mpu_config=cfg)
            token = np.array([[int(np.argmax(logits[0, -1]))]])
            round_tokens.append(int(token[0, 0]))
        return (time.perf_counter() - t0) / STEPS * 1e3, round_tokens

    # Two configurations, measured in interleaved rounds so ambient
    # machine load biases neither: telemetry disabled (the default), and
    # full-fat telemetry — tracing + metrics + per-opcode profiling.  The
    # pinned ratio is the *median over paired rounds* (the two legs run
    # back-to-back under the same ambient load, so each round's ratio
    # cancels the load common to its legs), which is far more robust on
    # a loaded single-CPU machine than dividing each configuration's
    # independent minimum.
    compiled, enabled = [], []
    compiled_tokens = enabled_tokens = None
    traced_events, profile = 0, {}
    for _ in range(ROUNDS):
        ms, compiled_tokens = one_round()
        compiled.append(ms)
        with telemetry_session(profiling=True) as tel:
            ms, enabled_tokens = one_round()
            enabled.append(ms)
            traced_events = len(tel.trace)
            profile = tel.profile.snapshot()

    enabled_ratio = float(np.median([c / e for c, e in
                                     zip(compiled, enabled, strict=True)]))
    return {
        "compiled_ms": min(compiled),
        "enabled_ms": min(enabled),
        "enabled_ratio": enabled_ratio,
        "overhead_pct": (1.0 / enabled_ratio - 1.0) * 100.0,
        "traced_events": traced_events,
        "profiled_ops": sorted(profile),
        "tokens_match": compiled_tokens == enabled_tokens,
    }


@pytest.mark.bench
def test_telemetry_overhead_within_budget(benchmark):
    data = run_once(benchmark, _drive)
    print()
    print("telemetry overhead — batch-1 decode step, d_model 128, 2 layers "
          f"(median paired round of {ROUNDS}×{STEPS} interleaved steps)")
    print(f"  compiled, telemetry off : {data['compiled_ms']:6.2f} ms/step")
    print(f"  compiled, telemetry on  : {data['enabled_ms']:6.2f} ms/step   "
          f"({data['overhead_pct']:+5.1f}% — {data['traced_events']} spans, "
          f"profiling {len(data['profiled_ops'])} ops)")
    print(f"  enabled/disabled ratio  : {data['enabled_ratio']:6.2f}   "
          f"(floor {ENABLED_RATIO_FLOOR:.2f})")
    record_bench("telemetry_overhead::enabled_step_ratio", "ratio",
                 data["enabled_ratio"], floor=ENABLED_RATIO_FLOOR)
    assert data["tokens_match"], "telemetry changed the generated tokens"
    assert data["traced_events"] > 0, "enabled run recorded no spans"
    assert "program.fused.luts" in data["profiled_ops"]
    assert data["enabled_ratio"] > ENABLED_RATIO_FLOOR
