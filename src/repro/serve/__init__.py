"""Pooled inference serving over the tile-execution core.

The scale-out leg of the reproduction: the functional FIGLUT model becomes a
servable engine by (1) pinning one compiled program per layer — its
weight-stationary RAC keys — in a worker pool that runs small GEMMs inline
and splits large ones' activation columns across its workers
(:mod:`repro.serve.workers`), (2) one continuous (iteration-level)
scheduler for every request (:mod:`repro.serve.scheduler`): generation
over a shared **paged** KV cache — fixed-size K/V pages with per-sequence
page tables and cross-request prefix sharing, stacked single-position
decode steps with admission between iterations — and scoring as
prefill-only requests that run in unpadded same-length groups through the
same admission, and (3) gluing it together over a
:class:`~repro.models.quantized_model.QuantizedLM` with per-request latency
and plan-exact modelled-cycle accounting (:mod:`repro.serve.server`).

Quickstart (see ``examples/serve_quickstart.py`` and
``examples/generate_quickstart.py`` for full clients)::

    import asyncio
    from repro.serve import BatchPolicy, InferenceServer

    server = InferenceServer(qlm, num_shards=2,
                             policy=BatchPolicy(max_wait_us=500))

    async def client(tokens):
        result = await server.submit(tokens)            # one-shot logits
        gen = await server.submit_generate(tokens, 16)  # KV-cached decoding
        return result.logits, gen.tokens

    asyncio.run(client(my_tokens))
"""

from repro.serve.scheduler import (
    CacheConfig,
    DecodeMetrics,
    DecodeScheduler,
    SequenceState,
)
from repro.serve.server import (
    BatchPolicy,
    GeneratedSequence,
    InferenceResult,
    InferenceServer,
    ServerMetrics,
)
from repro.serve.workers import PoolCounters, ShardedMPUPool

__all__ = [
    "BatchPolicy",
    "CacheConfig",
    "DecodeMetrics",
    "DecodeScheduler",
    "GeneratedSequence",
    "InferenceResult",
    "InferenceServer",
    "SequenceState",
    "ServerMetrics",
    "PoolCounters",
    "ShardedMPUPool",
]
