"""End-to-end observability: telemetry must see everything and change nothing.

Two acceptance pins live here:

* **Bit-identity** — served tokens *and* the aggregate
  :class:`~repro.core.mpu.MPURunStats` of identically seeded servers are
  bit-identical with telemetry enabled vs disabled (the instrumentation
  only reads clocks; it never touches a value or a counter).
* **Trace reconstruction** — a concurrent ``submit_generate`` run exports
  a Chrome trace from which each request's
  queue → admission (prefill) → decode iterations → departure timeline
  can be rebuilt structurally: request-id correlation, monotonic
  timestamps, and lifecycle containment.
* **One metrics store** — the registry exports the serving structs' own
  latency histograms, so private solo schedulers never leak into a
  server's exported series, and the exposition's family set is pinned.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.mpu import MPUConfig
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import TransformerConfig, TransformerLM
from repro.serve import BatchPolicy, CacheConfig, DecodeScheduler, InferenceServer
from repro.telemetry import MetricsRegistry, bind_server, get_telemetry, telemetry_session

MPU_CFG = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)
VOCAB = 41
NEW_TOKENS = 6
NUM_REQUESTS = 5


@pytest.fixture(scope="module")
def served_qlm():
    model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=32,
                                            d_model=16, n_heads=2, n_layers=1,
                                            d_ff=32, seed=7))
    recipe = QuantizationRecipe(method="bcq", bits=2, group_size=8)
    return QuantizedLM.build(model, recipe, engine="figlut-f")


def _build_server(qlm):
    return InferenceServer(qlm, num_shards=2,
                           policy=BatchPolicy(max_batch=4, max_wait_us=500),
                           mpu_config=MPU_CFG,
                           decode_max_active=4,
                           cache_config=CacheConfig(page_size=4))


def _prompts():
    rng = np.random.default_rng(11)
    return [rng.integers(0, VOCAB, size=int(rng.integers(5, 12)))
            for _ in range(NUM_REQUESTS)]


def _generate_all(server, prompts):
    async def main():
        results = await asyncio.gather(*[
            server.submit_generate(p, NEW_TOKENS) for p in prompts])
        await server.aclose()
        return results

    return asyncio.run(main())


class TestBitIdentity:
    def test_tokens_and_stats_identical_with_telemetry_on(self, served_qlm):
        prompts = _prompts()
        baseline = _generate_all(_build_server(served_qlm), prompts)

        with telemetry_session(profiling=True) as tel:
            server = _build_server(served_qlm)
            traced = _generate_all(server, prompts)
            run_stats = server.decode_metrics.mpu_stats

        off_server = _build_server(served_qlm)
        off = _generate_all(off_server, prompts)
        off_stats = off_server.decode_metrics.mpu_stats

        for a, b, c in zip(baseline, traced, off, strict=True):
            np.testing.assert_array_equal(a.tokens, b.tokens)
            np.testing.assert_array_equal(a.tokens, c.tokens)
        # The modelled counters are part of the contract, not just outputs.
        assert run_stats == off_stats
        assert len(tel.trace) > 0

    def test_disabled_telemetry_records_nothing(self, served_qlm):
        tel = get_telemetry()
        assert not tel.enabled
        before = len(tel.trace)
        _generate_all(_build_server(served_qlm), _prompts())
        assert len(tel.trace) == before == 0


class TestTraceReconstruction:
    @pytest.fixture(scope="class")
    def trace_doc(self, served_qlm, tmp_path_factory):
        with telemetry_session(profiling=True) as tel:
            server = _build_server(served_qlm)
            results = _generate_all(server, _prompts())
            prom = tel.render_prometheus()
            profile = tel.profile.snapshot()
            path = tel.export_chrome(
                tmp_path_factory.mktemp("trace") / "trace.json")
        doc = json.loads(path.read_text())
        return doc, results, prom, profile

    def test_every_request_timeline_reconstructs(self, trace_doc):
        doc, results, _, _ = trace_doc
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]

        def request_spans(name, rid):
            return [s for s in spans if s["name"] == name
                    and (s["args"].get("request_id") == rid
                         or rid in s["args"].get("request_ids", []))]

        for result in results:
            rid = result.request_id
            (queue,) = request_spans("request.queue", rid)
            admissions = request_spans("scheduler.admission", rid)
            prefills = request_spans("scheduler.prefill", rid)
            decodes = request_spans("decode.iteration", rid)
            (lifecycle,) = request_spans("request.lifecycle", rid)
            departures = [i for i in instants if i["name"] == "request.departure"
                          and i["args"]["request_id"] == rid]
            assert len(admissions) == 1 and len(prefills) == 1
            assert len(departures) == 1
            # One decode iteration per generated token (prefill may emit
            # the first token, so allow NEW_TOKENS or NEW_TOKENS - 1).
            assert len(decodes) in (result.tokens.size, result.tokens.size - 1)

            # Ordering: queue ends when admission begins working on the
            # request; prefill lies inside the admission wave; decode
            # iterations follow prefill; departure is last.
            adm = admissions[0]
            pf = prefills[0]
            assert queue["ts"] <= adm["ts"] + adm["dur"]
            assert adm["ts"] <= pf["ts"]
            assert pf["ts"] + pf["dur"] <= adm["ts"] + adm["dur"] + 1e-3
            first_decode = min(d["ts"] for d in decodes)
            last_decode = max(d["ts"] + d["dur"] for d in decodes)
            assert pf["ts"] + pf["dur"] <= first_decode + 1e-3
            assert last_decode <= departures[0]["ts"] + 1e-3

            # Lifecycle spans submit → departure and contains the rest.
            assert lifecycle["ts"] <= queue["ts"]
            assert last_decode <= lifecycle["ts"] + lifecycle["dur"] + 1e-3
            assert lifecycle["args"]["finish_reason"] == "length"
            assert lifecycle["args"]["generated_tokens"] == NEW_TOKENS

    def test_timestamps_are_rebased_and_monotonic(self, trace_doc):
        doc, _, _, _ = trace_doc
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert min(s["ts"] for s in spans) == 0
        assert all(s["dur"] >= 0 for s in spans)

    def test_inline_gemms_record_no_pool_spans(self, trace_doc):
        doc, _, _, _ = trace_doc
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # This model's GEMMs are far below the fan-out threshold: every
        # call runs inline, and only a fanned-out call records pool spans.
        cats = {e["cat"] for e in spans}
        assert "pool" not in cats
        assert {"request", "scheduler", "decode"} <= cats

    def test_prometheus_exposition_covers_serving_metrics(self, trace_doc):
        _, _, prom, _ = trace_doc
        for needle in ("decode_waiting_requests",
                       "decode_active_requests",
                       "page_pool_occupancy",
                       "decode_prefix_hit_rate",
                       "page_pool_prefix_hit_rate",
                       "decode_token_latency_seconds_count",
                       'decode_token_latency_seconds{quantile="0.5"}',
                       'pool_gemm_calls_total{path="inline"}',
                       "server_request_latency_seconds"):
            assert needle in prom, f"missing {needle} in exposition"
        # Parses line-by-line: every non-comment line is `series value`.
        for line in prom.splitlines():
            if not line or line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])

    def test_profiling_rollups_present(self, trace_doc):
        _, _, _, profile = trace_doc
        assert {"program.fused.luts", "scheduler.decode",
                "scheduler.admit"} <= set(profile)
        for entry in profile.values():
            assert entry["count"] >= 1
            assert entry["seconds"] >= 0.0


class TestSchedulerBackpressureInstant:
    def test_backpressure_emits_instant(self, served_qlm):
        with telemetry_session() as tel:
            sched = DecodeScheduler(served_qlm, mpu_config=MPU_CFG,
                                    cache_config=CacheConfig(page_size=4,
                                                             num_pages=16),
                                    max_active=8)
            rng = np.random.default_rng(3)
            for _ in range(6):
                sched.submit(rng.integers(0, VOCAB, size=10), 4)
            sched.run_until_idle()
            names = {e.name for e in tel.trace.events()}
        assert "scheduler.backpressure" in names


# Every family a bound, driven server exported before the serving structs
# owned their latency histograms (name -> kind), with the pool's call
# counters in place of the static per-shard cost gauges, and without the
# micro-batcher's families since scoring runs through the scheduler.
_GAUGE_FAMILIES = (
    "decode_active_requests", "decode_admissions",
    "decode_backpressure_events", "decode_decode_tokens", "decode_finished",
    "decode_generated_tokens", "decode_iterations", "decode_prefill_tokens",
    "decode_prefix_hit_rate", "decode_prefix_hit_requests",
    "decode_prefix_hit_tokens", "decode_requests", "decode_waiting_requests",
    "mpu_accumulations", "mpu_bit_planes_processed", "mpu_cycles",
    "mpu_generator_additions", "mpu_lut_generations", "mpu_lut_reads",
    "mpu_offset_additions", "mpu_scale_multiplications", "mpu_tiles",
    "page_pool_gathered_slots", "page_pool_lookup_hit_pages",
    "page_pool_lookup_misses", "page_pool_occupancy", "page_pool_pages",
    "page_pool_pages_allocated", "page_pool_pages_released",
    "page_pool_pages_revived", "page_pool_pages_shared",
    "page_pool_prefix_hit_rate", "page_pool_registered_pages",
    "page_pool_slots_written", "pool_gemm_calls_total",
    "server_request_latency_seconds", "server_requests", "server_tokens",
)
PREVIOUS_FAMILIES = {name: "gauge" for name in _GAUGE_FAMILIES} | {
    "decode_token_latency_seconds": "summary"}


def _exported_count(tel, name):
    return sum(row["count"] for row in tel.snapshot()[name]["samples"])


def _drive(server, prompts):
    async def main():
        await asyncio.gather(*[server.submit(p) for p in prompts],
                             *[server.submit_generate(p, NEW_TOKENS)
                               for p in prompts])
        await server.aclose()

    asyncio.run(main())


class TestOneMetricsStore:
    def test_solo_generation_does_not_leak_into_exported_decode_metrics(
            self, served_qlm):
        with telemetry_session() as tel:
            server = _build_server(served_qlm)
            server.generate_solo(np.arange(6), NEW_TOKENS)
            served_qlm.generate(np.arange(6), NEW_TOKENS, mpu_config=MPU_CFG)
            assert server.scheduler.metrics.iterations == 0
            assert _exported_count(tel, "decode_token_latency_seconds") == 0

            _generate_all(server, _prompts())
            iterations = server.scheduler.metrics.iterations
            assert iterations > 0
            assert (_exported_count(tel, "decode_token_latency_seconds")
                    == iterations)

    def test_exposition_families_and_rebinding(self, served_qlm):
        with telemetry_session() as tel:
            server = _build_server(served_qlm)
            _drive(server, _prompts()[:3])
            snap = tel.snapshot()
            prom = tel.render_prometheus()

            assert {name: fam["kind"] for name, fam in snap.items()} == (
                PREVIOUS_FAMILIES | {
                    "server_request_latency_seconds": "summary",
                    "decode_request_latency_seconds": "summary"})
            for q in ("0.5", "0.9", "0.99"):
                assert f'server_request_latency_seconds{{quantile="{q}"}}' in prom

            # The registry exports the scheduler's own histogram, not a copy.
            token = server.scheduler.metrics.token_latency
            exported = tel.metrics.get("decode_token_latency_seconds")
            assert exported is token
            (row,) = snap["decode_token_latency_seconds"]["samples"]
            assert row["count"] == token.count() > 0
            assert row["quantiles"]["50.0"] == token.percentile(50)

            # Re-binding a second server switches every family to it.
            second = _build_server(served_qlm)
            try:
                second.bind_telemetry(tel)
                alone = bind_server(MetricsRegistry(), second).snapshot()
                assert tel.snapshot() == alone
                assert tel.metrics.get("server_request_latency_seconds") is (
                    second.metrics.request_latency)
            finally:
                second.close()
