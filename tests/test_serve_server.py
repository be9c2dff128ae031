"""End-to-end tests of the sharded inference server: its scoring path and
the lifecycle of its driver thread."""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.mpu import MPUConfig, MPURunStats
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import TransformerConfig, TransformerLM
from repro.serve import BatchPolicy, InferenceServer

MPU_CFG = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)
VOCAB = 41


@pytest.fixture(scope="module")
def served_qlm():
    model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=16,
                                            d_model=16, n_heads=2, n_layers=1,
                                            d_ff=32, seed=7))
    recipe = QuantizationRecipe(method="bcq", bits=2, group_size=8)
    return QuantizedLM.build(model, recipe, engine="figlut-f")


def _requests(rng, count, lengths=(8,)):
    return [rng.integers(0, VOCAB, size=int(rng.choice(lengths)))
            for _ in range(count)]


def _serve(server, requests):
    async def main():
        results = await asyncio.gather(*[server.submit(t) for t in requests])
        await server.aclose()
        return results

    return asyncio.run(main())


class TestInferenceServer:
    def test_batched_results_identical_to_solo(self, rng, served_qlm):
        server = InferenceServer(served_qlm, num_shards=2,
                                 policy=BatchPolicy(max_batch=4, max_wait_us=5_000),
                                 mpu_config=MPU_CFG)
        requests = _requests(rng, 9, lengths=(8, 12))
        solo = [server.run_solo(t) for t in requests]
        results = _serve(server, requests)
        assert any(r.batch_size > 1 for r in results)  # batching happened
        for result, want in zip(results, solo, strict=True):
            assert result.logits.shape == (want.shape[0], VOCAB)
            np.testing.assert_array_equal(result.logits, want)

    def test_one_token_requests_identical_to_solo(self, rng, served_qlm):
        # 1-token requests sharing a micro-batch hand every layer a batch
        # of a few columns, some C-ordered: the offset stage must still sum
        # each column exactly as the 1-column solo run does.
        server = InferenceServer(served_qlm, num_shards=2,
                                 policy=BatchPolicy(max_batch=4, max_wait_us=20_000),
                                 mpu_config=MPU_CFG)
        requests = _requests(rng, 3, lengths=(1,))
        solo = [server.run_solo(t) for t in requests]
        results = _serve(server, requests)
        assert max(r.batch_size for r in results) == 3
        for result, want in zip(results, solo, strict=True):
            assert result.logits.tobytes() == want.tobytes()

    def test_metrics_and_latency_accounting(self, rng, served_qlm):
        server = InferenceServer(served_qlm, num_shards=2,
                                 policy=BatchPolicy(max_batch=8, max_wait_us=2_000),
                                 mpu_config=MPU_CFG)
        requests = _requests(rng, 8, lengths=(10,))
        results = _serve(server, requests)
        metrics = server.metrics
        assert metrics.requests == 8
        assert metrics.tokens == sum(len(t) for t in requests)
        assert metrics.request_latency.count() == 8
        assert (0 < metrics.request_latency.percentile(50)
                <= metrics.request_latency.percentile(99))
        assert metrics.tokens_per_second > 0
        assert all(1 <= r.batch_size <= 8 for r in results)
        assert all(r.latency_s > 0 for r in results)
        ids = sorted(r.request_id for r in results)
        assert ids == list(range(8))

    def test_modelled_stats_are_plan_exact_under_sharding(self, rng, served_qlm):
        """The aggregate MPURunStats equal the unsharded analytic totals for
        the flat batches the server actually ran — the acceptance pin that
        sharding + batching leave the modelled cycle counters exact."""
        server = InferenceServer(served_qlm, num_shards=3,
                                 policy=BatchPolicy(max_batch=4, max_wait_us=2_000),
                                 mpu_config=MPU_CFG)
        seq = 8
        requests = _requests(rng, 6, lengths=(seq,))
        results = _serve(server, requests)
        # Reconstruct the dispatched forward groups from the batch sizes:
        # every request in a group of k contributes a flat batch of k·seq.
        group_sizes = sorted(r.batch_size for r in results)
        flat_batches = []
        i = 0
        while i < len(group_sizes):
            k = group_sizes[i]
            flat_batches.append(k * seq)
            i += k
        expected = MPURunStats()
        for flat in flat_batches:
            expected = expected.merge(
                served_qlm.model_mpu_stats(batch=flat, mpu_config=MPU_CFG))
        assert server.metrics.mpu_stats == expected

    def test_scheduler_looks_up_pool_gemm_per_call(self, rng, served_qlm):
        # A wrapper set on the pool after the server is built sees every
        # scheduled GEMM, and the counters equal Σ plan_stats over them.
        server = InferenceServer(served_qlm, num_shards=2, mpu_config=MPU_CFG)
        calls = []
        real = server.pool.gemm

        def gemm(name, flat):
            calls.append((name, flat.shape[1]))
            return real(name, flat)

        server.pool.gemm = gemm
        _serve(server, _requests(rng, 3, lengths=(5, 9)))
        want = MPURunStats()
        for name, cols in calls:
            want = want.merge(server.pool.plan_stats(name, cols))
        assert calls and server.metrics.mpu_stats == want

    def test_failed_pool_gemms_add_no_mpu_stats(self, rng, served_qlm):
        server = InferenceServer(served_qlm, num_shards=2, mpu_config=MPU_CFG)
        prompt = _requests(rng, 1)[0]
        server.run_solo(prompt)
        counted = server.metrics.mpu_stats
        assert counted == served_qlm.model_mpu_stats(prompt.size, MPU_CFG)
        name = next(iter(server.pool.plans))
        with pytest.raises(ValueError, match="activation rows"):
            server.pool.gemm(name, np.ones((server.pool.plans[name].n - 1, 2)))
        assert server.metrics.mpu_stats == counted
        server.close()
        with pytest.raises(RuntimeError, match="pool is closed"):
            server.run_solo(prompt)
        with pytest.raises(RuntimeError, match="pool is closed"):
            server.generate_solo(prompt, 2)
        assert server.metrics.mpu_stats == counted

    def test_mixed_precision_model_serves_bit_exact(self, rng):
        model = TransformerLM(TransformerConfig(vocab_size=VOCAB, max_seq_len=16,
                                                d_model=16, n_heads=2, n_layers=1,
                                                d_ff=32, seed=11))
        names = model.weight_matrix_names()
        recipe = QuantizationRecipe(
            method="bcq", bits=2, group_size=8,
            bits_per_layer={name: (3 if i % 2 else 2)
                            for i, name in enumerate(names)})
        qlm = QuantizedLM.build(model, recipe, engine="figlut-f")
        server = InferenceServer(qlm, num_shards=2,
                                 policy=BatchPolicy(max_batch=4, max_wait_us=2_000),
                                 mpu_config=MPU_CFG)
        requests = _requests(rng, 4, lengths=(6,))
        solo = [server.run_solo(t) for t in requests]
        for result, want in zip(_serve(server, requests), solo, strict=True):
            np.testing.assert_array_equal(result.logits, want)

    def test_rejects_malformed_requests(self, served_qlm):
        server = InferenceServer(served_qlm, num_shards=2, mpu_config=MPU_CFG)
        with server:
            with pytest.raises(ValueError):
                server.run_solo(np.zeros((2, 3), dtype=np.int64))
            with pytest.raises(ValueError):
                server.run_solo(np.array([], dtype=np.int64))

    def test_scoring_equals_run_solo_at_bench_geometry(self, rng):
        """The bench model's attention geometry (d_model=128, n_heads=4) at
        prompt lengths 32-37, where the step prefill and ``forward``
        differ in the last bit on some BLAS builds: served scoring logits
        and ``run_solo`` share the step prefill, so they agree bit for
        bit."""
        model = TransformerLM(TransformerConfig(
            vocab_size=64, max_seq_len=48, d_model=128, n_heads=4,
            n_layers=1, d_ff=512, seed=1))
        qlm = QuantizedLM.build(model, QuantizationRecipe("bcq", bits=3,
                                                          group_size=128))
        server = InferenceServer(qlm, num_shards=2, mpu_config=MPUConfig(),
                                 policy=BatchPolicy(max_batch=16,
                                                    max_wait_us=20_000),
                                 decode_max_active=16)
        requests = [rng.integers(0, 64, size=n)
                    for n in range(32, 38) for _ in range(2)]
        solo = [server.run_solo(t) for t in requests]
        results = _serve(server, requests)
        assert [r.batch_size for r in results] == [2] * len(requests)
        for result, want in zip(results, solo, strict=True):
            assert result.logits.tobytes() == want.tobytes()


class TestServerDriver:
    """The one driver thread: started by the first request, joined on
    close, stepping the scheduler back to back."""

    @pytest.mark.parametrize("shutdown", ["aclose", "close"])
    def test_no_driver_thread_outlives_the_server(self, rng, served_qlm,
                                                  shutdown):
        before = set(threading.enumerate())
        server = InferenceServer(served_qlm, num_shards=2, mpu_config=MPU_CFG)
        prompt = _requests(rng, 1)[0]

        async def main():
            await asyncio.wait_for(server.submit_generate(prompt, 2), 30)
            assert set(threading.enumerate()) - before  # the driver runs
            if shutdown == "aclose":
                await asyncio.wait_for(server.aclose(), 30)
            else:
                # On the loop thread, while the driver may still wait for
                # the loop to settle the finished request.
                server.close()

        asyncio.run(main())
        assert set(threading.enumerate()) <= before

    def test_requests_after_close_raise(self, rng, served_qlm):
        server = InferenceServer(served_qlm, num_shards=2, mpu_config=MPU_CFG)
        prompt = _requests(rng, 1)[0]
        server.close()

        async def stream():
            return [t async for t in server.stream_generate(prompt, 2)]

        async def main():
            for request in (server.submit(prompt),
                            server.submit_generate(prompt, 2), stream()):
                with pytest.raises(RuntimeError, match="pool is closed"):
                    await asyncio.wait_for(request, 30)

        asyncio.run(main())

    def test_one_server_serves_two_event_loops(self, rng, served_qlm):
        server = InferenceServer(served_qlm, num_shards=2, mpu_config=MPU_CFG)
        prompts = _requests(rng, 2)
        want = [server.generate_solo(p, 3).tokens for p in prompts]
        with server:
            got = [asyncio.run(asyncio.wait_for(
                server.submit_generate(p, 3), 30)).tokens for p in prompts]
        for tokens, expected in zip(got, want, strict=True):
            np.testing.assert_array_equal(tokens, expected)

    def test_a_driver_that_dies_is_replaced(self, rng, served_qlm,
                                            monkeypatch):
        # A step fails, and so does the abort that fails its request: the
        # driver thread dies, and a new one serves the next request.
        server = InferenceServer(served_qlm, num_shards=2, mpu_config=MPU_CFG)
        sched = server.scheduler
        abort = sched.abort
        dying, died = [], []  # died: (thread, exception) from excepthook
        monkeypatch.setattr(threading, "excepthook", lambda args: died.append(
            (args.thread, args.exc_value)))

        def failing_step():
            del sched.step  # once
            raise RuntimeError("step failed")

        def failing_abort(exc):
            del sched.abort  # once
            dying.append(threading.current_thread())
            abort(exc)
            raise ValueError("abort failed")

        sched.step, sched.abort = failing_step, failing_abort
        first, second = _requests(rng, 2)
        want = server.generate_solo(second, 3).tokens

        async def main():
            with pytest.raises(RuntimeError, match="step failed"):
                await asyncio.wait_for(server.submit_generate(first, 3), 30)
            got = await asyncio.wait_for(server.submit_generate(second, 3), 30)
            await asyncio.wait_for(server.aclose(), 30)
            return got.tokens

        np.testing.assert_array_equal(asyncio.run(main()), want)
        dying[0].join(30)
        assert [(t, type(e)) for t, e in died] == [(dying[0], ValueError)]
        assert server._driver is not dying[0]

    def test_resubmitted_request_is_admitted_in_the_next_step(self, rng,
                                                               served_qlm):
        # A closed-loop client sends each request when the previous one
        # returns, beside a long generation that keeps the driver stepping.
        # The driver waits for the client before it admits again, so each
        # request joins the step right after the one that settled the
        # previous request.
        server = InferenceServer(served_qlm, num_shards=2, mpu_config=MPU_CFG,
                                 policy=BatchPolicy(max_wait_us=0))
        sched = server.scheduler
        log = []  # per step: (ids waiting at entry, at exit, ids settled)
        inner = sched.step

        def waiting():
            with sched._lock:
                return {seq.request_id for seq in sched._waiting}

        def step():  # an instance wrapper, as bench/ledger.py installs
            entry = waiting()
            finished = inner()
            log.append((entry, waiting(), {s.request_id for s in finished}))
            return finished

        async def main():
            await server.submit_generate(_requests(rng, 1)[0], 1)
            # Set once the driver runs: it must look the method up on
            # every iteration to see the wrapper.
            sched.step = step
            background = asyncio.ensure_future(server.submit_generate(
                rng.integers(0, VOCAB, size=3), 12))
            ids = [(await server.submit_generate(prompt, 1)).request_id
                   for prompt in _requests(rng, 4)]
            await background
            await server.aclose()
            return ids

        ids = asyncio.run(asyncio.wait_for(main(), 60))
        admitted = {r: i for i, (entry, exit_, _) in enumerate(log)
                    for r in entry - exit_}
        settled = {r: i for i, (_, _, done) in enumerate(log) for r in done}
        assert set(ids) <= admitted.keys() & settled.keys()
        for prev, nxt in zip(ids, ids[1:]):
            assert admitted[nxt] == settled[prev] + 1
