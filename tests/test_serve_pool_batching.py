"""Worker-pool and async-batcher tests for the serving subsystem."""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed
from repro.serve import AsyncBatcher, BatchPolicy, ShardedMPUPool

MPU_CFG = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)


@pytest.fixture
def layers(rng):
    w1 = rng.standard_normal((24, 32)) * 0.1
    w2 = rng.standard_normal((17, 24)) * 0.1
    return {
        "uniform": quantize_bcq(w1, BCQConfig(bits=3, group_size=8, iterations=1)),
        "mixed": quantize_bcq_mixed(w2, rng.choice([1, 2, 3], size=17),
                                    BCQConfig(group_size=7, iterations=1)),
    }


class TestShardedMPUPool:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_bit_exact_vs_unsharded(self, rng, layers, backend):
        mpu = MatrixProcessingUnit(MPU_CFG)
        with ShardedMPUPool(layers, num_shards=3, mpu_config=MPU_CFG,
                            backend=backend) as pool:
            for name, tensor in layers.items():
                x = rng.standard_normal((tensor.shape[1], 4))
                y_ref, stats_ref = mpu.gemm(tensor, x)
                y, stats = pool.gemm(name, x)
                np.testing.assert_array_equal(y, y_ref)
                assert stats == stats_ref

    def test_segment_axis_pool(self, rng, layers):
        mpu = MatrixProcessingUnit(MPU_CFG)
        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG,
                            backend="serial", axis="segments") as pool:
            for name, tensor in layers.items():
                x = rng.standard_normal((tensor.shape[1], 3))
                y_ref, stats_ref = mpu.gemm(tensor, x)
                y, stats = pool.gemm(name, x)
                assert stats == stats_ref
                np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12)

    def test_process_backend_bit_exact(self, rng, layers):
        mpu = MatrixProcessingUnit(MPU_CFG)
        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG,
                            backend="process") as pool:
            for name, tensor in layers.items():
                x = rng.standard_normal((tensor.shape[1], 3))
                y_ref, stats_ref = mpu.gemm(tensor, x)
                y, stats = pool.gemm(name, x)
                assert y.tobytes() == y_ref.tobytes()
                assert stats == stats_ref

    def test_process_backend_recovers_after_a_failed_call(self, rng, layers):
        # Every worker rejects the bad call; all their replies must be read
        # before the error surfaces, or the next call gets a stale one.
        tensor = layers["uniform"]
        x = rng.standard_normal((tensor.shape[1], 3))
        y_ref, stats_ref = MatrixProcessingUnit(MPU_CFG).gemm(tensor, x)
        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG,
                            backend="process") as pool:
            with pytest.raises(ValueError, match="activation rows"):
                pool.gemm("uniform", x[:-1])
            y, stats = pool.gemm("uniform", x)
        np.testing.assert_array_equal(y, y_ref)
        assert stats == stats_ref

    def test_process_backend_concurrent_calls(self, rng, layers):
        # Overlapping micro-batches issue pool.gemm from different threads;
        # the worker pipes must not interleave requests across callers.
        from concurrent.futures import ThreadPoolExecutor

        mpu = MatrixProcessingUnit(MPU_CFG)
        tensor = layers["uniform"]
        xs = [rng.standard_normal((tensor.shape[1], 2)) for _ in range(8)]
        refs = [mpu.gemm(tensor, x)[0] for x in xs]
        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG,
                            backend="process") as pool:
            with ThreadPoolExecutor(max_workers=4) as executor:
                outs = list(executor.map(
                    lambda x: pool.gemm("uniform", x)[0], xs))
        for got, want in zip(outs, refs, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_plan_stats_equal_merged_run_stats(self, rng, layers):
        with ShardedMPUPool(layers, num_shards=3, mpu_config=MPU_CFG,
                            backend="serial") as pool:
            x = rng.standard_normal((layers["uniform"].shape[1], 6))
            _, merged = pool.gemm("uniform", x)
            assert merged == pool.plan_stats("uniform", batch=6)

    def test_rejects_bad_configuration(self, layers):
        with pytest.raises(ValueError):
            ShardedMPUPool(layers, backend="gpu")
        with pytest.raises(ValueError):
            ShardedMPUPool(layers, axis="planes")
        with pytest.raises(ValueError):
            ShardedMPUPool(layers, backend="process", axis="segments")
        with pytest.raises(ValueError):
            ShardedMPUPool({})
        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG,
                            backend="serial") as pool:
            with pytest.raises(KeyError):
                pool.gemm("missing", np.zeros((32, 1)))


class TestAsyncBatcher:
    def test_coalesces_to_max_batch(self):
        calls = []

        def run_batch(items):
            calls.append(len(items))
            return [i * 10 for i in items]

        async def main():
            batcher = AsyncBatcher(run_batch,
                                   BatchPolicy(max_batch=2, max_wait_us=50_000))
            results = await asyncio.gather(*[batcher.submit(i) for i in range(5)])
            await batcher.aclose()
            return results

        results = asyncio.run(main())
        assert results == [0, 10, 20, 30, 40]  # fan-out preserves order
        assert sorted(calls) == [1, 2, 2]  # two full batches + timer flush

    def test_max_wait_flushes_partial_batch(self):
        async def main():
            batcher = AsyncBatcher(lambda items: [x + 1 for x in items],
                                   BatchPolicy(max_batch=64, max_wait_us=1_000))
            result = await asyncio.wait_for(batcher.submit(41), timeout=5.0)
            await batcher.aclose()
            return result, batcher.stats

        result, stats = asyncio.run(main())
        assert result == 42
        assert stats.batches == 1 and stats.requests == 1

    def test_zero_wait_disables_batching(self):
        sizes = []

        def run_batch(items):
            sizes.append(len(items))
            return items

        async def main():
            batcher = AsyncBatcher(run_batch, BatchPolicy(max_batch=8, max_wait_us=0))
            await asyncio.gather(*[batcher.submit(i) for i in range(3)])
            await batcher.aclose()

        asyncio.run(main())
        assert sizes == [1, 1, 1]

    def test_run_batch_off_event_loop_thread(self):
        loop_thread = threading.current_thread()
        seen = []

        def run_batch(items):
            seen.append(threading.current_thread())
            return items

        async def main():
            batcher = AsyncBatcher(run_batch, BatchPolicy(max_batch=1))
            await batcher.submit(0)
            await batcher.aclose()

        asyncio.run(main())
        assert seen and all(t is not loop_thread for t in seen)

    def test_exception_propagates_to_all_requests(self):
        def run_batch(items):
            raise RuntimeError("engine on fire")

        async def main():
            batcher = AsyncBatcher(run_batch, BatchPolicy(max_batch=2, max_wait_us=100))
            results = await asyncio.gather(batcher.submit(1), batcher.submit(2),
                                           return_exceptions=True)
            await batcher.aclose()
            return results

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_result_count_mismatch_raises(self):
        async def main():
            batcher = AsyncBatcher(lambda items: items[:-1],
                                   BatchPolicy(max_batch=2, max_wait_us=100))
            return await asyncio.gather(batcher.submit(1), batcher.submit(2),
                                        return_exceptions=True)

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_closed_batcher_refuses_submissions(self):
        async def main():
            batcher = AsyncBatcher(lambda items: items, BatchPolicy(max_batch=1))
            await batcher.aclose()
            with pytest.raises(RuntimeError):
                await batcher.submit(0)

        asyncio.run(main())

    def test_batched_gemm_rows_identical_to_solo(self, rng, layers):
        """The acceptance pin at the GEMM level: a request's output row is
        identical whether its activation column rode a micro-batch or ran
        alone through the sharded pool."""
        tensor = layers["mixed"]
        requests = [rng.standard_normal(tensor.shape[1]) for _ in range(6)]
        with ShardedMPUPool({"l": tensor}, num_shards=2, mpu_config=MPU_CFG,
                            backend="serial") as pool:
            solo = [pool.gemm("l", r)[0] for r in requests]

            def run_batch(items):
                stacked = np.stack(items, axis=1)        # (n, k)
                y, _ = pool.gemm("l", stacked)
                return [y[:, i] for i in range(len(items))]

            async def main():
                batcher = AsyncBatcher(run_batch,
                                       BatchPolicy(max_batch=4, max_wait_us=10_000))
                out = await asyncio.gather(*[batcher.submit(r) for r in requests])
                await batcher.aclose()
                return out, batcher.stats

            batched, stats = asyncio.run(main())
        assert stats.max_batch_size > 1  # genuinely coalesced
        for got, want in zip(batched, solo, strict=True):
            np.testing.assert_array_equal(got, want)
