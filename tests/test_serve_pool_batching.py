"""Worker-pool tests for the serving subsystem."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpu import MPUConfig, MPURunStats, MatrixProcessingUnit
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed
from repro.serve import PoolCounters, ShardedMPUPool
from repro.serve import workers
from repro.telemetry import telemetry_session

MPU_CFG = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)
ACCUMULATORS = (np.float16, np.float32, np.float64)
# Fan-out threshold the small-layer pools below run with, in columns of
# the "uniform" layer: batches 1..9 straddle it.
FANOUT_COLS = 4


def _layers(rng):
    w1 = rng.standard_normal((24, 32)) * 0.1
    w2 = rng.standard_normal((17, 24)) * 0.1
    return {
        "uniform": quantize_bcq(w1, BCQConfig(bits=3, group_size=8, iterations=1)),
        "mixed": quantize_bcq_mixed(w2, rng.choice([1, 2, 3], size=17),
                                    BCQConfig(group_size=7, iterations=1)),
    }


def _gemm(pool, name, x):
    """``pool.gemm`` and the counters it added to ``pool.mpu_stats``."""
    before = vars(pool.mpu_stats)
    y = pool.gemm(name, x)
    after = vars(pool.mpu_stats)
    return y, MPURunStats(**{k: after[k] - before[k] for k in after})


@pytest.fixture
def layers(rng):
    return _layers(rng)


def _fanout_reads(layers):
    """A fan-out threshold at ``FANOUT_COLS`` columns of the uniform layer."""
    mpu = MatrixProcessingUnit(MPU_CFG)
    return FANOUT_COLS * mpu.plan_stats(layers["uniform"], 1).lut_reads


@pytest.fixture
def small_threshold(monkeypatch, layers):
    """Pools built under this fixture fan out from a few columns on."""
    monkeypatch.setattr(workers, "_FANOUT_LUT_READS", _fanout_reads(layers))


@pytest.fixture(scope="module")
def fanout_pools():
    """One 3-worker pool per accumulator over the same layers,
    with the fan-out threshold at ``FANOUT_COLS`` uniform-layer columns."""
    layers = _layers(np.random.default_rng(5))
    pools = {}
    try:
        # The pools read the threshold once, when they are built.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workers, "_FANOUT_LUT_READS", _fanout_reads(layers))
            for acc in ACCUMULATORS:
                pools[np.dtype(acc)] = ShardedMPUPool(
                    layers, num_shards=3, mpu_config=MPU_CFG,
                    accumulate_dtype=acc)
        yield layers, pools
    finally:
        for pool in pools.values():
            pool.close()


class TestShardedMPUPool:
    def test_bit_exact_vs_unsharded(self, rng, layers):
        mpu = MatrixProcessingUnit(MPU_CFG)
        with ShardedMPUPool(layers, num_shards=3, mpu_config=MPU_CFG) as pool:
            for name, tensor in layers.items():
                x = rng.standard_normal((tensor.shape[1], 4))
                y_ref, stats_ref = mpu.gemm(tensor, x)
                y, stats = _gemm(pool, name, x)
                np.testing.assert_array_equal(y, y_ref)
                assert stats == stats_ref

    @pytest.mark.parametrize("num_shards", [2, 7])
    def test_fanout_bit_exact_for_any_worker_count(
            self, rng, layers, small_threshold, num_shards):
        # An uneven column split across two or seven workers merges into
        # exactly the reference's output bytes and the plan's stats.
        cols = 2 * FANOUT_COLS + 1
        mpu = MatrixProcessingUnit(MPU_CFG)
        with ShardedMPUPool(layers, num_shards=num_shards,
                            mpu_config=MPU_CFG) as pool:
            for name, tensor in layers.items():
                x = rng.standard_normal((tensor.shape[1], cols))
                y, stats = _gemm(pool, name, x)
                y_ref, _ = mpu.gemm_reference(tensor, x)
                assert y.tobytes() == y_ref.tobytes()
                assert stats == pool.plan_stats(name, cols)
            assert pool.counters == PoolCounters(fanout=len(layers))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_outputs_and_stats_equal_reference_on_every_path(
            self, fanout_pools, data):
        # Across accumulators, memory layouts and batches on both
        # sides of the fan-out threshold: output bytes equal the scalar
        # reference's, stats equal the plan's, and the call takes the path
        # its LUT reads call for.
        layers, pools = fanout_pools
        acc = np.dtype(data.draw(st.sampled_from(ACCUMULATORS)))
        name = data.draw(st.sampled_from(sorted(layers)))
        batch = data.draw(st.integers(1, 9))
        order = data.draw(st.sampled_from("CF"))
        seed = data.draw(st.integers(0, 2 ** 16))
        tensor = layers[name]
        x = np.random.default_rng(seed).standard_normal(
            (tensor.shape[1], batch))
        x = np.asarray(x, order=order)
        if batch == 1 and data.draw(st.booleans()):
            x = x[:, 0]
        pool = pools[acc]
        before = PoolCounters(**vars(pool.counters))
        y, stats = _gemm(pool, name, x)
        y_ref, _ = MatrixProcessingUnit(MPU_CFG).gemm_reference(
            tensor, x, accumulate_dtype=acc)
        assert y.shape == y_ref.shape
        assert y.tobytes() == y_ref.tobytes()
        assert stats == pool.plan_stats(name, batch)
        fanout = batch >= 2 and stats.lut_reads >= _fanout_reads(layers)
        assert pool.counters.fanout - before.fanout == int(fanout)
        assert pool.counters.inline - before.inline == int(not fanout)

    def test_fanout_starts_at_the_lut_read_threshold(self, rng):
        # With the real threshold: the last column count below it runs
        # inline, the first one at it fans out, and both match one
        # execute of the whole batch.
        tensor = quantize_bcq(rng.standard_normal((64, 64)) * 0.1,
                              BCQConfig(bits=3, group_size=32, iterations=1))
        with ShardedMPUPool({"l": tensor}, num_shards=2) as pool:
            per_col = pool.plan_stats("l", 1).lut_reads
            edge = -(-workers._FANOUT_LUT_READS // per_col)
            assert (pool.plan_stats("l", edge - 1).lut_reads
                    < workers._FANOUT_LUT_READS
                    <= pool.plan_stats("l", edge).lut_reads)
            mpu = MatrixProcessingUnit()
            prepared = mpu.prepare(tensor)
            for cols, counts in ((edge - 1, PoolCounters(inline=1)),
                                 (edge, PoolCounters(inline=1, fanout=1))):
                x = rng.standard_normal((64, cols))
                y, stats = _gemm(pool, "l", x)
                assert pool.counters == counts
                want = prepared.program.execute(x)
                want_stats = mpu.stats_from_plan(prepared.plan, cols)
                assert y.tobytes() == want.tobytes()
                assert stats == want_stats

    def test_single_worker_never_fans_out(self, rng, layers, small_threshold):
        with ShardedMPUPool(layers, num_shards=1, mpu_config=MPU_CFG) as pool:
            pool.gemm("uniform", rng.standard_normal((32, 3 * FANOUT_COLS)))
            assert pool.counters == PoolCounters(inline=1)

    def test_pool_spans_mark_the_path(self, rng, layers, small_threshold):
        # Only fanned-out calls record pool spans: the call, its chunks and
        # their merge.  An inline call records none.
        with telemetry_session() as tel, ShardedMPUPool(
                layers, num_shards=2, mpu_config=MPU_CFG) as pool:
            pool.gemm("uniform", rng.standard_normal((32, 1)))
            assert tel.trace.events() == []
            pool.gemm("uniform", rng.standard_normal((32, FANOUT_COLS + 1)))
            events = tel.trace.events()
        gemms = [e for e in events if e.name == "pool.gemm"]
        assert [e.args["cols"] for e in gemms] == [FANOUT_COLS + 1]
        shards = [e for e in events if e.name == "pool.shard"]
        assert sorted(e.args["shard"] for e in shards) == [0, 1]
        assert sum(e.args["cols"] for e in shards) == FANOUT_COLS + 1
        assert [e.name for e in events].count("pool.merge") == 1

    def test_rejects_prepared_weights_from_another_geometry(self, layers):
        # Another tiling and µ, then the pool's tiling and µ with another
        # PE-array shape (pe_cols sets the cycle count).
        for cfg in (MPUConfig(pe_rows=4, pe_cols=2, mu=2),
                    MPUConfig(pe_rows=2, pe_cols=1, mu=4, k=4)):
            mpu = MatrixProcessingUnit(cfg)
            prepared = {name: mpu.prepare(t) for name, t in layers.items()}
            with pytest.raises(ValueError, match="'uniform'"):
                ShardedMPUPool(prepared, mpu_config=MPU_CFG)
        mpu = MatrixProcessingUnit(MPU_CFG)
        prepared = {name: mpu.prepare(t) for name, t in layers.items()}
        with ShardedMPUPool(prepared, mpu_config=MPU_CFG) as pool:
            x = np.ones((layers["uniform"].shape[1], 3))
            assert _gemm(pool, "uniform", x)[1] == pool.plan_stats("uniform", 3)

    def test_concurrent_calls(self, rng, layers, small_threshold):
        # Overlapping micro-batches issue pool.gemm from different threads;
        # their chunks share the workers and must not mix across callers.
        mpu = MatrixProcessingUnit(MPU_CFG)
        tensor = layers["uniform"]
        xs = [rng.standard_normal((tensor.shape[1], FANOUT_COLS + i % 3))
              for i in range(8)]
        refs = [mpu.gemm(tensor, x)[0] for x in xs]
        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG) as pool:
            with ThreadPoolExecutor(max_workers=4) as executor:
                outs = list(executor.map(
                    lambda x: pool.gemm("uniform", x), xs))
            assert pool.counters == PoolCounters(fanout=8)
        for got, want in zip(outs, refs, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_recovers_after_a_failed_call(self, rng, layers, small_threshold):
        # Every chunk rejects the wrong-row activations; the error fails
        # that call only, and the next fanned-out call is exact.
        tensor = layers["uniform"]
        x = rng.standard_normal((tensor.shape[1], 2 * FANOUT_COLS))
        y_ref, stats_ref = MatrixProcessingUnit(MPU_CFG).gemm_reference(
            tensor, x)
        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG) as pool:
            with pytest.raises(ValueError, match="activation rows"):
                pool.gemm("uniform", x[:-1])
            y, stats = _gemm(pool, "uniform", x)
            assert pool.counters == PoolCounters(fanout=2)
        assert y.tobytes() == y_ref.tobytes()
        assert stats == stats_ref

    def test_failed_calls_leave_concurrent_calls_exact(
            self, rng, layers, small_threshold):
        # Wrong-row calls interleaved with good ones from several threads:
        # each bad call raises, and every good one returns the reference's
        # bytes.
        mpu = MatrixProcessingUnit(MPU_CFG)
        tensor = layers["uniform"]
        xs = [rng.standard_normal((tensor.shape[1], FANOUT_COLS + i % 3))
              for i in range(8)]
        refs = [mpu.gemm_reference(tensor, x)[0] for x in xs]

        def call(i):
            x = xs[i // 2]
            if i % 2 == 0:
                return pool.gemm("uniform", x)
            try:
                pool.gemm("uniform", x[:-1])
            except ValueError as exc:
                return exc
            return None

        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG) as pool:
            with ThreadPoolExecutor(max_workers=4) as executor:
                outs = list(executor.map(call, range(16)))
            assert pool.counters == PoolCounters(fanout=16)
        for i, out in enumerate(outs):
            if i % 2:
                assert isinstance(out, ValueError)
            else:
                assert out.tobytes() == refs[i // 2].tobytes()

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_failed_fanout_call_drains_every_chunk(
            self, rng, layers, small_threshold, failing):
        # One chunk raises at once while the others are still running; the
        # call must raise only after they have finished, so none of them
        # holds a worker the next call would queue behind.
        tensor = layers["uniform"]
        x = rng.standard_normal((tensor.shape[1], 3 * FANOUT_COLS))
        y_ref, _ = MatrixProcessingUnit(MPU_CFG).gemm_reference(tensor, x)
        finished = []
        with ShardedMPUPool(layers, num_shards=3, mpu_config=MPU_CFG) as pool:
            real = pool._run_chunk

            def run_chunk(name, program, w, chunk):
                if w == failing:
                    raise RuntimeError(f"chunk {w} failed")
                time.sleep(0.05 * (w + 1))  # the last chunk finishes last
                out = real(name, program, w, chunk)
                finished.append(w)
                return out

            pool._run_chunk = run_chunk
            with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
                pool.gemm("uniform", x)
            assert sorted(finished) == [w for w in range(3) if w != failing]
            del pool._run_chunk
            y = pool.gemm("uniform", x)
        assert y.tobytes() == y_ref.tobytes()

    def test_failed_fanout_call_raises_the_first_error_in_chunk_order(
            self, rng, layers, small_threshold):
        # Chunk 2 fails first in time, chunk 1 later: chunk 1's error wins.
        x = rng.standard_normal((layers["uniform"].shape[1], 3 * FANOUT_COLS))
        with ShardedMPUPool(layers, num_shards=3, mpu_config=MPU_CFG) as pool:
            real = pool._run_chunk

            def run_chunk(name, program, w, chunk):
                if w == 0:
                    return real(name, program, w, chunk)
                time.sleep(0.05 * (3 - w))
                raise RuntimeError(f"chunk {w} failed")

            pool._run_chunk = run_chunk
            with pytest.raises(RuntimeError, match="chunk 1 failed"):
                pool.gemm("uniform", x)

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_closed_pool_refuses_every_call(self, rng, layers,
                                            small_threshold, num_shards):
        # Inline and fanned-out calls alike raise once the pool is closed.
        pool = ShardedMPUPool(layers, num_shards=num_shards,
                              mpu_config=MPU_CFG)
        pool.close()
        for cols in (1, 2 * FANOUT_COLS):
            with pytest.raises(RuntimeError, match="pool is closed"):
                pool.gemm("uniform", rng.standard_normal((32, cols)))
        assert pool.counters == PoolCounters()
        assert pool.mpu_stats == MPURunStats()
        pool.close()  # closing twice is harmless

    def test_failed_calls_add_no_mpu_stats(self, rng, layers,
                                           small_threshold):
        # A call that raises, inline or fanned out, counts towards the
        # path counters but adds nothing to the plan counters.
        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG) as pool:
            pool.gemm("uniform", rng.standard_normal((32, 1)))
            counted = pool.mpu_stats
            for cols in (1, 2 * FANOUT_COLS):
                with pytest.raises(ValueError, match="activation rows"):
                    pool.gemm("uniform", rng.standard_normal((31, cols)))
            assert pool.mpu_stats == counted == pool.plan_stats("uniform", 1)
            assert pool.counters == PoolCounters(inline=2, fanout=1)

    def test_mpu_stats_sum_the_plan_stats_of_every_call(
            self, rng, layers, small_threshold):
        # Inline and fanned-out calls over both layers, some from other
        # threads: the counters equal Σ plan_stats over the calls.
        calls = [(name, cols) for name in ("uniform", "mixed")
                 for cols in (1, 3, FANOUT_COLS, 2 * FANOUT_COLS + 1)]
        with ShardedMPUPool(layers, num_shards=3, mpu_config=MPU_CFG) as pool:
            for name, cols in calls:
                pool.gemm(name, rng.standard_normal((layers[name].shape[1],
                                                     cols)))
            with ThreadPoolExecutor(max_workers=3) as executor:
                list(executor.map(
                    lambda call: pool.gemm(call[0], np.ones(
                        (layers[call[0]].shape[1], call[1]))), calls))
            assert pool.counters.inline and pool.counters.fanout
            want = MPURunStats()
            for name, cols in calls * 2:
                want = want.merge(pool.plan_stats(name, cols))
            assert pool.mpu_stats == want

    def test_fanout_runs_on_the_pool_threads(self, rng, layers,
                                             small_threshold):
        # Chunk 0 runs on the calling thread, the others on the pool's
        # worker threads, which close() joins.
        threads = {}
        with ShardedMPUPool(layers, num_shards=3, mpu_config=MPU_CFG) as pool:
            real = pool._run_chunk

            def run_chunk(name, program, w, chunk):
                threads[w] = threading.current_thread()
                return real(name, program, w, chunk)

            pool._run_chunk = run_chunk
            pool.gemm("uniform", rng.standard_normal((32, 3 * FANOUT_COLS)))
        assert sorted(threads) == [0, 1, 2]
        assert threads[0] is threading.current_thread()
        pool_threads = [threads[1], threads[2]]
        assert all(t.name.startswith("mpu-pool") for t in pool_threads)
        assert not any(t.is_alive() for t in pool_threads)

    def test_backend_is_a_constant(self, layers):
        assert ShardedMPUPool.backend == "thread"
        with pytest.raises(TypeError):
            ShardedMPUPool(layers, backend="thread")

    def test_plan_stats_equal_merged_run_stats(self, rng, layers,
                                               small_threshold):
        with ShardedMPUPool(layers, num_shards=3, mpu_config=MPU_CFG) as pool:
            for cols in (2, 3 * FANOUT_COLS):
                x = rng.standard_normal((layers["uniform"].shape[1], cols))
                _, merged = _gemm(pool, "uniform", x)
                assert merged == pool.plan_stats("uniform", batch=cols)
            assert pool.counters == PoolCounters(inline=1, fanout=1)

    def test_plan_stats_reject_negative_batch(self, layers):
        with ShardedMPUPool(layers, num_shards=1, mpu_config=MPU_CFG) as pool:
            for batch in (-1, -2):
                with pytest.raises(ValueError, match="batch"):
                    pool.plan_stats("uniform", batch)

    def test_rejects_bad_configuration(self, layers):
        with pytest.raises(ValueError):
            ShardedMPUPool(layers, num_shards=0)
        with pytest.raises(ValueError):
            ShardedMPUPool({})
        with ShardedMPUPool(layers, num_shards=2, mpu_config=MPU_CFG) as pool:
            with pytest.raises(KeyError):
                pool.gemm("missing", np.zeros((32, 1)))

    def test_stacked_request_columns_identical_to_solo(self, rng, layers):
        """The pin at the GEMM level: a request's output column is
        identical whether its activation column rode a stacked batch or
        ran alone through the sharded pool."""
        tensor = layers["mixed"]
        requests = [rng.standard_normal(tensor.shape[1]) for _ in range(6)]
        with ShardedMPUPool({"l": tensor}, num_shards=2,
                            mpu_config=MPU_CFG) as pool:
            solo = [pool.gemm("l", r) for r in requests]
            stacked = pool.gemm("l", np.stack(requests, axis=1))
        for i, want in enumerate(solo):
            np.testing.assert_array_equal(stacked[:, i], want)
