"""Perf trajectory for the batched MPU tile executor.

Like :mod:`benchmarks.test_quantize_speed`, these rows pin *throughput*
rather than a paper figure: the MPU's tile × batch × bit-plane walk was the
repo's last dominant interpreter-bound loop, and the planner/executor split
turned it into a batched NumPy pass.  Measured on the reference machine, a
full OPT-layer shape (4096×4096, batch 32, 4-bit) now runs `detailed=True`
in ~1.7 s, and the batched executor beats the retained scalar reference by
~38× on the benchmark slice (the gap widens with shape, so the slice floor
is conservative for full layers).
"""

import time

import numpy as np

from benchmarks.conftest import record_bench, run_once
from repro.core import native
from repro.core.gemm import figlut_gemm, prepare_weights
from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.eval.tables import format_table
from repro.serve import ShardedMPUPool


def test_mpu_gemm_full_layer_shape(benchmark):
    """Detailed MPU simulation of a full OPT layer GEMM (4096×4096 @ 32).

    This shape was unusable on the seed's scalar walk (hours); the batched
    executor must keep it interactive.
    """
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4096, 4096)) * 0.05
    x = rng.standard_normal((4096, 32))
    packed = prepare_weights(w, bits=4, method="uniform", group_size=128)
    mpu = MatrixProcessingUnit(MPUConfig())

    y, stats = run_once(benchmark, mpu.gemm, packed, x,
                        accumulate_dtype=np.float32)

    assert y.shape == (4096, 32)
    reference = packed.dequantize() @ x
    rel = float(np.linalg.norm(y - reference) / np.linalg.norm(reference))
    print("\n[MPU speed] 4096x4096 @ batch 32 / 4-bit detailed MPU: "
          f"relative error {rel:.2e}, cycles {stats.cycles:,}, "
          f"LUT reads {stats.lut_reads:,}")
    assert rel < 1e-5
    assert stats.tiles == (4096 // 64) * (4096 // 64)


def test_mpu_batched_speedup_vs_scalar_reference(benchmark):
    """Batched executor vs the retained scalar reference on the same plan.

    The scalar reference costs ~µs per (step, batch, µ-group) scalar LUT
    pass, so the comparison runs on a slice small enough to stay quick; the
    per-step cost of both paths is shape-linear (the batched path only gets
    *more* efficient on full layers, where its per-call overheads amortise
    further), so the floor asserted here is conservative for the full-layer
    shape above.
    """
    rng = np.random.default_rng(1)
    w = rng.standard_normal((256, 512)) * 0.05
    x = rng.standard_normal((512, 8))
    packed = prepare_weights(w, bits=4, method="uniform", group_size=128)
    mpu = MatrixProcessingUnit(MPUConfig())

    mpu.gemm(packed, x, accumulate_dtype=np.float32)  # warm caches
    y, stats = run_once(benchmark, mpu.gemm, packed, x,
                        accumulate_dtype=np.float32)

    start = time.perf_counter()
    y_ref, stats_ref = mpu.gemm_reference(packed, x, accumulate_dtype=np.float32)
    t_ref = time.perf_counter() - start
    best_batched = 1e9
    for _ in range(3):
        start = time.perf_counter()
        mpu.gemm(packed, x, accumulate_dtype=np.float32)
        best_batched = min(best_batched, time.perf_counter() - start)
    speedup = t_ref / best_batched

    rows = [["scalar reference", t_ref * 1e3, 1.0],
            ["batched executor", best_batched * 1e3, speedup]]
    print("\n[MPU speed] 256x512 @ batch 8 / 4-bit / fp32 accumulators\n"
          + format_table(["Path", "Time (ms)", "Speedup"], rows))

    np.testing.assert_array_equal(y, y_ref)
    assert stats == stats_ref
    record_bench("mpu_speed::batched_vs_scalar", "speedup_x", speedup,
                 floor=10.0)
    # Conservative floor (measured ~38x); catches a return to scalar loops.
    assert speedup > 10.0


def test_mpu_native_kernel_large_shape(benchmark):
    """The native kernel on a large layer: 1024×1024, 3-bit, fp32.

    Reports the median ms per call at batch 1, 8 and 32.  Batch 1 is
    checked bitwise against the scalar reference, and batch 32 on its
    first 64 rows (a row slice runs bit-identically to the same rows of
    the whole layer), so the kernel's column tiling is covered too.
    Measured on a 2-vCPU Xeon VM: ~0.5 / 3 / 6 ms, where the retired
    NumPy lowering took ~5.8 / 11 / 24 ms.
    """
    rng = np.random.default_rng(5)
    w = rng.standard_normal((1024, 1024)) * 0.05
    tensor = prepare_weights(w, bits=3, method="bcq", group_size=128)
    mpu = MatrixProcessingUnit(MPUConfig())
    prepared = mpu.prepare(tensor)
    program = prepared.program

    x = rng.standard_normal((1024, 32))
    y = run_once(benchmark, program.execute, x, accumulate_dtype=np.float32)
    stats = mpu.stats_from_plan(prepared.plan, 32)
    y_ref, s_ref = mpu.gemm_reference(tensor, x[:, :1],
                                      accumulate_dtype=np.float32)
    y1 = program.execute(x[:, :1], accumulate_dtype=np.float32)
    s1 = mpu.stats_from_plan(prepared.plan, 1)
    assert y1.tobytes() == y_ref.tobytes() and s1 == s_ref
    y_rows, _ = mpu.gemm_reference(tensor.take_rows(slice(0, 64)), x,
                                   accumulate_dtype=np.float32)
    assert y[:64].tobytes() == y_rows.tobytes()
    assert stats == mpu.plan_stats(tensor, 32)

    rows = []
    for batch in (1, 8, 32):
        times = []
        for _ in range(11):
            start = time.perf_counter()
            program.execute(x[:, :batch], accumulate_dtype=np.float32)
            times.append(time.perf_counter() - start)
        ms = sorted(times)[len(times) // 2] * 1e3
        rows.append([f"batch {batch}", ms])
        record_bench(f"mpu_speed::native_kernel_1024_b{batch}", "ms", ms,
                     unit="ms")
    print("\n[MPU speed] native kernel, 1024x1024 / 3-bit / fp32 "
          "accumulators\n" + format_table(["Shape", "Median (ms)"], rows))


def test_native_kernel_width_sweep():
    """The native kernel's cost at every column-tile width, record-only.

    The bench model's ``mlp.w1`` shape (512×128, 3-bit BCQ, group size
    128, default MPU, float64 accumulators) at widths 1–17 and 32: best of
    7×20 µs per ``native.run`` call and ns per LUT read.  Each width has its
    own constant-width plane and scale body, so the cost should grow with
    the width instead of jumping from 1 column to 2.  No floor: the rows
    only carry the per-width curve into the trajectory.  Each width's
    output equals the same columns of the 32-column output, bit for bit.
    """
    rng = np.random.default_rng(6)
    w = rng.standard_normal((512, 128)) * 0.05
    tensor = prepare_weights(w, bits=3, method="bcq", group_size=128)
    mpu = MatrixProcessingUnit(MPUConfig())
    program = mpu.prepare(tensor).program
    struct = native.bind(program)
    x = rng.standard_normal((128, 32))
    y32 = program.execute(x, accumulate_dtype=np.float64)

    rows = []
    for width in [*range(1, 18), 32]:
        xs = np.ascontiguousarray(x[:, :width])
        y = program.execute(xs, accumulate_dtype=np.float64)
        assert y.tobytes() == y32[:, :width].tobytes(), width
        out = np.zeros((512, width))
        best = float("inf")
        for _ in range(7):
            start = time.perf_counter()
            for _ in range(20):
                native.run(struct, xs, np.float64, out)
            best = min(best, (time.perf_counter() - start) / 20)
        us = best * 1e6
        ns_per_read = best * 1e9 / mpu.plan_stats(tensor, width).lut_reads
        rows.append([width, us, ns_per_read])
        record_bench(f"mpu_speed::kernel_width_w{width}", "us_per_call", us,
                     unit="us")
        record_bench(f"mpu_speed::kernel_width_w{width}", "ns_per_lut_read",
                     ns_per_read, unit="ns")
    print("\n[MPU speed] native kernel per column width, 512x128 / 3-bit / "
          "fp64 accumulators\n"
          + format_table(["Width", "us per call", "ns per LUT read"], rows))


def _pool_and_kernel_us(name: str, shape: tuple[int, int],
                        rng: np.random.Generator) -> dict[str, float]:
    """Best of 7×200 µs per 1-column ``pool.gemm`` and ``native.run`` call
    of a 3-bit BCQ layer of ``shape`` (128-column groups), interleaved."""
    w = rng.standard_normal(shape) * 0.05
    tensor = prepare_weights(w, bits=3, method="bcq", group_size=128)
    x = rng.standard_normal((shape[1], 1))
    out = np.zeros((shape[0], 1))
    with ShardedMPUPool({name: tensor}, num_shards=2) as pool:
        struct = native.bind(pool.mpu.prepare(tensor).program)
        calls = {"pool.gemm": lambda: pool.gemm(name, x),
                 "native.run": lambda: native.run(struct, x, np.float64, out)}
        best = dict.fromkeys(calls, float("inf"))
        for _ in range(7):
            for path, call in calls.items():
                start = time.perf_counter()
                for _ in range(200):
                    call()
                best[path] = min(best[path],
                                 (time.perf_counter() - start) / 200 * 1e6)
        assert pool.counters.inline == 7 * 200  # no fan-out at 1 column
    return best


def test_pool_call_host_overhead():
    """Host time a 1-column pool call spends outside the kernel, record-only.

    Two bench-model layer shapes, each served by a 2-worker
    :class:`~repro.serve.ShardedMPUPool`: ``mlp.w1`` (512×128, one scale
    group, as in the width sweep) and ``mlp.w2`` (128×512, four scale
    groups, so four offset terms per output).  Per shape: ``pool.gemm``,
    ``native.run`` and their difference — activation normalisation and the
    pool's dispatch and counters.  ``native.run`` is the whole GEMM, offset
    stage included, so the difference holds no arithmetic.  No floor: the
    rows carry the batch-1 per-call overhead into the trajectory.
    """
    rng = np.random.default_rng(6)
    rows = []
    for name, shape in (("mlp.w1", (512, 128)), ("mlp.w2", (128, 512))):
        best = _pool_and_kernel_us(name, shape, rng)
        overhead = best["pool.gemm"] - best["native.run"]
        rows += [[name, path, us] for path, us in best.items()]
        rows.append([name, "overhead", overhead])
        record_bench(f"mpu_speed::pool_call_overhead_{name.split('.')[1]}",
                     "us_per_call", overhead, unit="us")
    print("\n[MPU speed] 1-column call, 3-bit / fp64 accumulators\n"
          + format_table(["Layer", "Path", "us per call"], rows))


def test_mpu_detailed_api_full_stack(benchmark):
    """`figlut_gemm(detailed=True)` end-to-end on a production-shaped slice."""
    rng = np.random.default_rng(2)
    w = rng.standard_normal((1024, 1024)) * 0.05
    x = rng.standard_normal((1024, 16))
    packed = prepare_weights(w, bits=3, method="bcq", group_size=128)

    y, stats = run_once(benchmark, figlut_gemm, packed, x, detailed=True,
                        accumulator="fp32")

    assert y.shape == (1024, 16)
    reference = packed.dequantize() @ x
    rel = float(np.linalg.norm(y - reference) / np.linalg.norm(reference))
    print(f"\n[MPU speed] figlut_gemm(detailed=True) 1024x1024 @ 16: "
          f"relative error {rel:.2e}, cycles {stats.cycles:,}")
    assert rel < 1e-5
    assert stats.cycles > 0
