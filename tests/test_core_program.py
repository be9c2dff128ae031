"""Plan-compiler tests: compiled programs vs the scalar reference oracle.

The compilation contract (``docs/compilation.md``): for every plan family —
uniform, ragged, mixed per-row precision — and every accumulator dtype, the
:class:`~repro.core.program.CompiledProgram` produced by
:func:`~repro.core.program.compile_plan` and run by the native kernel is
**bit-identical** to the scalar ``gemm_reference``, outputs *and*
:class:`~repro.core.mpu.MPURunStats`, and a prepared tensor runs
bit-identically to the raw one; the kernel's column tiling never changes a bit; the kernel boundary
rejects malformed buffers and its build is cached.
"""

import ctypes
import dataclasses
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import native
from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.core.program import CompiledProgram, compile_plan
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed
from repro.telemetry import telemetry_session

MPU_CFG = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)  # tile 4×8

KINDS = ["uniform", "ragged", "mixed"]

# Activation families: plain Gaussians; Gaussians scaled so fp16 LUT
# entries and partials overflow to ±inf and inf − inf yields NaN; and
# all-zero columns (+0.0 and −0.0), which take the signed-zero path.
INPUTS = ["gaussian", "fp16-overflow", "zero-columns"]


def _case(rng, kind, inputs="gaussian"):
    """(tensor, activations) exercising one plan family (ragged everything)."""
    if kind == "uniform":
        w = rng.standard_normal((32, 32)) * 0.1
        tensor = quantize_bcq(w, BCQConfig(bits=3, group_size=8, iterations=1))
    elif kind == "ragged":
        w = rng.standard_normal((29, 27)) * 0.1
        tensor = quantize_bcq(w, BCQConfig(bits=3, group_size=7, iterations=1))
    else:  # mixed per-row precision, incl. rows below max_planes
        w = rng.standard_normal((30, 26)) * 0.1
        row_bits = rng.choice([1, 2, 3, 4], size=30)
        tensor = quantize_bcq_mixed(w, row_bits,
                                    BCQConfig(group_size=6, iterations=1))
    x = rng.standard_normal((tensor.shape[1], 5))
    if inputs == "fp16-overflow":
        x *= 3e4
    elif inputs == "zero-columns":
        x[:, 1] = 0.0
        x[:, 3] = -0.0
    return tensor, x


def _assert_same(lhs, rhs):
    """Outputs bit-for-bit equal — signed zeros and NaN payloads included —
    and stats equal (the compilation contract)."""
    y_l, s_l = lhs
    y_r, s_r = rhs
    assert y_l.shape == y_r.shape and y_l.dtype == y_r.dtype
    assert y_l.tobytes() == y_r.tobytes()
    assert s_l == s_r


def _executed(program, plan, x, **kwargs):
    """``program.execute`` paired with its plan's stats at its batch, as
    ``MatrixProcessingUnit.gemm`` pairs them."""
    y = program.execute(x, **kwargs)
    return y, MatrixProcessingUnit(MPU_CFG).stats_from_plan(
        plan, 1 if y.ndim == 1 else y.shape[1])


class TestCompiledEquivalence:
    @pytest.mark.parametrize("inputs", INPUTS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("acc", [np.float16, np.float32, np.float64])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_compiled_matches_reference(self, rng, kind, acc, inputs):
        tensor, x = _case(rng, kind, inputs)
        mpu = MatrixProcessingUnit(MPU_CFG)
        ref = mpu.gemm_reference(tensor, x, accumulate_dtype=acc)
        if inputs == "fp16-overflow" and acc is np.float16:
            assert np.isinf(ref[0]).any() and np.isnan(ref[0]).any()
        _assert_same(mpu.gemm(tensor, x, accumulate_dtype=acc), ref)

    @pytest.mark.parametrize("kind", KINDS)
    def test_prepare_embeds_program_and_runs_it(self, rng, kind):
        tensor, x = _case(rng, kind)
        mpu = MatrixProcessingUnit(MPU_CFG)
        prepared = mpu.prepare(tensor)
        assert isinstance(prepared.program, CompiledProgram)
        # The prepared fast path, the embedded program directly, and an
        # on-the-fly compile from the raw tensor all agree bitwise.
        _assert_same(mpu.gemm(prepared, x),
                     _executed(prepared.program, prepared.plan, x))
        fresh = compile_plan(prepared.plan, tensor)
        _assert_same(mpu.gemm(prepared, x),
                     _executed(fresh, prepared.plan, x))
        _assert_same(mpu.gemm(prepared, x), mpu.gemm(tensor, x))

    def test_vector_input_squeezes(self, rng):
        tensor, x = _case(rng, "ragged")
        mpu = MatrixProcessingUnit(MPU_CFG)
        y, stats = mpu.gemm(tensor, x[:, 0])
        assert y.shape == (tensor.shape[0],)
        y2, stats2 = mpu.gemm_reference(tensor, x[:, 0])
        _assert_same((y, stats), (y2, stats2))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_layer_sized_program_matches_reference(self, mixed):
        # A serving-layer shape at the default MPU geometry: 256×512, 3-bit,
        # 128-column scale groups, fp32 accumulators.
        rng = np.random.default_rng(10 + mixed)
        w = rng.standard_normal((256, 512)) * 0.05
        config = BCQConfig(bits=3, group_size=128, iterations=1)
        tensor = (quantize_bcq_mixed(w, rng.integers(1, 4, size=256), config)
                  if mixed else quantize_bcq(w, config))
        x = rng.standard_normal((512, 2))
        mpu = MatrixProcessingUnit()
        _assert_same(mpu.gemm(tensor, x, accumulate_dtype=np.float32),
                     mpu.gemm_reference(tensor, x,
                                        accumulate_dtype=np.float32))

    def test_batch_chunking_is_exact(self, rng):
        # No reduction crosses batch columns — the offset stage sums every
        # column alone, whatever the caller's memory layout — so running
        # the batch in column chunks, down to single columns, and from C-
        # or F-order input, must not move a bit.  The uniform case's
        # 8-column scale groups are long enough for NumPy's pairwise sum
        # to differ from a row-by-row one.
        for kind in ("mixed", "uniform"):
            tensor, _ = _case(rng, kind)
            x = rng.standard_normal((tensor.shape[1], 12))
            mpu = MatrixProcessingUnit(MPU_CFG)
            prepared = mpu.prepare(tensor)
            prog, plan = prepared.program, prepared.plan
            y, stats = _executed(prog, plan, x, accumulate_dtype=np.float32)
            assert stats == mpu.stats_from_plan(plan, 12)
            for layout in (np.ascontiguousarray(x), np.asfortranarray(x)):
                _assert_same(_executed(prog, plan, layout,
                                       accumulate_dtype=np.float32),
                             (y, stats))
                for bounds in (((0, 5), (5, 7), (7, 12)),
                               tuple((i, i + 1) for i in range(12))):
                    chunks = [prog.execute(layout[:, lo:hi],
                                           accumulate_dtype=np.float32)
                              for lo, hi in bounds]
                    _assert_same((np.concatenate(chunks, axis=1), stats),
                                 (y, stats))
                column = prog.execute(layout[:, 4],
                                      accumulate_dtype=np.float32)
                assert column.tobytes() == y[:, 4].tobytes()

    @pytest.mark.parametrize("acc", [np.float16, np.float32, np.float64])
    def test_column_tiling_is_exact(self, rng, acc):
        # 37 columns span two full kernel column tiles plus a ragged one.
        tensor, _ = _case(rng, "mixed")
        x = rng.standard_normal((tensor.shape[1], 37))
        mpu = MatrixProcessingUnit(MPU_CFG)
        _assert_same(mpu.gemm(tensor, x, accumulate_dtype=acc),
                     mpu.gemm_reference(tensor, x, accumulate_dtype=acc))

    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    def test_every_tile_width_matches_reference(self, kind):
        # The kernel runs each column width 1..16 through its own
        # constant-width plane and scale body; widths 17..33 add a second
        # and third tile.  37 rows is prime, so at every width below 9,
        # where a block holds 16 / w > 1 rows, the rows after the last
        # block run on the runtime-width loop, and the mixed
        # tensor adds masked planes.  A reference column equals the same
        # column run alone, so one 33-column reference per accumulator
        # checks every width.
        rng = np.random.default_rng(37)
        w = rng.standard_normal((37, 23)) * 0.1
        if kind == "uniform":
            tensor = quantize_bcq(w, BCQConfig(bits=3, group_size=6,
                                               iterations=1))
        else:
            tensor = quantize_bcq_mixed(w, rng.integers(1, 5, size=37),
                                        BCQConfig(group_size=6, iterations=1))
        x = rng.standard_normal((23, 33))
        mpu = MatrixProcessingUnit(MPU_CFG)
        prepared = mpu.prepare(tensor)
        program, plan = prepared.program, prepared.plan
        for acc in (np.float16, np.float32, np.float64):
            y_ref, s_ref = mpu.gemm_reference(tensor, x, accumulate_dtype=acc)
            assert mpu.stats_from_plan(plan, 33) == s_ref
            for width in range(1, 34):
                y, stats = _executed(program, plan, x[:, :width],
                                     accumulate_dtype=acc)
                assert y.tobytes() == y_ref[:, :width].tobytes(), (acc, width)
                assert stats == mpu.plan_stats(tensor, width)


class TestProgramStructure:
    def test_program_geometry(self, rng):
        tensor, _ = _case(rng, "ragged")
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        prog = compile_plan(plan, tensor)
        n_seg = len(plan.segments)
        assert prog.num_segments == n_seg
        assert prog.num_slots == n_seg * prog.slots_per_segment
        assert len(prog.passes) == tensor.bits
        assert len(prog.offset_slices) == plan.num_scale_groups
        for pp in prog.passes:
            assert pp.keys.shape == (prog.num_slots, tensor.shape[0])
            assert pp.scales.dtype == np.float64

    def test_stats_reject_negative_batch(self, rng):
        tensor, _ = _case(rng, "uniform")
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        for batch in (-1, -2):
            with pytest.raises(ValueError, match="batch"):
                mpu.stats_from_plan(plan, batch)
            with pytest.raises(ValueError, match="batch"):
                mpu.plan_stats(tensor, batch)


class TestSlicedExecution:
    """A layer's GEMM splits two ways without moving a bit: by weight rows
    (``take_rows`` runs exactly like the same rows of the whole tensor) and
    by activation columns (the worker pool's fan-out axis)."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("parts", [1, 2, 7])
    def test_row_slices_concatenate_bit_exact(self, rng, kind, parts):
        tensor, x = _case(rng, kind)
        mpu = MatrixProcessingUnit(MPU_CFG)
        y_full, _ = mpu.gemm(tensor, x)
        pieces = []
        for rows in np.array_split(np.arange(tensor.shape[0]), parts):
            sliced = tensor.take_rows(slice(rows[0], rows[-1] + 1))
            result = mpu.gemm(sliced, x)
            _assert_same(result, mpu.gemm_reference(sliced, x))
            pieces.append(result[0])
        merged = np.concatenate(pieces, axis=0)
        assert merged.shape == y_full.shape
        assert merged.tobytes() == y_full.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("parts", [1, 2, 7])
    def test_column_chunks_concatenate_bit_exact(self, rng, kind, parts):
        tensor, _ = _case(rng, kind)
        x = rng.standard_normal((tensor.shape[1], 9))
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        prog = compile_plan(plan, tensor)
        y_full = prog.execute(x, accumulate_dtype=np.float32)
        pieces = []
        for cols in np.array_split(np.arange(x.shape[1]), parts):
            y, stats = _executed(prog, plan, x[:, cols],
                                 accumulate_dtype=np.float32)
            assert stats == mpu.stats_from_plan(plan, cols.size)
            pieces.append(y)
        assert np.concatenate(pieces, axis=1).tobytes() == y_full.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_reference_counts_equal_analytic_stats(self, rng, kind):
        # The oracle increments its counters as its loops run; the plan's
        # analytic counters never execute anything.  They agree at every
        # batch width, one systolic pass per (tile, plane) either way.
        tensor, _ = _case(rng, kind)
        x = rng.standard_normal((tensor.shape[1], 4))
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        for batch in (1, 2, 4):
            _, counted = mpu.gemm_reference(tensor, x[:, :batch])
            assert counted == mpu.stats_from_plan(plan, batch)


class TestProgramErrors:
    def test_wrong_activation_rows(self, rng):
        tensor, x = _case(rng, "uniform")
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        with pytest.raises(ValueError, match="activation rows"):
            prog.execute(x[:-1])

    def test_prepared_gemm_rejects_wrong_activation_rows(self, rng):
        tensor, x = _case(rng, "mixed")
        mpu = MatrixProcessingUnit(MPU_CFG)
        prepared = mpu.prepare(tensor)
        with pytest.raises(ValueError, match="activation rows"):
            mpu.gemm(prepared, x[:-1, 0])

    def test_reference_rejects_wrong_activation_rows(self, rng):
        tensor, x = _case(rng, "ragged")
        with pytest.raises(ValueError, match="activation rows"):
            MatrixProcessingUnit(MPU_CFG).gemm_reference(tensor, x[1:])

    def test_plan_weights_shape_mismatch(self, rng):
        tensor, _ = _case(rng, "uniform")
        other, _ = _case(rng, "ragged")
        plan = MatrixProcessingUnit(MPU_CFG).plan(tensor)
        with pytest.raises(ValueError, match="does not match"):
            compile_plan(plan, other)

    @pytest.mark.parametrize("batch", [1, 9])
    def test_profile_bytes_match_per_plane_formula(self, rng, batch):
        # program.fused.plane / .scale rollups count each plane's traffic,
        # so bandwidth figures stay comparable across program shapes.
        tensor, _ = _case(rng, "mixed")
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        acc = 4
        slots, rows = prog.num_slots, [pp.keys.shape[1] for pp in prog.passes]
        expected = (
            slots * prog.mu * batch * 8 + slots * batch * (1 << prog.mu) * acc,
            sum(pp.keys.nbytes + 2 * slots * r * batch * acc
                for pp, r in zip(prog.passes, rows, strict=True)),
            sum(2 * r * batch * 8 for r in rows) * prog.num_segments,
            sum((stop - start) * batch * 8 + prog.m * batch * 8
                for start, stop in prog.offset_slices),
        )
        assert prog._profile_bytes(batch, acc) == expected


# (columns, group_size) of tensors whose scale groups take every branch of
# the kernel's pairwise group sum: fewer than 8 rows (29 / 5, ragged tail
# 4), up to 128 with a ragged 8-block tail (100 / 37: 37, 37, 26), exactly
# 128 and a 1-row tail (257 / 128), and above 128, split once or twice
# (300 / 133: 133, 133, 34; 300 / 300).
GROUP_SHAPES = [(29, 5), (100, 37), (257, 128), (300, 133), (300, 300)]


def _special_columns(x, groups):
    """``x`` with non-finite and signed-zero groups in columns 1-4: an
    all ``-0.0`` group, a group holding ``+inf``, one holding a NaN, and one
    holding both infinities."""
    first, last = groups[0], groups[-1]
    x[first, 1] = -0.0
    x[last.start, 2] = np.inf
    x[first.stop - 1, 3] = np.nan
    x[first.start, 4], x[last.stop - 1, 4] = np.inf, -np.inf
    return x


class TestOffsetStage:
    """The kernel adds every scale group's offset term after the LUT
    datapath, summing each group of each column in NumPy's pairwise order,
    so it matches ``gemm_reference``'s ``x[a:b].sum(axis=0)`` byte for byte."""

    @pytest.mark.parametrize("n, group_size", GROUP_SHAPES)
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_group_lengths_match_reference(self, n, group_size):
        rng = np.random.default_rng(n + group_size)
        w = rng.standard_normal((6, n)) * 0.1
        tensor = quantize_bcq(w, BCQConfig(bits=2, group_size=group_size,
                                           iterations=1))
        x = _special_columns(
            rng.standard_normal((n, 1024)) * 10.0 ** rng.uniform(-3, 3, (n, 1)),
            tensor.column_groups())
        mpu = MatrixProcessingUnit()
        prepared = mpu.prepare(tensor)
        # A column of a batch equals the column run alone, so the 1024-column
        # run is checked on columns at tile edges and the special ones.
        cols = [0, 1, 2, 3, 4, 5, 15, 16, 17, 1023]
        for acc in (np.float16, np.float32, np.float64):
            want, _ = mpu.gemm_reference(tensor, x[:, cols],
                                         accumulate_dtype=acc)
            for batch in (1, 6):
                got = prepared.program.execute(x[:, :batch],
                                               accumulate_dtype=acc)
                assert got.tobytes() == want[:, :batch].tobytes(), (acc, batch)
            got = prepared.program.execute(x, accumulate_dtype=acc)[:, cols]
            assert got.tobytes() == want.tobytes(), acc

    @pytest.mark.parametrize("batch", [1, 6, 1024])
    def test_group_sum_is_numpys_column_sum(self, batch):
        # A program with no bit planes and a 1.0 offset returns its group
        # sum itself, so every length pins the kernel's pairwise order to
        # NumPy's own x[a:b].sum(axis=0) over column-contiguous activations:
        # a NumPy change to its pairwise summation fails here.
        rng = np.random.default_rng(batch)
        lengths = list(range(1, 300)) + [512, 1000, 4096]
        if batch == 1024:
            lengths = [1, 7, 8, 9, 127, 128, 129, 255, 256, 299, 1000]
        n = max(lengths) + 3
        x = np.asfortranarray(rng.standard_normal((n, batch))
                              * 10.0 ** rng.uniform(-3, 3, (n, 1)))
        for length in lengths:
            program = CompiledProgram(
                m=1, n=n, mu=4, num_segments=0, slots_per_segment=0,
                lut_cols=np.zeros((0, 4), dtype=np.int64), passes=(),
                offsets=np.ones((1, 1)), offset_slices=((3, 3 + length),))
            want = x[3:3 + length].sum(axis=0)
            assert program.execute(x)[0].tobytes() == want.tobytes(), length

    def test_negative_zero_group_sums_to_positive_zero(self):
        # NumPy sums an all -0.0 column group to +0.0 (its output starts at
        # +0.0); y starts at +0.0 too, so no zero's sign may leak into Y.
        program = CompiledProgram(
            m=1, n=20, mu=4, num_segments=0, slots_per_segment=0,
            lut_cols=np.zeros((0, 4), dtype=np.int64), passes=(),
            offsets=np.ones((1, 2)), offset_slices=((0, 5), (5, 20)))
        y = program.execute(np.full((20, 3), -0.0))
        assert y.tobytes() == np.zeros((1, 3)).tobytes()


def _with_pass(program, p, **replacements):
    """``program`` with plane ``p``'s buffers replaced."""
    passes = list(program.passes)
    passes[p] = dataclasses.replace(passes[p], **replacements)
    return dataclasses.replace(program, passes=tuple(passes))


class TestKernelBoundary:
    """Every buffer is checked before a raw pointer reaches C: a malformed
    one raises ``ValueError`` instead of reading out of bounds."""

    @pytest.mark.parametrize("breakage", [
        "keys-dtype", "keys-strided", "keys-shape", "key-out-of-range",
        "scales-dtype", "scales-shape", "rows-out-of-range",
        "lut-cols-past-sentinel", "lut-cols-dtype", "mu-too-wide",
        "offsets-dtype", "offsets-shape", "offsets-strided",
        "offset-start-after-stop", "offset-stop-past-n",
        "offset-start-negative", "offset-slice-not-a-pair"])
    def test_bad_program_buffer_raises(self, rng, breakage):
        tensor, x = _case(rng, "mixed")
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        keys, scales = prog.passes[1].keys, prog.passes[1].scales
        bad = {
            "keys-dtype": lambda: _with_pass(prog, 1, keys=keys.astype(np.int64)),
            "keys-strided": lambda: _with_pass(
                prog, 1, keys=np.repeat(keys, 2, axis=1)[:, ::2]),
            "keys-shape": lambda: _with_pass(prog, 1, keys=keys[:, :-1]),
            "key-out-of-range": lambda: _with_pass(
                prog, 1, keys=np.full_like(keys, 1 << prog.mu)),
            "scales-dtype": lambda: _with_pass(
                prog, 1, scales=scales.astype(np.float32)),
            "scales-shape": lambda: _with_pass(prog, 1, scales=scales[:-1]),
            "rows-out-of-range": lambda: _with_pass(
                prog, 1, rows=prog.passes[1].rows + prog.m),
            "lut-cols-past-sentinel": lambda: dataclasses.replace(
                prog, lut_cols=prog.lut_cols + 1),
            "lut-cols-dtype": lambda: dataclasses.replace(
                prog, lut_cols=prog.lut_cols.astype(np.int32)),
            "mu-too-wide": lambda: dataclasses.replace(prog, mu=17),
            "offsets-dtype": lambda: dataclasses.replace(
                prog, offsets=prog.offsets.astype(np.float32)),
            "offsets-shape": lambda: dataclasses.replace(
                prog, offsets=prog.offsets[:-1]),
            "offsets-strided": lambda: dataclasses.replace(
                prog, offsets=np.repeat(prog.offsets, 2, axis=1)[:, ::2]),
            "offset-start-after-stop": lambda: dataclasses.replace(
                prog, offset_slices=((3, 2),) + prog.offset_slices[1:]),
            "offset-stop-past-n": lambda: dataclasses.replace(
                prog, offset_slices=prog.offset_slices[:-1]
                + ((prog.offset_slices[-1][0], prog.n + 1),)),
            "offset-start-negative": lambda: dataclasses.replace(
                prog, offset_slices=((-1, 2),) + prog.offset_slices[1:]),
            "offset-slice-not-a-pair": lambda: dataclasses.replace(
                prog, offset_slices=((0, 1, 2),) + prog.offset_slices[1:]),
        }[breakage]()
        with pytest.raises(ValueError):
            native.bind(bad)
        with pytest.raises(ValueError):
            bad.execute(x)

    def test_unsupported_accumulator_rejected(self, rng):
        tensor, x = _case(rng, "uniform")
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        with pytest.raises(ValueError, match="accumulator"):
            prog.execute(x, accumulate_dtype=np.int64)


class TestKernelConcurrency:
    def test_kernel_call_releases_the_gil(self):
        # ctypes drops the GIL around a foreign call unless the function
        # carries the Python-API flag (ctypes.PyDLL); the serving pool's
        # thread shards rely on the drop to run their kernels in parallel.
        execute = native.library().figlut_execute
        assert not execute._flags_ & ctypes._FUNCFLAG_PYTHONAPI

    def test_concurrent_calls_match_reference(self, rng):
        # More threads than cores run one program at once — including its
        # first, lazily bound call — with a short switch interval; every
        # result must still be the reference's bytes.
        tensor, x = _case(rng, "mixed")
        mpu = MatrixProcessingUnit(MPU_CFG)
        want = mpu.gemm_reference(tensor, x, accumulate_dtype=np.float32)
        prepared = mpu.prepare(tensor)
        # Not yet bound to the kernel.
        fresh = dataclasses.replace(prepared.program)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_executed, fresh, prepared.plan, x,
                                       accumulate_dtype=np.float32)
                           for _ in range(64)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            _assert_same(got, want)

    def test_shared_stage_clock_counts_every_call(self, rng):
        # With profiling on, every call of one program at one batch width
        # adds to one running clock, from any thread: the kernel adds
        # atomically, so a lost update would drop a call from the counts.
        tensor, x = _case(rng, "mixed")
        # Not yet bound, so the first calls also race to attach the clock.
        program = dataclasses.replace(
            MatrixProcessingUnit(MPU_CFG).prepare(tensor).program)
        calls = 8 * 64
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry_session(profiling=True) as tel:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(program.execute, x)
                               for _ in range(calls)]
                    for future in futures:
                        future.result(timeout=60)
                profile = tel.profile.snapshot()
        finally:
            sys.setswitchinterval(interval)
        luts_bytes = program._profile_bytes(x.shape[1], 8)[0]
        assert profile["program.fused.luts"]["count"] == calls
        assert profile["program.fused.luts"]["bytes"] == calls * luts_bytes
        assert profile["program.fused.offset"]["count"] == \
            calls * len(program.offset_slices)
        assert all(op["seconds"] > 0 for op in profile.values())


class TestKernelBuild:
    def test_kernel_compiles_warning_free(self, tmp_path):
        # The runtime flags plus -Wall -Wextra -Werror (CI's lint build):
        # the macro-generated width cases must not hide a fallthrough or
        # an unused variable.
        done = subprocess.run(
            [native.COMPILER, *native.FLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "kernel.so"), str(native.SOURCE)],
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_warm_load_does_not_compile(self, tmp_path, monkeypatch):
        # The first build into tmp_path fakes only the compile: it copies
        # the library this session already built to the ``-o`` target, so
        # the test costs no second cold build.
        session_lib = native.build_library(native.cache_dir())
        run = subprocess.run

        def copying_compile(argv, *args, **kwargs):
            if "-o" not in argv:
                return run(argv, *args, **kwargs)
            shutil.copyfile(session_lib, argv[argv.index("-o") + 1])
            return subprocess.CompletedProcess(argv, 0, "", "")

        with monkeypatch.context() as patch:
            patch.setattr(subprocess, "run", copying_compile)
            built = native.build_library(tmp_path)
        calls = []

        def recording_run(argv, *args, **kwargs):
            calls.append(list(argv))
            return run(argv, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", recording_run)
        assert native.build_library(tmp_path) == built
        # Only the compiler's version is queried (it keys the cache).
        assert calls == [[native.COMPILER, "--version"]]
        assert [p.name for p in tmp_path.iterdir()] == [built.name]

    def test_missing_compiler_is_named(self, tmp_path):
        with pytest.raises(RuntimeError, match="repro-no-such-cc"):
            native.build_library(tmp_path, compiler="repro-no-such-cc")
