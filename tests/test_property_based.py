"""Property-based tests (hypothesis) on the core data structures and invariants."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.lut import FFLUT, HalfFFLUT, build_lut_values, key_to_pattern, pattern_to_key
from repro.core.lut_generator import generate_full_lut, generator_addition_count, naive_addition_count
from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.core.program import compile_plan
from repro.numerics.fixed import from_twos_complement, to_twos_complement
from repro.numerics.floats import cast_to_format
from repro.numerics.prealign import prealign, reconstruct
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed, uniform_to_bcq
from repro.quant.packing import pack_bitplanes, unpack_bitplanes
from repro.quant.rtn import RTNConfig, quantize_rtn
from repro.models.quantized_model import QuantizationRecipe, QuantizedLM
from repro.models.transformer import TransformerConfig, TransformerLM
from repro.serve import CacheConfig, DecodeScheduler

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False, width=32)


@st.composite
def activation_groups(draw, min_mu=1, max_mu=6):
    mu = draw(st.integers(min_value=min_mu, max_value=max_mu))
    return np.array(draw(st.lists(finite_floats, min_size=mu, max_size=mu)))


@st.composite
def weight_matrices(draw, max_rows=8, max_cols=16):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=2, max_value=max_cols))
    data = draw(hnp.arrays(np.float64, (rows, cols),
                           elements=st.floats(min_value=-5, max_value=5,
                                              allow_nan=False, allow_infinity=False)))
    return data


class TestLUTProperties:
    @given(activation_groups())
    @settings(max_examples=60, deadline=None)
    def test_lut_values_equal_signed_sums(self, x):
        values = build_lut_values(x)
        mu = x.size
        for key in (0, (1 << mu) - 1, (1 << mu) // 2):
            pattern = key_to_pattern(key, mu)
            assert np.isclose(values[key], float(pattern @ x), atol=1e-9)

    @given(activation_groups())
    @settings(max_examples=60, deadline=None)
    def test_vertical_symmetry_holds_for_any_input(self, x):
        values = build_lut_values(x)
        np.testing.assert_allclose(values, -values[::-1], atol=1e-9)

    @given(activation_groups(min_mu=2, max_mu=6))
    @settings(max_examples=40, deadline=None)
    def test_half_lut_always_equals_full_lut(self, x):
        full = FFLUT.from_activations(x)
        half = HalfFFLUT.from_activations(x)
        keys = np.arange(1 << x.size)
        np.testing.assert_allclose(half.read_many(keys), full.read_many(keys), atol=1e-9)

    @given(activation_groups())
    @settings(max_examples=40, deadline=None)
    def test_generator_matches_direct_construction(self, x):
        values, _ = generate_full_lut(x)
        np.testing.assert_allclose(values, build_lut_values(x), atol=1e-9)

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_generator_never_uses_more_adders_than_naive(self, mu):
        assert generator_addition_count(mu) <= max(naive_addition_count(mu, half=True), 0) or mu == 1

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_key_pattern_roundtrip(self, mu, data):
        key = data.draw(st.integers(min_value=0, max_value=(1 << mu) - 1))
        assert pattern_to_key(key_to_pattern(key, mu)) == key


class TestQuantizationProperties:
    @given(weight_matrices(), st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_rtn_error_bounded_by_half_step(self, weight, bits):
        qt = quantize_rtn(weight, RTNConfig(bits=bits, granularity="channel"))
        err = np.abs(qt.dequantize() - weight)
        assert np.max(err) <= np.max(qt.scales) / 2 + 1e-9

    @given(weight_matrices(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_uniform_to_bcq_is_always_exact(self, weight, bits):
        uniform = quantize_rtn(weight, RTNConfig(bits=bits, granularity="channel"))
        bcq = uniform_to_bcq(uniform)
        np.testing.assert_allclose(bcq.dequantize(), uniform.dequantize(), atol=1e-8)

    @given(weight_matrices(max_rows=4, max_cols=12), st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_bcq_bitplanes_always_binary(self, weight, bits):
        qt = quantize_bcq(weight, BCQConfig(bits=bits, iterations=2))
        assert set(np.unique(qt.bitplanes)) <= {-1, 1}
        assert np.all(qt.scales >= 0)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=40), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_bitplane_packing_roundtrip(self, bits, rows, cols, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        planes = rng.choice([-1, 1], size=(bits, rows, cols)).astype(np.int8)
        np.testing.assert_array_equal(unpack_bitplanes(pack_bitplanes(planes), cols), planes)


class TestNumericsProperties:
    @given(hnp.arrays(np.float64, st.integers(min_value=1, max_value=32),
                      elements=st.floats(min_value=-1e3, max_value=1e3,
                                         allow_nan=False, allow_infinity=False)))
    @settings(max_examples=50, deadline=None)
    def test_prealign_error_bounded_by_one_aligned_lsb(self, values):
        cast = cast_to_format(values, "fp16")
        block = prealign(cast, fmt="fp16")
        err = np.abs(reconstruct(block) - cast)
        assert np.max(err) <= block.scale + 1e-12

    @given(st.lists(st.integers(min_value=-128, max_value=127), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_twos_complement_roundtrip(self, values):
        arr = np.array(values)
        np.testing.assert_array_equal(from_twos_complement(to_twos_complement(arr, 8), 8), arr)

    @given(hnp.arrays(np.float64, st.integers(min_value=1, max_value=64),
                      elements=st.floats(min_value=-50, max_value=50,
                                         allow_nan=False, allow_infinity=False)))
    @settings(max_examples=50, deadline=None)
    def test_fp16_cast_is_idempotent(self, values):
        once = cast_to_format(values, "fp16")
        twice = cast_to_format(once, "fp16")
        np.testing.assert_array_equal(once, twice)


def _random_case(seed):
    """One randomized (mpu, tensor, x, acc_dtype) executor-equivalence case.

    Seeded ``default_rng`` rather than hypothesis: the space is cheap to
    sample directly and each sample exercises the whole planner → compiler
    → executor stack, where shrinking would not help diagnosis anyway.
    """
    rng = np.random.default_rng(987 + seed)
    m = int(rng.integers(4, 28))
    n = int(rng.integers(5, 30))
    group_size = int(rng.integers(3, min(n, 9) + 1))
    w = rng.standard_normal((m, n)) * 0.1
    if rng.random() < 0.5:
        bits = int(rng.integers(1, 5))
        tensor = quantize_bcq(w, BCQConfig(bits=bits, group_size=group_size,
                                           iterations=1))
    else:
        row_bits = rng.integers(1, 5, size=m)
        tensor = quantize_bcq_mixed(w, row_bits,
                                    BCQConfig(group_size=group_size,
                                              iterations=1))
    cfg = MPUConfig(pe_rows=int(rng.integers(1, 5)),
                    pe_cols=int(rng.integers(1, 5)),
                    mu=int(rng.choice([2, 3, 4])),
                    k=int(rng.integers(1, 4)))
    batch = int(rng.integers(1, 9))
    x = rng.standard_normal((n, batch))
    acc = rng.choice([np.float16, np.float32, np.float64])
    return MatrixProcessingUnit(cfg), tensor, x, acc


class TestExecutorEquivalenceSweep:
    """Randomized sweep over shapes × groupings × precisions × geometries:
    the compiled executor and the scalar reference agree bitwise — outputs
    and stats."""

    @pytest.mark.parametrize("seed", range(10))
    def test_compiled_reference_identical(self, seed):
        mpu, tensor, x, acc = _random_case(seed)
        y_c, s_c = mpu.gemm(tensor, x, accumulate_dtype=acc)
        y_r, s_r = mpu.gemm_reference(tensor, x, accumulate_dtype=acc)
        np.testing.assert_array_equal(y_c, y_r)
        assert s_c == s_r

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("parts", [1, 2, 7])
    def test_strided_row_slices_run_like_whole_rows(self, seed, parts):
        # Interleaved row sets cut across every row band: each slice's
        # program equals the reference on that slice and, bitwise, the
        # same rows of the whole program's output.
        mpu, tensor, x, acc = _random_case(seed)
        y_full, _ = mpu.gemm(tensor, x, accumulate_dtype=acc)
        covered = np.zeros(tensor.shape[0], dtype=bool)
        for start in range(min(parts, tensor.shape[0])):
            rows = np.arange(start, tensor.shape[0], parts)
            sliced = tensor.take_rows(rows)
            y_s, s_s = mpu.gemm(sliced, x, accumulate_dtype=acc)
            y_r, s_r = mpu.gemm_reference(sliced, x, accumulate_dtype=acc)
            assert y_s.tobytes() == y_r.tobytes()
            assert s_s == s_r
            assert y_s.tobytes() == y_full[rows].tobytes()
            covered[rows] = True
        assert covered.all()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("parts", [1, 2, 7])
    def test_column_chunks_run_like_whole_batch(self, seed, parts):
        # The pool's fan-out axis: any split of the activation columns
        # concatenates back to the whole batch's output bit for bit, and
        # each chunk's stats are the plan's counters at its own width.
        mpu, tensor, x, acc = _random_case(seed)
        plan = mpu.plan(tensor)
        y_full, s_full = mpu.gemm(tensor, x, accumulate_dtype=acc)
        assert s_full == mpu.stats_from_plan(plan, x.shape[1])
        pieces = []
        for cols in np.array_split(np.arange(x.shape[1]), parts):
            if cols.size == 0:
                continue
            y_c, s_c = mpu.gemm(tensor, x[:, cols], accumulate_dtype=acc)
            assert s_c == mpu.stats_from_plan(plan, cols.size)
            pieces.append(y_c)
        merged = np.concatenate(pieces, axis=1)
        assert merged.tobytes() == y_full.tobytes()


class TestNativeKernelSweep:
    """Hypothesis sweep of the native kernel: the compiled program equals
    ``gemm_reference`` bit for bit — outputs and stats — over random
    geometries, every accumulator dtype, mixed per-row precision (masked
    planes) and every batch width up to one past the kernel's 16-column
    tile, plus two- and three-tile batches."""

    @given(seed=st.integers(0, 2 ** 16), mixed=st.booleans(),
           acc=st.sampled_from([np.float16, np.float32, np.float64]),
           batch=st.sampled_from([*range(1, 18), 31, 33]))
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_reference(self, seed, mixed, acc, batch):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(4, 20)), int(rng.integers(5, 24))
        w = rng.standard_normal((m, n)) * 0.1
        group_size = int(rng.integers(3, min(n, 9) + 1))
        if mixed:
            tensor = quantize_bcq_mixed(
                w, rng.integers(1, 5, size=m),
                BCQConfig(group_size=group_size, iterations=1))
        else:
            tensor = quantize_bcq(w, BCQConfig(bits=int(rng.integers(2, 5)),
                                               group_size=group_size,
                                               iterations=1))
        cfg = MPUConfig(pe_rows=int(rng.integers(1, 4)),
                        pe_cols=int(rng.integers(1, 4)),
                        mu=int(rng.choice([2, 3, 4])),
                        k=int(rng.integers(1, 4)))
        mpu = MatrixProcessingUnit(cfg)
        plan = mpu.plan(tensor)
        x = rng.standard_normal((n, batch))

        program = compile_plan(plan, tensor)
        y = program.execute(x, accumulate_dtype=acc)
        stats = mpu.stats_from_plan(plan, batch)
        y_ref, s_ref = mpu.gemm_reference(tensor, x, accumulate_dtype=acc)
        assert y.tobytes() == y_ref.tobytes()
        assert stats == s_ref


_DECODE_VOCAB = 13


@functools.cache
def _decode_qlm() -> QuantizedLM:
    model = TransformerLM(TransformerConfig(vocab_size=_DECODE_VOCAB,
                                            max_seq_len=24, d_model=8,
                                            n_heads=2, n_layers=1, d_ff=16,
                                            seed=5))
    return QuantizedLM.build(model, QuantizationRecipe(method="bcq", bits=2,
                                                       group_size=8))


@functools.cache
def _solo_tokens(prompt: tuple, max_new_tokens: int, eos_token) -> tuple:
    result = _decode_qlm().generate(np.array(prompt), max_new_tokens,
                                    eos_token=eos_token)
    return tuple(int(t) for t in result.tokens)


@functools.cache
def _solo_logits(prompt: tuple) -> bytes:
    logits, _, _ = _decode_qlm().prefill(np.array(prompt),
                                         num_valid=np.array([len(prompt)]))
    return logits[0].tobytes()


class TestDecodeSchedulerProperties:
    """Random request streams through one :class:`DecodeScheduler`:
    generations and scoring requests (``max_new_tokens=0``) mixed, prompts
    sharing one of two prefixes (prefix hits), the page pool barely fitting
    the largest request (admission backpressure), and random requests
    cancelled between steps.  Whatever the interleaving, every request
    settles exactly once, served tokens equal a solo ``generate`` (a prefix
    of it when cancelled), scored logits equal a solo prefill bit for bit,
    and the pool ends audited clean and empty."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_requests_settle_once_and_match_solo(self, data):
        tokens = st.integers(0, _DECODE_VOCAB - 1)
        # Equal-length prefixes and short suffixes make equal-length
        # scoring prompts (one group pass) common; max_new_tokens 0 is a
        # scoring request, drawn about half the time.
        prefix_len = data.draw(st.integers(4, 9))
        prefixes = [data.draw(st.lists(tokens, min_size=prefix_len,
                                       max_size=prefix_len))
                    for _ in range(2)]
        requests = data.draw(st.lists(
            st.tuples(st.integers(0, 1), st.lists(tokens, min_size=1,
                                                  max_size=3),
                      st.just(0) | st.integers(1, 6), st.none() | tokens),
            min_size=1, max_size=6))
        prompts = [tuple(prefixes[i] + suffix) for i, suffix, _, _ in requests]
        page_size = 4
        largest = max(-(-(len(p) + max(n, 1) - 1) // page_size)
                      for p, (_, _, n, _) in zip(prompts, requests, strict=True))
        sched = DecodeScheduler(
            _decode_qlm(), max_active=data.draw(st.integers(1, 4)),
            cache_config=CacheConfig(page_size=page_size, num_pages=data.draw(
                st.integers(largest, largest + 3))))
        calls = [[] for _ in requests]
        seqs = [sched.submit(np.array(p), n, eos_token=eos,
                             on_token=lambda s, t, d, c=c: c.append((t, d)))
                for p, (_, _, n, eos), c in zip(prompts, requests, calls,
                                                strict=True)]
        while sched.has_work:
            if data.draw(st.integers(0, 3)) == 0:
                sched.cancel(seqs[data.draw(st.integers(0, len(seqs) - 1))])
            sched.step()

        sched.audit_cache()
        assert sched.pool.num_free == sched.pool.num_pages
        for seq, prompt, (_, _, n, eos), c in zip(seqs, prompts, requests,
                                                  calls, strict=True):
            assert [done for _, done in c] == [False] * (len(c) - 1) + [True]
            got = tuple(int(t) for t in seq.tokens)
            assert [t for t, _ in c if t is not None] == list(got)
            if n == 0:
                assert got == () and seq.shared_tokens == 0
                if seq.finish_reason != "cancelled":
                    assert seq.finish_reason == "length"
                    assert seq.logits.tobytes() == _solo_logits(prompt)
                continue
            want = _solo_tokens(prompt, n, eos)
            if seq.finish_reason == "cancelled":
                assert got == want[:len(got)]
            else:
                assert seq.finish_reason in ("eos", "length")
                assert got == want
