"""Plan-compiler tests: compiled programs vs the scalar reference oracle.

The compilation contract (``docs/compilation.md``): for every plan family —
uniform, ragged, mixed per-row precision — and every accumulator dtype, the
:class:`~repro.core.program.CompiledProgram` produced by
:func:`~repro.core.program.compile_plan` is **bit-identical** to the scalar
``gemm_reference``, outputs *and* :class:`~repro.core.mpu.MPURunStats`.
Shard sub-programs match the reference's walk of the same shard bitwise and
merge exactly; the shared-memory ``spec()``/``buffers()``/``from_buffers()``
roundtrip preserves execution; batch chunking never changes a bit.
"""

import pickle

import numpy as np
import pytest

import repro.core.program as program_mod
from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.core.program import CompiledProgram, compile_plan
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed
from repro.serve import compile_shard_programs, merge_shard_outputs, shard_plan

MPU_CFG = MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2)  # tile 4×8

KINDS = ["uniform", "ragged", "mixed"]


def _case(rng, kind):
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
    return tensor, x


def _assert_same(lhs, rhs):
    """Outputs and stats bitwise equal (the compilation contract)."""
    y_l, s_l = lhs
    y_r, s_r = rhs
    np.testing.assert_array_equal(y_l, y_r)
    assert s_l == s_r


class TestCompiledEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("acc", [np.float16, np.float32, np.float64])
    def test_compiled_matches_reference(self, rng, kind, acc):
        tensor, x = _case(rng, kind)
        mpu = MatrixProcessingUnit(MPU_CFG)
        _assert_same(mpu.gemm(tensor, x, accumulate_dtype=acc),
                     mpu.gemm_reference(tensor, x, accumulate_dtype=acc))

    @pytest.mark.parametrize("kind", KINDS)
    def test_prepare_embeds_program_and_runs_it(self, rng, kind):
        tensor, x = _case(rng, kind)
        mpu = MatrixProcessingUnit(MPU_CFG)
        prepared = mpu.prepare(tensor)
        assert isinstance(prepared.program, CompiledProgram)
        # The prepared fast path, the embedded program directly, and an
        # on-the-fly compile from the raw tensor all agree bitwise.
        _assert_same(mpu.gemm(prepared, x), prepared.program.execute(x))
        fresh = compile_plan(prepared.plan, tensor, MPU_CFG)
        _assert_same(mpu.gemm(prepared, x), fresh.execute(x))

    def test_vector_input_squeezes(self, rng):
        tensor, x = _case(rng, "ragged")
        mpu = MatrixProcessingUnit(MPU_CFG)
        y, stats = mpu.gemm(tensor, x[:, 0])
        assert y.shape == (tensor.shape[0],)
        y2, stats2 = mpu.gemm_reference(tensor, x[:, 0])
        _assert_same((y, stats), (y2, stats2))

    def test_batch_chunking_is_exact(self, rng):
        # A one-element gather budget forces a chunk per batch column; the
        # numerics must not move (no reduction crosses batch columns).
        tensor, x = _case(rng, "mixed")
        whole = MatrixProcessingUnit(MPU_CFG).prepare(tensor) \
            .program.execute(x, accumulate_dtype=np.float32)
        tiny = MatrixProcessingUnit(_budget_cfg(1)).prepare(tensor).program
        assert tiny.gather_budget == 1
        _assert_same(whole, tiny.execute(x, accumulate_dtype=np.float32))


def _budget_cfg(budget):
    return MPUConfig(pe_rows=2, pe_cols=2, mu=4, k=2, gather_budget=budget)


class TestGatherBudget:
    """The budget knob really changes the chunking — on both tiers — and
    resolves config field > environment > module default."""

    def test_budget_changes_fused_batch_step(self, rng):
        tensor, x = _case(rng, "uniform")
        default = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        tiny = MatrixProcessingUnit(_budget_cfg(1)).prepare(tensor).program
        rows = default.passes[0].keys.shape[1]
        assert default.batch_step(rows) >= x.shape[1]  # one whole-batch chunk
        assert tiny.batch_step(rows) == 1              # one column at a time
        _assert_same(default.execute(x), tiny.execute(x))

    def test_budget_changes_blocked_block_count(self, rng):
        tensor, x = _case(rng, "uniform")
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        coarse = compile_plan(plan, tensor, MPU_CFG, tier="blocked")
        fine = compile_plan(plan, tensor, _budget_cfg(1), tier="blocked")

        def blocks(prog):
            return [op for op in prog.instructions if op[0] == "plane_block"]

        assert len(blocks(coarse)) == len(coarse.passes)  # 1 block per plane
        assert len(blocks(fine)) == len(fine.passes) * fine.num_segments
        _assert_same(coarse.execute(x), fine.execute(x))

    def test_env_budget_applies(self, rng, monkeypatch):
        tensor, _ = _case(rng, "uniform")
        monkeypatch.setenv("REPRO_GATHER_BUDGET", "12345")
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        assert prog.gather_budget == 12345

    def test_config_budget_beats_env(self, rng, monkeypatch):
        tensor, _ = _case(rng, "uniform")
        monkeypatch.setenv("REPRO_GATHER_BUDGET", "7")
        prog = MatrixProcessingUnit(_budget_cfg(123)).prepare(tensor).program
        assert prog.gather_budget == 123

    def test_default_budget_without_overrides(self, rng, monkeypatch):
        tensor, _ = _case(rng, "uniform")
        monkeypatch.delenv("REPRO_GATHER_BUDGET", raising=False)
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        assert prog.gather_budget == program_mod._GATHER_BUDGET

    @pytest.mark.parametrize("env", ["zero", "0", "-4"])
    def test_invalid_env_budget_rejected(self, rng, env, monkeypatch):
        tensor, _ = _case(rng, "uniform")
        monkeypatch.setenv("REPRO_GATHER_BUDGET", env)
        with pytest.raises(ValueError):
            MatrixProcessingUnit(MPU_CFG).prepare(tensor)

    def test_invalid_config_budget_rejected(self):
        with pytest.raises(ValueError):
            _budget_cfg(0)


class TestProgramStructure:
    def test_instruction_list_is_complete(self, rng):
        tensor, _ = _case(rng, "ragged")
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        prog = compile_plan(plan, tensor, MPU_CFG)
        n_planes = len(prog.passes)
        n_seg = len(plan.segments)
        assert prog.num_segments == n_seg
        assert prog.num_slots == n_seg * prog.slots_per_segment
        # A small program stacks every plane into one group: LUTs, one
        # gather, one scale stage (which replays the reference's
        # segments-ascending / planes-innermost y order), the offsets.
        assert [(g.lo, g.hi) for g in prog.groups] == [(0, n_planes)]
        assert prog.instructions == (
            ("luts",), ("plane", 0), ("scale",),
            *(("offset", k) for k in range(plan.num_scale_groups)))

    @pytest.mark.parametrize("batch", [0, 1, 3, 17])
    def test_stats_affine_in_batch(self, rng, batch):
        tensor, _ = _case(rng, "mixed")
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        prog = compile_plan(plan, tensor, MPU_CFG)
        assert prog.stats(batch) == mpu.stats_from_plan(plan, batch)

    def test_stats_rejects_negative_batch(self, rng):
        tensor, _ = _case(rng, "uniform")
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        with pytest.raises(ValueError, match="batch"):
            prog.stats(-1)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("group_elements",
                             [1, program_mod._PLANE_GROUP_ELEMENTS])
    def test_buffers_spec_roundtrip(self, rng, monkeypatch, kind,
                                    group_elements):
        # The process-backend shipping path: spec travels by pickle, arrays
        # as raw buffers; the rebuilt program keeps its plane groups and
        # executes bit-identically.  A one-element group budget ships one
        # group per plane.
        monkeypatch.setattr(program_mod, "_PLANE_GROUP_ELEMENTS",
                            group_elements)
        tensor, x = _case(rng, kind)
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        spec = pickle.loads(pickle.dumps(prog.spec()))
        rebuilt = CompiledProgram.from_buffers(spec, prog.buffers())
        assert len(prog.groups) == (len(prog.passes) if group_elements == 1
                                    else 1)
        assert [(g.lo, g.hi) for g in rebuilt.groups] == \
            [(g.lo, g.hi) for g in prog.groups]
        for got, want in zip(rebuilt.groups, prog.groups, strict=True):
            assert got.index is want.index and got.scales is want.scales
        assert rebuilt.instructions == prog.instructions
        _assert_same(prog.execute(x, accumulate_dtype=np.float32),
                     rebuilt.execute(x, accumulate_dtype=np.float32))


class TestShardPrograms:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("num_shards", [2, 7])
    def test_segment_subprograms_match_reference_shards(self, rng, kind,
                                                        num_shards):
        tensor, x = _case(rng, kind)
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        shards = shard_plan(plan, num_shards, axis="segments")
        programs = compile_shard_programs(shards, tensor, MPU_CFG)
        results = []
        for shard, prog in zip(shards, programs, strict=True):
            compiled = prog.execute(x)
            _assert_same(compiled, mpu.gemm_reference(tensor, x,
                                                      shard=shard))
            results.append(compiled)
        y, stats = merge_shard_outputs(shards, results)
        y_full, stats_full = mpu.gemm(tensor, x)
        assert stats == stats_full  # counters exactly additive
        np.testing.assert_allclose(y, y_full, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_row_programs_merge_bit_exact(self, rng, num_shards):
        tensor, x = _case(rng, "mixed")
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        shards = shard_plan(plan, num_shards, axis="rows")
        programs = compile_shard_programs(shards, tensor, MPU_CFG)
        results = [prog.execute(x) for prog in programs]
        for shard, result in zip(shards, results, strict=True):
            _assert_same(result, mpu.gemm_reference(tensor, x, shard=shard))
        merged = merge_shard_outputs(shards, results)
        _assert_same(merged, mpu.gemm(tensor, x))

    @pytest.mark.parametrize("kind", KINDS)
    def test_reference_counts_interleaved_shard_stats(self, rng, kind):
        # A cut that splits column bands: the reference's loop-counted
        # stats still equal the analytic shard_stats (and the sub-program's
        # baked stats), one systolic pass per (tile, plane) the shard runs.
        tensor, x = _case(rng, kind)
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        for w in range(3):
            shard = plan.shard_segments(range(w, len(plan.segments), 3), w, 3)
            y_ref, s_ref = mpu.gemm_reference(tensor, x, shard=shard)
            assert s_ref == mpu.shard_stats(shard, x.shape[1])
            _assert_same(mpu.gemm(tensor, x, shard=shard), (y_ref, s_ref))


class TestProgramErrors:
    def test_wrong_activation_rows(self, rng):
        tensor, x = _case(rng, "uniform")
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        with pytest.raises(ValueError, match="activation rows"):
            prog.execute(x[:-1])

    def test_plan_weights_shape_mismatch(self, rng):
        tensor, _ = _case(rng, "uniform")
        other, _ = _case(rng, "ragged")
        plan = MatrixProcessingUnit(MPU_CFG).plan(tensor)
        with pytest.raises(ValueError, match="does not match"):
            compile_plan(plan, other, MPU_CFG)

    def test_row_axis_shard_has_no_subprogram(self, rng):
        tensor, _ = _case(rng, "uniform")
        plan = MatrixProcessingUnit(MPU_CFG).plan(tensor)
        shard = shard_plan(plan, 2, axis="rows")[0]
        with pytest.raises(ValueError, match="row-axis"):
            compile_plan(plan, tensor, MPU_CFG, shard=shard)

    def test_shard_from_other_plan_rejected(self, rng):
        tensor, _ = _case(rng, "ragged")
        mpu = MatrixProcessingUnit(MPU_CFG)
        plan = mpu.plan(tensor)
        other_plan = MatrixProcessingUnit(MPUConfig(pe_rows=4, pe_cols=2,
                                                    mu=4, k=2)).plan(tensor)
        shard = shard_plan(other_plan, 2, axis="segments")[0]
        with pytest.raises(ValueError, match="different plan"):
            compile_plan(plan, tensor, MPU_CFG, shard=shard)

    @pytest.mark.parametrize("group_elements", [1, program_mod._PLANE_GROUP_ELEMENTS])
    @pytest.mark.parametrize("batch", [1, 9])
    def test_profile_bytes_match_per_plane_formula(self, rng, monkeypatch,
                                                   group_elements, batch):
        # program.<tier>.plane / .scale rollups must count the same bytes
        # per run however planes are grouped, so bandwidth figures stay
        # comparable with one-gather-per-plane programs.
        monkeypatch.setattr(program_mod, "_PLANE_GROUP_ELEMENTS",
                            group_elements)
        tensor, _ = _case(rng, "mixed")
        prog = MatrixProcessingUnit(MPU_CFG).prepare(tensor).program
        assert len(prog.groups) == (len(prog.passes) if group_elements == 1
                                    else 1)
        acc = 4
        slots, rows = prog.num_slots, [pp.keys.shape[1] for pp in prog.passes]
        expected = {
            "luts": slots * prog.mu * batch * 8
            + slots * batch * (1 << prog.mu) * acc,
            "plane": sum(pp.keys.nbytes + 2 * slots * r * batch * acc
                         for pp, r in zip(prog.passes, rows, strict=True)),
            "scale": sum(2 * r * batch * 8 for r in rows) * prog.num_segments,
            "offset": sum((stop - start) * batch * 8 + prog.m * batch * 8
                          for start, stop in prog.offset_slices),
        }
        assert prog._profile_bytes(batch, acc) == expected
