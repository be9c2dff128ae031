"""Mutation tests for the execution-free verifiers (repro.analysis.verify).

Each test corrupts one structural aspect of a sound ``CompiledProgram``
(or plan / shard partition) and asserts the verifier rejects it with the
*specific* invariant named — a verifier that fails with the wrong
invariant is as suspect as one that does not fail at all.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    PlanInvariantError,
    ProgramInvariantError,
    verify_plan,
    verify_program,
    verify_shard_programs,
)
from repro.core.mpu import MatrixProcessingUnit, MPUConfig
import repro.core.program as program_mod
from repro.core.program import compile_plan
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed
from repro.serve.sharding import shard_plan

CFG = MPUConfig(pe_rows=4, pe_cols=2, mu=4, k=4)


def _rebake_fused(program):
    """A fused program with its plane groups and replay order rebuilt for
    its (possibly edited) passes."""
    groups = program_mod._plane_groups(list(program.passes),
                                       program.num_slots, program.mu)
    ops = [("luts",)]
    ops += [("plane", g) for g in range(len(groups))]
    ops += [("scale",)]
    ops += [("offset", k) for k in range(len(program.offset_slices))]
    return corrupt(program, groups=groups, instructions=tuple(ops))


def build(m=24, n=40, bits=3, group_size=16, config=CFG, mixed=False, seed=7):
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((m, n))
    if mixed:
        per_row = rng.integers(1, bits + 1, size=m)
        bcq = quantize_bcq_mixed(weight, per_row,
                                 BCQConfig(bits=bits, group_size=group_size))
    else:
        bcq = quantize_bcq(weight, BCQConfig(bits=bits, group_size=group_size))
    plan = MatrixProcessingUnit(config).plan(bcq)
    return plan, bcq, compile_plan(plan, bcq, config), config


@pytest.fixture(scope="module")
def uniform():
    return build()


@pytest.fixture(scope="module")
def mixed():
    return build(mixed=True)


@pytest.fixture(scope="module")
def ragged():
    # group_size=7 against µ=2 leaves segments with fewer LUT groups than
    # the widest one, so the program has fully padded sentinel slots.
    cfg = MPUConfig(pe_rows=8, pe_cols=1, mu=2, k=8)
    return build(m=16, n=30, bits=3, group_size=7, config=cfg)


@pytest.fixture(scope="module")
def blocked(uniform):
    # gather_budget=1 forces one segment per block, so every plane streams
    # through multiple plane_block instructions.
    plan, bcq, _, _ = uniform
    cfg = MPUConfig(pe_rows=4, pe_cols=2, mu=4, k=4, gather_budget=1)
    return plan, bcq, compile_plan(plan, bcq, cfg, tier="blocked"), cfg


@pytest.fixture(scope="module")
def grouped(uniform):
    # A one-element plane-group budget puts every plane in its own group,
    # so the fused program carries several ("plane", g) gathers.
    plan, bcq, _, _ = uniform
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(program_mod, "_PLANE_GROUP_ELEMENTS", 1)
        program = compile_plan(plan, bcq, CFG)
    assert len(program.groups) == len(program.passes) > 1
    return plan, bcq, program, CFG


def corrupt(program, **replacements):
    return dataclasses.replace(program, **replacements)


def expect(invariant, fn, *args, **kwargs):
    with pytest.raises(ProgramInvariantError) as err:
        fn(*args, **kwargs)
    assert err.value.invariant == invariant, str(err.value)
    assert str(err.value).startswith(f"[{invariant}]")


class TestSoundArtifactsPass:
    def test_uniform_mixed_and_ragged_programs_verify(self, uniform, mixed,
                                                      ragged):
        for plan, _, program, cfg in (uniform, mixed, ragged):
            verify_plan(plan)
            verify_program(program)
            verify_program(program, plan=plan, config=cfg)

    def test_shard_partition_verifies(self, uniform):
        plan, bcq, _, _ = uniform
        shards = shard_plan(plan, 2, axis="segments")
        programs = [compile_plan(plan, bcq, CFG, shard=s) for s in shards]
        verify_shard_programs(plan, shards, programs, CFG)


class TestProgramMutations:
    """Distinct corruption classes, each rejected by its own invariant."""

    def test_geometry_wrong_lut_cols_shape(self, uniform):
        _, _, program, _ = uniform
        bad = corrupt(program, lut_cols=program.lut_cols[:-1])
        expect("program-geometry", verify_program, bad)

    def test_gather_index_out_of_bounds(self, uniform):
        _, _, program, _ = uniform
        cols = program.lut_cols.copy()
        cols[0, 0] = program.n + 5
        expect("lut-cols-bounds", verify_program,
               corrupt(program, lut_cols=cols))

    def test_sentinel_not_a_suffix(self, ragged):
        _, _, program, _ = ragged
        cols = program.lut_cols.copy()
        # Punch a sentinel hole into the middle of a real column run.
        block = cols[:program.slots_per_segment].reshape(-1)
        assert (block < program.n).sum() > 2
        block[1] = program.n
        expect("lut-cols-layout", verify_program,
               corrupt(program, lut_cols=cols))

    def test_non_contiguous_column_run(self, uniform):
        _, _, program, _ = uniform
        cols = program.lut_cols.copy()
        flat = cols[:program.slots_per_segment].reshape(-1)
        flat[0], flat[1] = flat[1], flat[0]  # break ascending order
        expect("lut-cols-layout", verify_program,
               corrupt(program, lut_cols=cols))

    def test_padded_slot_with_nonzero_key(self, ragged):
        _, _, program, _ = ragged
        padded = np.flatnonzero(
            (program.lut_cols == program.n).all(axis=1))
        assert padded.size, "fixture must produce padded sentinel slots"
        pp = program.passes[0]
        keys = pp.keys.copy()
        keys[padded[0], :] = 1  # would read a non-zero LUT row
        passes = (dataclasses.replace(pp, keys=keys),) + program.passes[1:]
        expect("sentinel-zero-keys", verify_program,
               corrupt(program, passes=passes))

    def test_rac_key_out_of_range(self, uniform):
        _, _, program, _ = uniform
        pp = program.passes[0]
        keys = pp.keys.copy()
        keys[0, 0] = 1 << program.mu
        passes = (dataclasses.replace(pp, keys=keys),) + program.passes[1:]
        expect("keys-range", verify_program, corrupt(program, passes=passes))

    def test_duplicate_scatter_row(self, mixed):
        _, _, program, _ = mixed
        masked = [i for i, pp in enumerate(program.passes)
                  if pp.rows is not None and pp.rows.size > 1]
        assert masked, "mixed-precision fixture must have masked planes"
        i = masked[0]
        rows = program.passes[i].rows.copy()
        rows[1] = rows[0]  # same output row accumulated twice
        passes = list(program.passes)
        passes[i] = dataclasses.replace(passes[i], rows=rows)
        expect("scatter-rows", verify_program,
               corrupt(program, passes=tuple(passes)))

    def test_scatter_row_out_of_bounds(self, mixed):
        _, _, program, _ = mixed
        i = next(i for i, pp in enumerate(program.passes)
                 if pp.rows is not None)
        rows = program.passes[i].rows.copy()
        rows[-1] = program.m  # one past the last output row
        passes = list(program.passes)
        passes[i] = dataclasses.replace(passes[i], rows=rows)
        expect("scatter-rows", verify_program,
               corrupt(program, passes=tuple(passes)))

    def test_plane_rows_not_nested(self, mixed):
        _, _, program, _ = mixed
        # Swapping a narrower plane ahead of a wider one makes the later
        # plane activate rows its predecessor retired.
        sizes = [program.m if pp.rows is None else pp.rows.size
                 for pp in program.passes]
        i = next(i for i in range(1, len(sizes)) if sizes[i] < sizes[i - 1])
        passes = list(program.passes)
        passes[i - 1], passes[i] = passes[i], passes[i - 1]
        expect("plane-rows-nested", verify_program,
               corrupt(program, passes=tuple(passes)))

    def test_scales_shape_mismatch(self, uniform):
        _, _, program, _ = uniform
        pp = program.passes[0]
        passes = (dataclasses.replace(pp, scales=pp.scales[:, :-1]),) \
            + program.passes[1:]
        expect("scales-shape", verify_program, corrupt(program, passes=passes))

    def test_overlapping_offset_slices(self, uniform):
        _, _, program, _ = uniform
        assert len(program.offset_slices) >= 2
        slices = list(program.offset_slices)
        start, stop = slices[1]
        slices[1] = (start - 1, stop)  # overlaps the previous span
        expect("offset-slices", verify_program,
               corrupt(program, offset_slices=tuple(slices)))

    def test_instruction_replay_order_broken(self, uniform):
        _, _, program, _ = uniform
        instructions = list(program.instructions)
        instructions[0], instructions[1] = instructions[1], instructions[0]
        expect("instruction-order", verify_program,
               corrupt(program, instructions=tuple(instructions)))

    def test_dropped_instruction(self, uniform):
        _, _, program, _ = uniform
        expect("instruction-order", verify_program,
               corrupt(program, instructions=program.instructions[:-1]))

    def test_negative_affine_slope(self, uniform):
        _, _, program, _ = uniform
        slope = list(program.stats_slope)
        slope[0] = -1
        expect("affine-stats", verify_program,
               corrupt(program, stats_slope=tuple(slope)))

    def test_baked_stats_disagree_with_plan(self, uniform):
        plan, _, program, _ = uniform
        base = list(program.stats_base)
        base[0] += 1  # off-by-one intercept: wrong at every batch
        expect("affine-stats", verify_program,
               corrupt(program, stats_base=tuple(base)), plan=plan, config=CFG)

    def test_dropped_plane_pass_vs_plan(self, uniform):
        plan, _, program, _ = uniform
        # Keep the self-contained checks clean so the plan comparison is
        # what fires: rebake the groups and instruction list for the
        # truncated passes.
        bad = _rebake_fused(corrupt(program, passes=program.passes[:-1]))
        expect("plane-mask-active-rows", verify_program, bad,
               plan=plan, config=CFG)

    def test_shifted_columns_vs_plan(self, uniform):
        plan, _, program, _ = uniform
        cols = program.lut_cols.copy()
        width = plan.segments[0].width
        # Segment 0 gathers [1, width+1) instead of [0, width): still a
        # contiguous in-bounds run, but not the plan's columns.
        flat = cols[:program.slots_per_segment].reshape(-1)
        flat[flat < program.n] = np.arange(1, width + 1)
        expect("segment-cols-match", verify_program,
               corrupt(program, lut_cols=cols), plan=plan, config=CFG)


class TestPlanMutations:
    def test_row_band_gap(self, uniform):
        plan, _, _, _ = uniform
        bands = list(plan.row_bands)
        bands[0] = dataclasses.replace(
            bands[0], row_slice=slice(1, bands[0].row_slice.stop))
        with pytest.raises(PlanInvariantError) as err:
            verify_plan(dataclasses.replace(plan, row_bands=tuple(bands)))
        assert err.value.invariant == "row-band-partition"

    def test_active_rows_growing(self, uniform):
        plan, _, _, _ = uniform
        bands = list(plan.row_bands)
        active = list(bands[0].active_rows_per_plane)
        active[-1] = active[0] + 1
        bands[0] = dataclasses.replace(
            bands[0], active_rows_per_plane=tuple(active))
        with pytest.raises(PlanInvariantError) as err:
            verify_plan(dataclasses.replace(plan, row_bands=tuple(bands)))
        assert err.value.invariant == "active-rows-monotone"

    def test_segment_crossing_scale_group(self, uniform):
        plan, _, _, _ = uniform
        segs = list(plan.segments)
        first = segs[0]
        merged = dataclasses.replace(
            first, col_slice=slice(first.col_slice.start,
                                   segs[1].col_slice.stop))
        with pytest.raises(PlanInvariantError) as err:
            verify_plan(dataclasses.replace(
                plan, segments=tuple([merged] + segs[2:])))
        assert err.value.invariant in ("segment-partition",
                                       "segment-scale-group")


class TestShardMutations:
    def test_missing_segment(self, uniform):
        plan, _, _, _ = uniform
        n_seg = len(plan.segments)
        shards = [plan.shard_segments(range(n_seg - 1), 0, 2),
                  plan.shard_segments([], 1, 2)]
        expect("shard-segment-partition", verify_shard_programs, plan, shards)

    def test_duplicated_segment(self, uniform):
        plan, _, _, _ = uniform
        n_seg = len(plan.segments)
        shards = [plan.shard_segments(range(n_seg), 0, 2),
                  plan.shard_segments([0], 1, 2)]
        expect("shard-segment-partition", verify_shard_programs, plan, shards)

    def test_offset_ownership_not_a_partition(self, uniform):
        plan, _, _, _ = uniform
        shards = list(shard_plan(plan, 2, axis="segments"))
        # Both shards claim shard 0's groups: double-applied offsets.
        shards[1] = dataclasses.replace(
            shards[1], owned_scale_groups=shards[0].owned_scale_groups)
        expect("shard-offset-ownership", verify_shard_programs, plan, shards)

    def test_program_swapped_between_shards(self, uniform):
        plan, bcq, _, _ = uniform
        shards = shard_plan(plan, 2, axis="segments")
        programs = [compile_plan(plan, bcq, CFG, shard=s) for s in shards]
        with pytest.raises(ProgramInvariantError):
            verify_shard_programs(plan, shards, programs[::-1], CFG)


class TestTierMutations:
    """The tier invariants: ``program-tier``, ``plane-block-coverage``,
    the fused tier's ``plane-group-partition`` / ``plane-group-buffers``,
    and the tier-aware ``instruction-order``."""

    def test_sound_blocked_and_grouped_verify(self, uniform, blocked,
                                              grouped):
        plan, _, _, _ = uniform
        for _, _, program, cfg in (blocked, grouped):
            verify_program(program)
            verify_program(program, plan=plan, config=cfg)

    def test_unknown_tier(self, uniform):
        _, _, program, _ = uniform
        expect("program-tier", verify_program, corrupt(program, tier="turbo"))

    def test_zero_gather_budget(self, uniform):
        _, _, program, _ = uniform
        expect("program-tier", verify_program,
               corrupt(program, gather_budget=0))

    def test_plane_groups_out_of_order(self, grouped):
        # Swapped groups still cover every plane, but not ascending: the
        # scale stage would consume partials in the wrong plane order.
        _, _, program, _ = grouped
        groups = program.groups
        expect("plane-group-partition", verify_program,
               corrupt(program, groups=(groups[1], groups[0], *groups[2:])))

    def test_plane_group_dropped(self, grouped):
        # A missing group leaves its planes' partials never gathered.
        _, _, program, _ = grouped
        expect("plane-group-partition", verify_program,
               corrupt(program, groups=program.groups[:-1]))

    def test_plane_groups_on_blocked_tier(self, blocked, grouped):
        _, _, program, _ = blocked
        expect("plane-group-partition", verify_program,
               corrupt(program, groups=grouped[2].groups))

    def test_plane_group_index_mismatch(self, uniform):
        _, _, program, _ = uniform
        (group,) = program.groups
        index = group.index.copy()
        index[0, -1] ^= 1  # another key of the same slot's table
        expect("plane-group-buffers", verify_program,
               corrupt(program, groups=(dataclasses.replace(group,
                                                            index=index),)))

    def test_plane_group_index_wrong_dtype(self, uniform):
        _, _, program, _ = uniform
        (group,) = program.groups
        index = group.index.astype(np.int32)
        expect("plane-group-buffers", verify_program,
               corrupt(program, groups=(dataclasses.replace(group,
                                                            index=index),)))

    def test_plane_group_scales_mismatch(self, mixed):
        _, _, program, _ = mixed
        (group,) = program.groups
        scales = group.scales.copy()
        scales[-1, -1] *= 2.0
        expect("plane-group-buffers", verify_program,
               corrupt(program, groups=(dataclasses.replace(group,
                                                            scales=scales),)))

    def test_blocked_program_relabelled_fused(self, blocked, uniform):
        # The body holds plane_block streams, not the fused ("plane", g)
        # gathers the relabelled tier promises.
        _, _, program, _ = blocked
        expect("instruction-order", verify_program,
               corrupt(program, tier="fused", groups=uniform[2].groups))

    def test_fused_scale_stage_missing(self, uniform):
        _, _, program, _ = uniform
        instructions = tuple(op for op in program.instructions
                             if op != ("scale",))
        expect("instruction-order", verify_program,
               corrupt(program, instructions=instructions))

    def test_dropped_plane_block(self, blocked):
        # The range walk is pinned by plane 0's blocks; dropping one leaves
        # a segment whose partial is never produced.
        _, _, program, _ = blocked
        blocks = [op for op in program.instructions
                  if op[:2] == ("plane_block", 0)]
        assert len(blocks) > 1, "fixture must stream multiple blocks"
        instructions = list(program.instructions)
        instructions.remove(blocks[-1])
        expect("plane-block-coverage", verify_program,
               corrupt(program, instructions=tuple(instructions)))

    def test_gapped_plane_block(self, blocked):
        _, _, program, _ = blocked
        blocks = [op for op in program.instructions
                  if op[:2] == ("plane_block", 0)]
        assert len(blocks) > 2, "fixture must stream multiple blocks"
        instructions = list(program.instructions)
        instructions.remove(blocks[1])  # hole inside the segment walk
        expect("plane-block-coverage", verify_program,
               corrupt(program, instructions=tuple(instructions)))

    def test_dropped_secondary_plane_block(self, blocked):
        # A missing non-zero-plane block leaves plane 0's walk intact, so
        # it trips the exact interleaved-order pin instead.
        _, _, program, _ = blocked
        blocks = [op for op in program.instructions
                  if op[0] == "plane_block" and op[1] > 0]
        assert blocks, "fixture must hold multiple planes"
        instructions = list(program.instructions)
        instructions.remove(blocks[0])
        expect("instruction-order", verify_program,
               corrupt(program, instructions=tuple(instructions)))


class TestReproVerifyKnob:
    def test_compile_verifies_under_env_knob(self, monkeypatch, uniform):
        plan, bcq, _, _ = uniform
        monkeypatch.setenv("REPRO_VERIFY", "1")
        program = compile_plan(plan, bcq, CFG)  # must self-verify cleanly
        verify_program(program, plan=plan, config=CFG)
