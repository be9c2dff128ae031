"""Mutation tests for the execution-free verifiers (repro.analysis.verify).

Each test corrupts one structural aspect of a sound ``CompiledProgram``
(or plan) and asserts the verifier rejects it with the
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
)
from repro.core.mpu import MatrixProcessingUnit, MPUConfig
from repro.core.program import compile_plan
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed

CFG = MPUConfig(pe_rows=4, pe_cols=2, mu=4, k=4)


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
    return plan, bcq, compile_plan(plan, bcq)


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
        for plan, _, program in (uniform, mixed, ragged):
            verify_plan(plan)
            verify_program(program)
            verify_program(program, plan=plan)

    @pytest.mark.parametrize("cfg", [
        MPUConfig(pe_rows=1, pe_cols=1, mu=2, k=1),
        MPUConfig(pe_rows=3, pe_cols=2, mu=3, k=2),
        MPUConfig(),
    ], ids=["1x1-mu2", "3x2-mu3", "default"])
    def test_programs_verify_across_geometries(self, cfg):
        # Tile edges, µ-groups and scale groups fall differently under each
        # geometry; every whole program still pins to its own plan.
        for mixed in (False, True):
            plan, _, program = build(m=21, n=37, group_size=12,
                                     config=cfg, mixed=mixed)
            verify_plan(plan)
            verify_program(program, plan=plan)


class TestProgramMutations:
    """Distinct corruption classes, each rejected by its own invariant."""

    def test_geometry_wrong_lut_cols_shape(self, uniform):
        _, _, program = uniform
        bad = corrupt(program, lut_cols=program.lut_cols[:-1])
        expect("program-geometry", verify_program, bad)

    def test_gather_index_out_of_bounds(self, uniform):
        _, _, program = uniform
        cols = program.lut_cols.copy()
        cols[0, 0] = program.n + 5
        expect("lut-cols-bounds", verify_program,
               corrupt(program, lut_cols=cols))

    def test_sentinel_not_a_suffix(self, ragged):
        _, _, program = ragged
        cols = program.lut_cols.copy()
        # Punch a sentinel hole into the middle of a real column run.
        block = cols[:program.slots_per_segment].reshape(-1)
        assert (block < program.n).sum() > 2
        block[1] = program.n
        expect("lut-cols-layout", verify_program,
               corrupt(program, lut_cols=cols))

    def test_non_contiguous_column_run(self, uniform):
        _, _, program = uniform
        cols = program.lut_cols.copy()
        flat = cols[:program.slots_per_segment].reshape(-1)
        flat[0], flat[1] = flat[1], flat[0]  # break ascending order
        expect("lut-cols-layout", verify_program,
               corrupt(program, lut_cols=cols))

    def test_padded_slot_with_nonzero_key(self, ragged):
        _, _, program = ragged
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
        _, _, program = uniform
        pp = program.passes[0]
        keys = pp.keys.copy()
        keys[0, 0] = 1 << program.mu
        passes = (dataclasses.replace(pp, keys=keys),) + program.passes[1:]
        expect("keys-range", verify_program, corrupt(program, passes=passes))

    def test_duplicate_scatter_row(self, mixed):
        _, _, program = mixed
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
        _, _, program = mixed
        i = next(i for i, pp in enumerate(program.passes)
                 if pp.rows is not None)
        rows = program.passes[i].rows.copy()
        rows[-1] = program.m  # one past the last output row
        passes = list(program.passes)
        passes[i] = dataclasses.replace(passes[i], rows=rows)
        expect("scatter-rows", verify_program,
               corrupt(program, passes=tuple(passes)))

    def test_plane_rows_not_nested(self, mixed):
        _, _, program = mixed
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
        _, _, program = uniform
        pp = program.passes[0]
        passes = (dataclasses.replace(pp, scales=pp.scales[:, :-1]),) \
            + program.passes[1:]
        expect("scales-shape", verify_program, corrupt(program, passes=passes))

    def test_overlapping_offset_slices(self, uniform):
        _, _, program = uniform
        assert len(program.offset_slices) >= 2
        slices = list(program.offset_slices)
        start, stop = slices[1]
        slices[1] = (start - 1, stop)  # overlaps the previous span
        expect("offset-slices", verify_program,
               corrupt(program, offset_slices=tuple(slices)))

    def test_dropped_plane_pass_vs_plan(self, uniform):
        plan, _, program = uniform
        # The truncated program is self-consistent, so the plan comparison
        # is what fires.
        expect("plane-mask-active-rows", verify_program,
               corrupt(program, passes=program.passes[:-1]),
               plan=plan)

    def test_shifted_columns_vs_plan(self, uniform):
        plan, _, program = uniform
        cols = program.lut_cols.copy()
        width = plan.segments[0].width
        # Segment 0 gathers [1, width+1) instead of [0, width): still a
        # contiguous in-bounds run, but not the plan's columns.
        flat = cols[:program.slots_per_segment].reshape(-1)
        flat[flat < program.n] = np.arange(1, width + 1)
        expect("segment-cols-match", verify_program,
               corrupt(program, lut_cols=cols), plan=plan)

    def test_dropped_offset_span_vs_plan(self, uniform):
        plan, _, program = uniform
        # Dropping the last scale group's span and offsets column leaves a
        # self-consistent program; only the plan knows a group is missing.
        bad = corrupt(program, offset_slices=program.offset_slices[:-1],
                      offsets=program.offsets[:, :-1])
        verify_program(bad)
        expect("offset-slices", verify_program, bad, plan=plan)

    def test_program_pinned_to_another_plan(self, uniform, mixed):
        # Same shape, segments and scale groups, but the mixed program's
        # masked planes are not the uniform plan's full-height bands.
        plan, _, _ = uniform
        _, _, program = mixed
        verify_program(program)
        expect("plane-mask-active-rows", verify_program, program, plan=plan)


class TestPlanMutations:
    def test_missing_segment(self, uniform):
        plan, _, _ = uniform
        with pytest.raises(PlanInvariantError) as err:
            verify_plan(dataclasses.replace(plan,
                                            segments=plan.segments[:-1]))
        assert err.value.invariant == "segment-partition"

    def test_duplicated_segment(self, uniform):
        plan, _, _ = uniform
        segs = plan.segments
        with pytest.raises(PlanInvariantError) as err:
            verify_plan(dataclasses.replace(
                plan, segments=(segs[0],) + segs))
        assert err.value.invariant == "segment-partition"

    def test_band_planes_beyond_bits(self, uniform):
        plan, _, _ = uniform
        bands = list(plan.row_bands)
        bands[-1] = dataclasses.replace(bands[-1], planes=plan.bits + 1)
        with pytest.raises(PlanInvariantError) as err:
            verify_plan(dataclasses.replace(plan, row_bands=tuple(bands)))
        assert err.value.invariant == "row-band-planes"

    def test_segment_lut_groups_miscounted(self, ragged):
        plan, _, _ = ragged
        segs = list(plan.segments)
        segs[0] = dataclasses.replace(segs[0],
                                      lut_groups=segs[0].lut_groups + 1)
        with pytest.raises(PlanInvariantError) as err:
            verify_plan(dataclasses.replace(plan, segments=tuple(segs)))
        assert err.value.invariant == "segment-lut-groups"

    def test_row_band_gap(self, uniform):
        plan, _, _ = uniform
        bands = list(plan.row_bands)
        bands[0] = dataclasses.replace(
            bands[0], row_slice=slice(1, bands[0].row_slice.stop))
        with pytest.raises(PlanInvariantError) as err:
            verify_plan(dataclasses.replace(plan, row_bands=tuple(bands)))
        assert err.value.invariant == "row-band-partition"

    def test_active_rows_growing(self, uniform):
        plan, _, _ = uniform
        bands = list(plan.row_bands)
        active = list(bands[0].active_rows_per_plane)
        active[-1] = active[0] + 1
        bands[0] = dataclasses.replace(
            bands[0], active_rows_per_plane=tuple(active))
        with pytest.raises(PlanInvariantError) as err:
            verify_plan(dataclasses.replace(plan, row_bands=tuple(bands)))
        assert err.value.invariant == "active-rows-monotone"

    def test_segment_crossing_scale_group(self, uniform):
        plan, _, _ = uniform
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


class TestReproVerifyKnob:
    def test_compile_verifies_under_env_knob(self, monkeypatch, uniform):
        plan, bcq, _ = uniform
        monkeypatch.setenv("REPRO_VERIFY", "1")
        program = compile_plan(plan, bcq)  # must self-verify cleanly
        verify_program(program, plan=plan)
