"""Tests for the weight-stationary tiling schedule (Fig. 5b) as the
materialised plan walks it."""

from collections import Counter

import numpy as np
import pytest

from repro.core.dataflow import TilingConfig, plan_bcq_tile_execution


class TestTilingConfig:
    def test_num_tiles(self):
        config = TilingConfig(tile_m=64, tile_n=64)
        assert config.num_tiles(128, 256) == 2 * 4
        assert config.num_tiles(100, 100) == 2 * 2  # ragged edges round up

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            TilingConfig(tile_m=0, tile_n=4)


# (m, n, bits, tiling, µ, group size, per-row bits or None)
PLANS = {
    "uniform": (8, 8, 3, TilingConfig(4, 4), 2, None, None),
    "ragged-edge": (7, 10, 2, TilingConfig(3, 4), 2, None, None),
    "scale-groups": (8, 12, 2, TilingConfig(4, 8), 2, 3, None),
    "mixed": (9, 10, 4, TilingConfig(4, 4), 2, 5,
              [1, 4, 2, 2, 3, 1, 4, 4, 1]),
}


@pytest.fixture(params=list(PLANS))
def plan_case(request):
    m, n, bits, tiling, mu, group_size, per_row_bits = PLANS[request.param]
    plan = plan_bcq_tile_execution(m, n, bits, tiling, mu=mu,
                                   group_size=group_size,
                                   per_row_bits=per_row_bits)
    row_bits = (np.full(m, bits) if per_row_bits is None
                else np.asarray(per_row_bits))
    return plan, row_bits


class TestPlanSchedule:
    def test_every_element_visited_once_per_plane_of_its_row(self, plan_case):
        plan, row_bits = plan_case
        visits = Counter()
        for step in plan.steps():
            rows = range(step.row_slice.start, step.row_slice.stop)
            for r in rows:
                if step.bit_plane < row_bits[r]:
                    for c in range(step.col_slice.start, step.col_slice.stop):
                        visits[r, c, step.bit_plane] += 1
        assert visits == Counter({(r, c, p): 1
                                  for r in range(plan.m)
                                  for c in range(plan.n)
                                  for p in range(row_bits[r])})

    def test_bit_planes_innermost_within_a_tile(self, plan_case):
        plan, _ = plan_case
        steps = list(plan.steps())
        assert len(steps) == plan.num_steps
        # A (tile, segment) pair runs its planes 0, 1, … up to its band's
        # plane count back to back, before the next pair starts (Fig. 5b).
        for prev, step in zip(steps, steps[1:]):
            same = ((step.tile_index, step.col_slice.start)
                    == (prev.tile_index, prev.col_slice.start))
            if step.bit_plane:
                assert same and step.bit_plane == prev.bit_plane + 1
            else:
                assert not same and prev.bit_plane == prev.band.planes - 1
        assert steps[-1].bit_plane == steps[-1].band.planes - 1

    def test_each_tile_is_one_contiguous_run(self, plan_case):
        # A tile's steps are never interleaved with another tile's, so each
        # input tile is fetched once and reused across all its planes.
        plan, _ = plan_case
        order = [step.tile_index for step in plan.steps()]
        runs = [t for i, t in enumerate(order) if i == 0 or order[i - 1] != t]
        assert len(runs) == len(set(runs)) == plan.num_tiles
        assert runs == sorted(runs)
