"""Shape-sweep equivalence for the tiered plan lowering.

The tier contract (``docs/compilation.md``): ``tier="auto"`` picks the
lowering from the plan's analytic working-set estimate at the compile-time
batch hint — fused one-big-gather below the threshold, segment-blocked
streams above it — and the blocked tier replays the reference's exact
update order, so its outputs *and* :class:`~repro.core.mpu.MPURunStats`
are bit-identical to the scalar ``gemm_reference`` and to the fused tier on
every shape in the sweep.
"""

import numpy as np
import pytest

from repro.core.mpu import MPUConfig, MatrixProcessingUnit
from repro.core.program import CompiledProgram, compile_plan
from repro.quant.bcq import BCQConfig, quantize_bcq, quantize_bcq_mixed
from repro.serve.sharding import shard_plan

CFG = MPUConfig()
SMALL = (256, 512)     # fused working set at the default batch hint
LARGE = (1024, 1024)   # blocked working set at the default batch hint
BATCHES = (1, 8, 32)
SIZES = {"small": SMALL, "large": LARGE}


def _tensor(shape, mixed, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shape) * 0.05
    if mixed:
        per_row = rng.integers(1, 4, size=shape[0])
        return quantize_bcq_mixed(
            w, per_row, BCQConfig(bits=3, group_size=128, iterations=1))
    return quantize_bcq(w, BCQConfig(bits=2, group_size=128, iterations=1))


@pytest.fixture(scope="module")
def sweep():
    """(size, kind) → (tensor, plan) over small/large × uniform/mixed."""
    mpu = MatrixProcessingUnit(CFG)
    out = {}
    for i, (size, shape) in enumerate(SIZES.items()):
        for j, kind in enumerate(("uniform", "mixed")):
            tensor = _tensor(shape, kind == "mixed", seed=10 * i + j)
            out[size, kind] = (tensor, mpu.plan(tensor))
    return out


def _x(tensor, batch, seed=0):
    rng = np.random.default_rng(seed + batch)
    return rng.standard_normal((tensor.shape[1], batch))


class TestTierSelection:
    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    def test_auto_small_lowers_fused(self, sweep, kind):
        tensor, plan = sweep["small", kind]
        assert compile_plan(plan, tensor, CFG).tier == "fused"

    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    def test_auto_large_lowers_blocked(self, sweep, kind):
        tensor, plan = sweep["large", kind]
        assert compile_plan(plan, tensor, CFG).tier == "blocked"

    def test_batch_hint_flips_selection(self, sweep):
        # The estimate scales with the hint, so a batch-1 hint keeps the
        # large shape fused and a huge hint pushes the small shape blocked.
        tensor, plan = sweep["large", "uniform"]
        assert compile_plan(plan, tensor, CFG, batch_hint=1).tier == "fused"
        tensor, plan = sweep["small", "uniform"]
        assert compile_plan(plan, tensor, CFG,
                            batch_hint=1 << 16).tier == "blocked"


class TestBlockedBitwise:
    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_blocked_matches_oracle(self, sweep, size, kind, batch):
        # The scalar reference at batch 1 (it takes seconds per case at
        # 1024² × 32); the fused tier, itself reference-checked, above it.
        tensor, plan = sweep[size, kind]
        x = _x(tensor, batch)
        prog = compile_plan(plan, tensor, CFG, tier="blocked")
        assert prog.tier == "blocked"
        y, stats = prog.execute(x, accumulate_dtype=np.float32)
        if batch == 1:
            y_o, s_o = MatrixProcessingUnit(CFG).gemm_reference(
                tensor, x, accumulate_dtype=np.float32)
        else:
            y_o, s_o = compile_plan(plan, tensor, CFG, tier="fused").execute(
                x, accumulate_dtype=np.float32)
        np.testing.assert_array_equal(y, y_o)
        assert stats == s_o

    def test_segment_shards_blocked_bitwise(self, sweep):
        # Per-shard sub-programs agree bitwise across tiers, so the summing
        # merge is tier-independent too.
        tensor, plan = sweep["small", "mixed"]
        x = _x(tensor, 8)
        for shard in shard_plan(plan, 3, axis="segments"):
            fused = compile_plan(plan, tensor, CFG, shard=shard,
                                 tier="fused")
            blocked = compile_plan(plan, tensor, CFG, shard=shard,
                                   tier="blocked")
            y_f, s_f = fused.execute(x, accumulate_dtype=np.float32)
            y_b, s_b = blocked.execute(x, accumulate_dtype=np.float32)
            np.testing.assert_array_equal(y_f, y_b)
            assert s_f == s_b


class TestTierArguments:
    def test_unknown_tier_rejected(self, sweep):
        tensor, plan = sweep["small", "uniform"]
        with pytest.raises(ValueError, match="tier"):
            compile_plan(plan, tensor, CFG, tier="warp")


class TestTierPlumbing:
    def test_prepare_records_tier(self, sweep):
        mpu = MatrixProcessingUnit(CFG)
        small, _ = sweep["small", "uniform"]
        large, _ = sweep["large", "uniform"]
        prepared = mpu.prepare(small)
        assert prepared.tier == prepared.program.tier == "fused"
        prepared = mpu.prepare(large)
        assert prepared.tier == prepared.program.tier == "blocked"

    @pytest.mark.parametrize("tier", ["blocked"])
    def test_spec_buffers_roundtrip(self, sweep, tier):
        tensor, plan = sweep["small", "mixed"]
        prog = compile_plan(plan, tensor, CFG, tier=tier)
        clone = CompiledProgram.from_buffers(prog.spec(), prog.buffers())
        assert clone.tier == tier
        assert clone.gather_budget == prog.gather_budget
        x = _x(tensor, 8)
        y, stats = prog.execute(x)
        y_c, s_c = clone.execute(x)
        np.testing.assert_array_equal(y, y_c)
        assert stats == s_c
