"""Serving worker pool: one pinned program per layer, column fan-out.

A :class:`ShardedMPUPool` serves every weight GEMM of a model from exactly
one :class:`~repro.core.program.CompiledProgram` per layer — the
weight-stationary state (RAC keys, α and offset matrices) a real
accelerator keeps latched, held once and read by every worker.  FIGLUT
builds each LUT from a µ-slice of one activation column and every output
row reads it, so the pool never cuts a layer's rows (each row shard would
rebuild every table).  It splits the *activation columns* instead, and
only when the call carries enough work to pay for the hop:

* below ``_FANOUT_LUT_READS`` LUT reads — the plan's work at that column
  count, ``plan_stats(name, batch).lut_reads`` — the call runs inline on the
  calling thread: at batch 1 a thread hop costs more than the kernel;
* at or above it, the columns are cut into ``num_workers`` contiguous
  chunks that run concurrently and are concatenated in order.

The program never mixes columns (the native kernel keeps them apart, its
offset stage included, see ``docs/compilation.md``), so both paths are
bit-identical to one ``execute`` of the whole batch and to
``gemm_reference``.  A call returns ``Y`` alone: the pool counts each
layer's completed calls and columns, which :attr:`ShardedMPUPool.mpu_stats`
turns into the sum of every call's ``plan_stats`` when read.

The calling thread runs the first chunk and a persistent
:class:`concurrent.futures.ThreadPoolExecutor` the others; the kernel
releases the GIL, so the chunks execute in parallel over the one shared
program, with no copy of its buffers.  A fanned-out call returns, or
raises, only once all of its chunks have finished, so a failed call leaves
no chunk running behind the next one; the first error in chunk order is
the one raised.  After :meth:`ShardedMPUPool.close` every ``gemm`` raises.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields

import numpy as np

from repro.core.dataflow import TileExecutionPlan
from repro.core.mpu import MatrixProcessingUnit, MPUConfig, MPURunStats, PreparedWeights
from repro.core.program import CompiledProgram
from repro.quant.bcq import BCQTensor
from repro.telemetry import get_telemetry

__all__ = ["PoolCounters", "ShardedMPUPool"]

# LUT reads from which a call fans out: the measured inline-vs-split
# crossover of the bench model on a 2-vCPU host lies between ~3M
# (``mlp.w2``) and ~6M (``mlp.w1``) reads per call.
_FANOUT_LUT_READS = 3_000_000


@dataclass
class PoolCounters:
    """GEMM calls by path: run inline, or fanned out over column chunks."""

    inline: int = 0
    fanout: int = 0


class ShardedMPUPool:
    """Serve every layer's GEMM from one pinned program per layer.

    Parameters
    ----------
    weights:
        Layer name → BCQ tensor (e.g. ``QuantizedLM.bcq_views()``), or its
        :class:`~repro.core.mpu.PreparedWeights` (e.g.
        ``QuantizedLM.prepared_weights()``), whose program is pinned as is
        so the solo and served paths hold one set of RAC keys.  It must be
        prepared for the same ``mpu_config``: weights prepared for another
        geometry raise ``ValueError``.  A tensor is prepared here.
    num_shards:
        Worker count: a fanned-out call splits its activation columns into
        this many contiguous chunks (fewer when the call has fewer
        columns).  With one worker every call runs inline.
    mpu_config:
        MPU geometry of the plans.
    accumulate_dtype:
        Accumulator dtype every program executes with.
    """

    # Every call runs the layer's pinned CompiledProgram, fanned out over
    # activation columns on threads; all three are reported by benchmarks.
    executor = "compiled"
    axis = "columns"
    backend = "thread"

    def __init__(self, weights: Mapping[str, BCQTensor | PreparedWeights],
                 num_shards: int = 2, mpu_config: MPUConfig | None = None,
                 accumulate_dtype: np.dtype | type = np.float64) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not weights:
            raise ValueError("pool needs at least one layer")
        self.mpu = MatrixProcessingUnit(mpu_config)
        self.num_workers = num_shards
        self.accumulate_dtype = np.dtype(accumulate_dtype)
        prepared = {}
        for name, w in weights.items():
            if not isinstance(w, PreparedWeights):
                w = self.mpu.prepare(w)
            elif w.config != self.mpu.config:
                raise ValueError(
                    f"layer {name!r} was prepared for {w.config}; the pool's "
                    f"MPUConfig is {self.mpu.config}")
            prepared[name] = w
        self.plans: dict[str, TileExecutionPlan] = {
            name: p.plan for name, p in prepared.items()}
        self._programs: dict[str, CompiledProgram] = {
            name: p.program for name, p in prepared.items()}
        # Each layer's per-counter (intercept, slope) in the batch, for
        # mpu_stats and the fan-out threshold.
        self._affine = {name: self.mpu.affine_stats(plan)
                        for name, plan in self.plans.items()}
        # The first column count whose LUT reads reach the fan-out
        # threshold (reads are linear in the batch, so a ceiling division
        # finds it); one column, or one worker, never fans out.
        self._fanout_cols: dict[str, float] = {}
        for name, (_, slope) in self._affine.items():
            per_col = MPURunStats(*slope).lut_reads
            self._fanout_cols[name] = (
                max(2, -(-_FANOUT_LUT_READS // per_col))
                if per_col > 0 and num_shards > 1 else float("inf"))
        self.counters = PoolCounters()
        # Layer -> [completed calls, their activation columns].
        self._tally = {name: [0, 0] for name in self._programs}
        self._lock = threading.Lock()
        self._closed = False
        self._executor: ThreadPoolExecutor | None = None
        if num_shards > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=num_shards - 1, thread_name_prefix="mpu-pool")

    # -- dispatch ----------------------------------------------------------
    def plan_stats(self, name: str, batch: int) -> MPURunStats:
        """The layer plan's analytic counters (equal to a run's stats)."""
        return self.mpu.stats_from_plan(self.plans[name], batch)

    @property
    def mpu_stats(self) -> MPURunStats:
        """The plan-exact counters of every call that returned: per layer,
        ``calls × intercept + columns × slope`` of its plan's stats."""
        with self._lock:
            tally = [(self._affine[name], calls, cols)
                     for name, (calls, cols) in self._tally.items()]
        total = [0] * len(fields(MPURunStats))
        for (base, slope), calls, cols in tally:
            total = [t + calls * b + cols * s for t, b, s in zip(
                total, base, slope, strict=True)]
        return MPURunStats(*total)

    def gemm(self, name: str, activations: np.ndarray) -> np.ndarray:
        """``Y = W[name] X``, inline or fanned out; counted once it returns."""
        program = self._programs.get(name)
        if program is None:
            raise KeyError(f"{name!r} is not a pooled layer")
        activations = np.asarray(activations)
        cols = 1 if activations.ndim == 1 else activations.shape[1]
        fanout = cols >= self._fanout_cols[name]
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if fanout:
                self.counters.fanout += 1
            else:
                self.counters.inline += 1
        tel = get_telemetry()
        if not (fanout and tel.enabled):
            # An inline call is one native call, timed per program by the
            # opcode profile; a span on each would be most of a decode
            # token's trace events (25 of 26 on a 4-layer model).
            y = self._run(name, program, activations, fanout)
        else:
            with tel.trace.span("pool.gemm", layer=name, cols=cols):
                y = self._run(name, program, activations, fanout)
        with self._lock:
            tally = self._tally[name]
            tally[0] += 1
            tally[1] += cols
        return y

    def _run(self, name: str, program: CompiledProgram,
             activations: np.ndarray, fanout: bool) -> np.ndarray:
        if not fanout:
            return program.execute(activations,
                                   accumulate_dtype=self.accumulate_dtype)
        # Contiguous column chunks, run concurrently, concatenated in order.
        cols = activations.shape[1]
        k = min(self.num_workers, cols)
        edges = [cols * i // k for i in range(k + 1)]
        chunks = [activations[:, edges[i]:edges[i + 1]] for i in range(k)]
        outputs = self._dispatch(name, program, chunks)
        tel = get_telemetry()
        if not tel.enabled:
            return np.concatenate(outputs, axis=1)
        with tel.trace.span("pool.merge", layer=name):
            return np.concatenate(outputs, axis=1)

    def _dispatch(self, name: str, program: CompiledProgram,
                  chunks: list[np.ndarray]) -> list[np.ndarray]:
        """Every chunk's output, in chunk order: chunk 0 on the calling
        thread, the others on the executor."""
        futures = [self._executor.submit(self._run_chunk, name, program,
                                         w, chunk)
                   for w, chunk in enumerate(chunks[1:], start=1)]
        try:
            first = self._run_chunk(name, program, 0, chunks[0])
        finally:
            # Drain the call's other chunks even when chunk 0 raised: one
            # left running would hold a worker the next call queues behind.
            wait(futures)
        return [first] + [f.result() for f in futures]

    def _run_chunk(self, name: str, program: CompiledProgram, w: int,
                   chunk: np.ndarray) -> np.ndarray:
        """One column chunk through the shared program."""
        tel = get_telemetry()
        if not tel.enabled:
            return program.execute(chunk,
                                   accumulate_dtype=self.accumulate_dtype)
        with tel.trace.span("pool.shard", layer=name, shard=w,
                            cols=chunk.shape[1]):
            return program.execute(chunk,
                                   accumulate_dtype=self.accumulate_dtype)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        # Teardown is single-owner by the context-manager contract: no gemm
        # call may race close(), and shutdown(wait=True) below joins the
        # executor threads before the store.  Every later gemm() raises.
        with self._lock:
            self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None  # repro: noqa unlocked-shared-state

    def __enter__(self) -> ShardedMPUPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
