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
  count, ``program.stats(batch).lut_reads`` — the call runs inline on the
  calling thread: at batch 1 a thread hop costs more than the kernel;
* at or above it, the columns are cut into ``num_workers`` contiguous
  chunks that run concurrently and are concatenated in order.

The program never mixes columns (the native kernel keeps them apart and
the offset stage sums each column alone, see ``docs/compilation.md``), so
both paths are bit-identical to one ``execute`` of the whole batch and to
``gemm_reference``; the :class:`~repro.core.mpu.MPURunStats` are the
program's for the whole batch, computed once per call.

Backends
--------
``"thread"`` (default)
    The calling thread runs the first chunk and a persistent
    :class:`concurrent.futures.ThreadPoolExecutor` the others; the kernel
    releases the GIL, so the chunks execute in parallel over the one
    shared program.
``"serial"``
    The chunks run one after another on the calling thread; deterministic,
    the baseline the equivalence tests compare against.
``"process"``
    Opt-in :mod:`multiprocessing` workers.  The parent copies each layer's
    program buffers once into :mod:`multiprocessing.shared_memory`; every
    worker rebuilds the programs as zero-copy views of that one copy
    (:meth:`~repro.core.program.CompiledProgram.from_buffers`) and receives
    its column chunk by pickle.  Inline calls run in the parent.  A
    worker that times out, or whose pipe breaks, fails the pool closed:
    its reply could still be in flight and would answer the next call, so
    every worker is terminated, the shared memory is unlinked, and every
    later :meth:`ShardedMPUPool.gemm` raises.  An exception a worker
    sends back as its reply fails only that call.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.dataflow import TileExecutionPlan, TilingConfig
from repro.core.mpu import MatrixProcessingUnit, MPUConfig, MPURunStats, PreparedWeights
from repro.core.program import CompiledProgram
from repro.quant.bcq import BCQTensor
from repro.telemetry import get_telemetry

__all__ = ["PoolCounters", "ShardedMPUPool"]

_PROCESS_TIMEOUT_S = 120.0

# LUT reads from which a call fans out: the measured inline-vs-split
# crossover of the bench model on a 2-vCPU host lies between ~3M
# (``mlp.w2``) and ~6M (``mlp.w1``) reads per call.
_FANOUT_LUT_READS = 3_000_000


def _process_worker_main(conn, layer_specs, acc_dtype_name) -> None:
    """Worker-process loop: attach the shared programs, serve GEMM chunks.

    ``layer_specs`` maps layer name to ``(spec, array_specs)``: a
    parent-compiled :class:`~repro.core.program.CompiledProgram`'s picklable
    :meth:`~repro.core.program.CompiledProgram.spec` and, per buffer,
    ``(shm_name, shape, dtype_str)``.  Each program is rebuilt as zero-copy
    views over the shared buffers.  The worker owns no shared-memory
    lifetime — the parent unlinks on close.
    """
    from multiprocessing import shared_memory

    blocks = []
    try:
        acc_dtype = np.dtype(acc_dtype_name)
        programs: dict[str, CompiledProgram] = {}
        for name, (spec, array_specs) in layer_specs.items():
            arrays = {}
            for field_name, (shm_name, arr_shape, dtype_str) in array_specs.items():
                shm = shared_memory.SharedMemory(name=shm_name)
                blocks.append(shm)
                arrays[field_name] = np.ndarray(arr_shape, dtype=np.dtype(dtype_str),
                                                buffer=shm.buf)
            programs[name] = CompiledProgram.from_buffers(spec, arrays)
        conn.send("ready")
        while True:
            msg = conn.recv()
            if msg is None:
                break
            name, x = msg
            try:
                conn.send(programs[name].execute(x, accumulate_dtype=acc_dtype)[0])
            except Exception as exc:  # surface worker errors to the parent
                conn.send(exc)
    finally:
        for shm in blocks:
            shm.close()
        conn.close()


class _WorkerLost(RuntimeError):
    """A worker timed out or its pipe broke: its state is unknown."""


class _ProcessWorker:
    """Parent-side handle of one worker process over the shared programs."""

    def __init__(self, ctx, layer_specs: dict, acc_dtype: np.dtype) -> None:
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_process_worker_main,
            args=(child_conn, layer_specs, acc_dtype.name),
            daemon=True)
        self._proc.start()
        child_conn.close()
        try:
            ready = (self._conn.poll(_PROCESS_TIMEOUT_S)
                     and self._conn.recv() == "ready")
        except (EOFError, OSError):  # worker died during startup
            ready = False
        if not ready:
            self.close()
            raise RuntimeError("pool worker process failed to start")

    def submit(self, name: str, x: np.ndarray) -> None:
        try:
            self._conn.send((name, x))
        except OSError as exc:
            raise _WorkerLost(f"pool worker process pipe failed: {exc!r}") from exc

    def collect(self) -> np.ndarray | Exception:
        """The worker's reply: its output, or the exception it sent back."""
        try:
            if not self._conn.poll(_PROCESS_TIMEOUT_S):
                raise _WorkerLost("pool worker process timed out")
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerLost(f"pool worker process pipe failed: {exc!r}") from exc

    def terminate(self) -> None:
        """Kill the worker without waiting for its current request."""
        self._proc.terminate()
        self._proc.join(timeout=5.0)

    def close(self) -> None:
        try:
            if self._proc.is_alive():
                self._conn.send(None)
                self._proc.join(timeout=5.0)
            if self._proc.is_alive():  # pragma: no cover - defensive
                self._proc.terminate()
                self._proc.join(timeout=5.0)
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        self._conn.close()


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
        prepared for the same ``mpu_config``: a plan or baked stats from
        another geometry raise ``ValueError``.  A tensor is prepared here.
    num_shards:
        Worker count: a fanned-out call splits its activation columns into
        this many contiguous chunks (fewer when the call has fewer
        columns).  With one worker every call runs inline.
    mpu_config:
        MPU geometry of the plans.
    backend:
        ``"thread"`` (default), ``"serial"``, or ``"process"`` (opt-in,
        shared-memory program buffers).
    accumulate_dtype:
        Accumulator dtype every program executes with.
    """

    # Every call runs the layer's pinned CompiledProgram, fanned out over
    # activation columns; both are reported by benchmarks.
    executor = "compiled"
    axis = "columns"

    def __init__(self, weights: Mapping[str, BCQTensor | PreparedWeights],
                 num_shards: int = 2, mpu_config: MPUConfig | None = None,
                 backend: str = "thread",
                 accumulate_dtype: np.dtype | type = np.float64) -> None:
        if backend not in ("serial", "thread", "process"):
            raise ValueError("backend must be 'serial', 'thread' or 'process'")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not weights:
            raise ValueError("pool needs at least one layer")
        self.mpu = MatrixProcessingUnit(mpu_config)
        self.backend = backend
        self.num_workers = num_shards
        self.accumulate_dtype = np.dtype(accumulate_dtype)
        prepared = {}
        for name, w in weights.items():
            if isinstance(w, PreparedWeights):
                self._check_prepared(name, w)
            else:
                w = self.mpu.prepare(w)
            prepared[name] = w
        self.plans: dict[str, TileExecutionPlan] = {
            name: p.plan for name, p in prepared.items()}
        self._programs: dict[str, CompiledProgram] = {
            name: p.program for name, p in prepared.items()}
        # The first column count whose LUT reads reach the fan-out
        # threshold (reads are linear in the batch, so a ceiling division
        # finds it); one column, or one worker, never fans out.
        self._fanout_cols: dict[str, float] = {}
        for name, program in self._programs.items():
            per_col = program.stats(1).lut_reads - program.stats(0).lut_reads
            self._fanout_cols[name] = (
                max(2, -(-_FANOUT_LUT_READS // per_col))
                if per_col > 0 and num_shards > 1 else float("inf"))
        self.counters = PoolCounters()
        self._lock = threading.Lock()
        # Set when a process worker timed out or its pipe broke; the pool
        # is then closed and every later gemm() raises naming it.
        self._failure: str | None = None

        self._executor: ThreadPoolExecutor | None = None
        self._procs: list[_ProcessWorker] = []
        self._shm: list = []
        # Each worker pipe carries one in-flight request; concurrent gemm()
        # calls (e.g. overlapping micro-batches) must not interleave their
        # submit/collect pairs on the shared connections.
        self._proc_lock = threading.Lock()
        if backend == "thread" and num_shards > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=num_shards - 1, thread_name_prefix="mpu-pool")
        elif backend == "process" and num_shards > 1:
            method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                      else "spawn")
            ctx = multiprocessing.get_context(method)
            try:
                layer_specs = self._share_programs()
                for _ in range(num_shards):
                    self._procs.append(_ProcessWorker(
                        ctx, layer_specs, self.accumulate_dtype))
            except Exception:
                self.close()
                raise

    def _check_prepared(self, name: str, prepared: PreparedWeights) -> None:
        """Reject weights planned for another geometry, without re-planning:
        their program would serve stats that disagree with
        :meth:`plan_stats`."""
        cfg = self.mpu.config
        plan = prepared.plan
        tiling = TilingConfig(tile_m=cfg.tile_m, tile_n=cfg.tile_n)
        if (plan.mu, plan.tiling) != (cfg.mu, tiling):
            raise ValueError(
                f"layer {name!r} was planned with µ={plan.mu}, {plan.tiling}; "
                f"the pool's MPUConfig needs µ={cfg.mu}, {tiling}")
        # Baked stats are affine in the batch: batches 0 and 1 pin them.
        for batch in (0, 1):
            if prepared.program.stats(batch) != self.mpu.stats_from_plan(
                    plan, batch):
                raise ValueError(
                    f"layer {name!r}: the prepared program's stats at batch "
                    f"{batch} disagree with the pool's MPUConfig")

    def _share_programs(self) -> dict:
        """Copy every program's buffers once into shared memory; return the
        per-layer ``(spec, {field: (shm_name, shape, dtype)})`` workers
        attach to."""
        from multiprocessing import shared_memory

        layer_specs = {}
        for name, program in self._programs.items():
            array_specs = {}
            for field_name, arr in program.buffers().items():
                arr = np.ascontiguousarray(arr)
                shm = shared_memory.SharedMemory(create=True,
                                                 size=max(arr.nbytes, 1))
                self._shm.append(shm)
                np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
                array_specs[field_name] = (shm.name, arr.shape, arr.dtype.str)
            layer_specs[name] = (program.spec(), array_specs)
        return layer_specs

    # -- dispatch ----------------------------------------------------------
    def layer_names(self) -> list[str]:
        return list(self.plans)

    def plan_stats(self, name: str, batch: int) -> MPURunStats:
        """The layer plan's analytic counters (equal to a run's stats)."""
        return self.mpu.stats_from_plan(self.plans[name], batch)

    def gemm(self, name: str,
             activations: np.ndarray) -> tuple[np.ndarray, MPURunStats]:
        """``Y = W[name] X`` with the plan-exact stats, inline or fanned out."""
        if self._failure is not None:
            raise self._closed_error()
        program = self._programs.get(name)
        if program is None:
            raise KeyError(f"{name!r} is not a pooled layer")
        activations = np.asarray(activations)
        cols = 1 if activations.ndim == 1 else activations.shape[1]
        fanout = cols >= self._fanout_cols[name]
        with self._lock:
            if fanout:
                self.counters.fanout += 1
            else:
                self.counters.inline += 1
        tel = get_telemetry()
        if not tel.enabled:
            return self._run(name, program, activations, fanout)
        with tel.trace.span("pool.gemm", layer=name, backend=self.backend,
                            cols=cols, fanout=fanout):
            return self._run(name, program, activations, fanout)

    def _run(self, name: str, program: CompiledProgram,
             activations: np.ndarray,
             fanout: bool) -> tuple[np.ndarray, MPURunStats]:
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
            return np.concatenate(outputs, axis=1), program.stats(cols)
        with tel.trace.span("pool.merge", layer=name):
            return np.concatenate(outputs, axis=1), program.stats(cols)

    def _dispatch(self, name: str, program: CompiledProgram,
                  chunks: list[np.ndarray]) -> list[np.ndarray]:
        """Every chunk's output through the backend, in chunk order."""
        if self.backend == "process":
            tel = get_telemetry()
            t0 = time.perf_counter_ns() if tel.enabled else 0
            with self._proc_lock:
                if self._failure is not None:  # failed while this call waited
                    raise self._closed_error()
                try:
                    for w, chunk in enumerate(chunks):
                        self._procs[w].submit(name, chunk)
                    # Drain every dispatched worker's reply before raising
                    # the first error one sent back: a reply left unread in
                    # its pipe would be taken as the answer to the next call.
                    replies = []
                    for w in range(len(chunks)):
                        replies.append(self._procs[w].collect())
                        if tel.enabled and not isinstance(replies[-1], Exception):
                            # Round-trip as the parent sees it: fan-out
                            # submit to this worker's collect (the child runs
                            # in its own process with its own disabled
                            # telemetry).
                            tel.trace.record("pool.shard", t0,
                                             time.perf_counter_ns(), layer=name,
                                             shard=w, cols=chunks[w].shape[1],
                                             backend="process")
                except _WorkerLost as exc:
                    self._fail_closed(exc)
                    raise self._closed_error() from exc
            for reply in replies:
                if isinstance(reply, Exception):
                    raise reply
            return replies
        if self.backend == "thread":
            futures = [self._executor.submit(self._run_chunk, name, program,
                                             w, chunk)
                       for w, chunk in enumerate(chunks[1:], start=1)]
            first = self._run_chunk(name, program, 0, chunks[0])
            return [first] + [f.result() for f in futures]
        return [self._run_chunk(name, program, w, chunk)
                for w, chunk in enumerate(chunks)]

    def _fail_closed(self, exc: _WorkerLost) -> None:
        """Terminate every worker and unlink the shared memory: a lost
        worker's reply may still be in flight, so no later call may read
        from any pipe.  The caller holds ``_proc_lock``."""
        with self._lock:
            self._failure = str(exc)
        for proc in self._procs:
            proc.terminate()
        self.close()

    def _closed_error(self) -> RuntimeError:
        return RuntimeError(
            f"pool closed after a worker failure: {self._failure}")

    def _run_chunk(self, name: str, program: CompiledProgram, w: int,
                   chunk: np.ndarray) -> np.ndarray:
        """One column chunk through the shared program (serial/thread)."""
        tel = get_telemetry()
        if not tel.enabled:
            return program.execute(chunk,
                                   accumulate_dtype=self.accumulate_dtype)[0]
        with tel.trace.span("pool.shard", layer=name, shard=w,
                            cols=chunk.shape[1], backend=self.backend):
            return program.execute(chunk,
                                   accumulate_dtype=self.accumulate_dtype)[0]

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        # Teardown is single-owner by the context-manager contract: no gemm
        # call may race close(), and shutdown(wait=True) below joins the
        # executor threads before the store — holding _proc_lock here would
        # deadlock against a worker draining its last request.
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None  # repro: noqa unlocked-shared-state
        for proc in self._procs:
            proc.close()
        self._procs.clear()
        for shm in self._shm:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass
        self._shm.clear()

    def __enter__(self) -> ShardedMPUPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
