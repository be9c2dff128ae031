"""Sharded MPU worker pool: pinned per-worker programs, concurrent shards.

A :class:`ShardedMPUPool` turns the single-process
:class:`~repro.core.mpu.MatrixProcessingUnit` into a scale-out executor:
every layer's tile-execution plan is cut into balanced
:class:`~repro.core.dataflow.PlanShard` slices (:func:`repro.serve.sharding.
shard_plan`) and each worker *pins* its slice of every layer as a
:class:`~repro.core.program.CompiledProgram` (:func:`repro.serve.sharding.
compile_shard_programs`) — the weight-stationary state a real accelerator
would keep latched in its RAC key registers.  Row-axis workers hold their
row slice's own full program, segment-axis workers the sub-program over
their segments and owned scale groups.  A ``gemm(name, x)`` call
broadcasts the activations, executes the shards concurrently, and reduces
with :func:`repro.serve.sharding.merge_shard_outputs` — bit-exact against
the unsharded MPU on the default row axis, with exactly additive
:class:`~repro.core.mpu.MPURunStats`.

Backends
--------
``"thread"`` (default)
    A persistent :class:`concurrent.futures.ThreadPoolExecutor`, one worker
    per shard.  Each shard's program runs its LUT datapath as one native
    kernel call that releases the GIL, so the shards execute in parallel
    without copying the activations.
``"serial"``
    In-line loop over the shards; deterministic and dependency-free, the
    baseline the equivalence tests compare against.
``"process"``
    Opt-in :mod:`multiprocessing` workers.  Row axis only; activations
    travel by pickle per request.  The parent compiles each worker's slice
    once and ships the **compiled program buffers** — flat key/scale/index
    matrices — through :mod:`multiprocessing.shared_memory` (one copy per
    worker slice); workers execute
    :meth:`~repro.core.program.CompiledProgram.execute` directly over
    zero-copy shared-memory views without re-planning or re-packing keys.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.dataflow import PlanShard, TileExecutionPlan
from repro.core.mpu import MatrixProcessingUnit, MPUConfig, MPURunStats, PreparedWeights
from repro.core.program import CompiledProgram
from repro.quant.bcq import BCQTensor
from repro.serve.sharding import compile_shard_programs, merge_shard_outputs, shard_plan
from repro.telemetry import get_telemetry

__all__ = ["ShardedMPUPool"]

_PROCESS_TIMEOUT_S = 120.0


def _process_worker_main(conn, layer_specs, acc_dtype_name) -> None:
    """Worker-process loop: attach pinned programs, serve GEMM requests.

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
                conn.send(programs[name].execute(x, accumulate_dtype=acc_dtype))
            except Exception as exc:  # surface worker errors to the parent
                conn.send(exc)
    finally:
        for shm in blocks:
            shm.close()
        conn.close()


class _ProcessWorker:
    """Parent-side handle of one pinned worker process.

    ``programs`` maps layer name to the worker's compiled program; its flat
    buffers are copied once into shared memory here and viewed zero-copy in
    the worker.
    """

    def __init__(self, ctx, programs: dict[str, CompiledProgram],
                 acc_dtype: np.dtype) -> None:
        from multiprocessing import shared_memory

        self._shm: list = []
        layer_specs = {}
        for name, program in programs.items():
            array_specs = {}
            for field_name, arr in program.buffers().items():
                arr = np.ascontiguousarray(arr)
                shm = shared_memory.SharedMemory(create=True,
                                                 size=max(arr.nbytes, 1))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                self._shm.append(shm)
                array_specs[field_name] = (shm.name, arr.shape, arr.dtype.str)
            layer_specs[name] = (program.spec(), array_specs)
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
            raise RuntimeError("shard worker process failed to start")

    def submit(self, name: str, x: np.ndarray) -> None:
        self._conn.send((name, x))

    def collect(self) -> tuple[np.ndarray, MPURunStats]:
        if not self._conn.poll(_PROCESS_TIMEOUT_S):
            raise RuntimeError("shard worker process timed out")
        result = self._conn.recv()
        if isinstance(result, Exception):
            raise result
        return result

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
        for shm in self._shm:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass
        self._shm.clear()


class ShardedMPUPool:
    """Execute every layer's GEMM across pinned per-worker plan shards.

    Parameters
    ----------
    weights:
        Layer name → BCQ tensor (e.g. ``QuantizedLM.bcq_views()``).  Every
        layer is sharded with the same worker count so one worker serves
        shard ``i`` of every layer.
    num_shards:
        Requested worker count; layers with fewer schedulable units get
        fewer shards (see :func:`~repro.serve.sharding.shard_plan`).
    mpu_config:
        MPU geometry shared by all workers.
    backend:
        ``"thread"`` (default), ``"serial"``, or ``"process"`` (opt-in,
        shared-memory program buffers, row axis only).
    accumulate_dtype:
        Accumulator dtype every worker's program executes with.
    axis:
        Shard axis, ``"rows"`` (bit-exact merge, default) or
        ``"segments"`` (summing merge; thread/serial backends only).
    shared_prepared:
        Optional externally-owned full-plan
        :class:`~repro.core.mpu.PreparedWeights` per layer (e.g.
        ``QuantizedLM.prepared_weights()``).  A layer whose row-axis shard
        covers the whole plan (single shard) pins this shared state's
        program instead of compiling its own copy, so the solo and served
        paths hold one set of RAC keys.  Ignored for multi-shard layers and
        the process backend.
    plans:
        Optional pre-built :class:`~repro.core.dataflow.TileExecutionPlan`
        per layer (e.g. the ``QuantizedLM.layer_plan`` memo) for the same
        MPU geometry; layers present here skip re-planning.
    """

    # Every shard runs its pinned CompiledProgram; reported by benchmarks.
    executor = "compiled"

    def __init__(self, weights: dict[str, BCQTensor], num_shards: int = 2,
                 mpu_config: MPUConfig | None = None, backend: str = "thread",
                 accumulate_dtype: np.dtype | type = np.float64,
                 axis: str = "rows",
                 shared_prepared: dict[str, PreparedWeights] | None = None,
                 plans: dict[str, TileExecutionPlan] | None = None) -> None:
        if backend not in ("serial", "thread", "process"):
            raise ValueError("backend must be 'serial', 'thread' or 'process'")
        if axis not in ("rows", "segments"):
            raise ValueError("axis must be 'rows' or 'segments'")
        if backend == "process" and axis != "rows":
            raise ValueError("the process backend pins row slices; use axis='rows'")
        if not weights:
            raise ValueError("pool needs at least one layer")
        self.mpu = MatrixProcessingUnit(mpu_config)
        self.backend = backend
        self.axis = axis
        self.accumulate_dtype = np.dtype(accumulate_dtype)
        plans = plans or {}
        self.plans: dict[str, TileExecutionPlan] = {
            name: plans.get(name) or self.mpu.plan(tensor)
            for name, tensor in weights.items()}
        self.shards: dict[str, list[PlanShard]] = {
            name: shard_plan(plan, num_shards, axis=axis)
            for name, plan in self.plans.items()}
        self.num_workers = max(len(s) for s in self.shards.values())

        # Worker w pins shard w's program of every layer that has one.  A
        # single row shard is the whole plan: pin the caller's shared
        # prepared program (identical bits, one resident copy for the solo
        # and served paths).
        self._programs: list[dict[str, CompiledProgram]] = [
            {} for _ in range(self.num_workers)]
        shared_prepared = shared_prepared if backend != "process" else None
        for name, tensor in weights.items():
            shards = self.shards[name]
            if (axis == "rows" and len(shards) == 1 and shared_prepared
                    and name in shared_prepared):
                programs = [shared_prepared[name].program]
            else:
                programs = compile_shard_programs(shards, tensor,
                                                  self.mpu.config)
            for w, program in enumerate(programs):
                self._programs[w][name] = program

        self._executor: ThreadPoolExecutor | None = None
        self._procs: list[_ProcessWorker] = []
        # Each worker pipe carries one in-flight request; concurrent gemm()
        # calls (e.g. overlapping micro-batches) must not interleave their
        # submit/collect pairs on the shared connections.
        self._proc_lock = threading.Lock()
        if backend == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="mpu-shard")
        elif backend == "process":
            method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                      else "spawn")
            ctx = multiprocessing.get_context(method)
            try:
                for programs in self._programs:
                    self._procs.append(_ProcessWorker(
                        ctx, programs, self.accumulate_dtype))
            except Exception:
                self.close()
                raise

    # -- dispatch ----------------------------------------------------------
    def layer_names(self) -> list[str]:
        return list(self.plans)

    def plan_stats(self, name: str, batch: int) -> MPURunStats:
        """Unsharded analytic counters for one layer (merge-equal to a run)."""
        return self.mpu.stats_from_plan(self.plans[name], batch)

    def gemm(self, name: str,
             activations: np.ndarray) -> tuple[np.ndarray, MPURunStats]:
        """Sharded ``Y = W[name] X`` with exactly merged stats."""
        if name not in self.plans:
            raise KeyError(f"{name!r} is not a pooled layer")
        shards = self.shards[name]
        tel = get_telemetry()
        if not tel.enabled:
            return merge_shard_outputs(
                shards, self._dispatch(name, shards, activations))
        with tel.trace.span("pool.gemm", layer=name, backend=self.backend,
                            shards=len(shards)):
            results = self._dispatch(name, shards, activations)
            with tel.trace.span("pool.merge", layer=name):
                return merge_shard_outputs(shards, results)

    def _dispatch(self, name: str, shards: list[PlanShard],
                  activations: np.ndarray) -> list[tuple[np.ndarray, MPURunStats]]:
        """Run every shard of one layer through the backend, shard order."""
        if self.backend == "process":
            tel = get_telemetry()
            t0 = time.perf_counter_ns() if tel.enabled else 0
            with self._proc_lock:
                for w in range(len(shards)):
                    self._procs[w].submit(name, activations)
                # Drain every dispatched worker's reply before raising the
                # first error: a reply left unread in its pipe would be
                # taken as the answer to the next call.
                results, error = [], None
                for w in range(len(shards)):
                    try:
                        results.append(self._procs[w].collect())
                    except Exception as exc:
                        error = error or exc
                        continue
                    if tel.enabled:
                        # Round-trip as the parent sees it: fan-out submit
                        # to this worker's collect (the child runs in its
                        # own process with its own disabled telemetry).
                        tel.trace.record("pool.shard", t0,
                                         time.perf_counter_ns(),
                                         layer=name, shard=w,
                                         backend="process")
            if error is not None:
                raise error
            return results
        if self.backend == "thread":
            futures = [
                self._executor.submit(self._run_shard, w, name, activations)
                for w in range(len(shards))]
            return [f.result() for f in futures]
        return [self._run_shard(w, name, activations)
                for w in range(len(shards))]

    def _run_shard(self, w: int, name: str, activations: np.ndarray
                   ) -> tuple[np.ndarray, MPURunStats]:
        """One worker's pinned-program execution (serial/thread backends)."""
        program = self._programs[w][name]
        tel = get_telemetry()
        if not tel.enabled:
            return program.execute(activations,
                                   accumulate_dtype=self.accumulate_dtype)
        with tel.trace.span("pool.shard", layer=name, shard=w,
                            axis=self.axis, backend=self.backend):
            return program.execute(activations,
                                   accumulate_dtype=self.accumulate_dtype)

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

    def __enter__(self) -> ShardedMPUPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
