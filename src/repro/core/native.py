"""Build, cache and call the native program executor (``figlut_kernel.c``).

:meth:`~repro.core.program.CompiledProgram.execute` runs every GEMM — LUT
build, plane gather-accumulate, α-scaled ``y`` updates and the offset
stage — in one C call through :mod:`ctypes`, which releases the GIL for
the call, so the serving pool's column chunks run truly in parallel.

The kernel is compiled on first use with the system C compiler (``cc``)
into a per-user cache directory, ``$XDG_CACHE_HOME/repro-figlut`` (default
``~/.cache/repro-figlut``), under a name derived from the sha256 of the
kernel source, the compiler's ``--version`` output and the flags.  A
build is written to a temporary file and published with :func:`os.replace`,
so concurrent processes (parallel test runs, say) never load a partial
library.  Without a compiler, :func:`library` raises :class:`RuntimeError`
naming the compiler it tried.

:func:`bind` checks the dtype, C-contiguity, shape and index range of every
program buffer before any raw pointer reaches C; :func:`run` checks the
activation and output buffers of each call.  A bad buffer raises
:class:`ValueError` instead of reading out of bounds.  The per-call checks
are a handful of attribute compares, so a batch-1 :func:`run` costs little
more than the foreign call itself.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["ACCUMULATORS", "StageClock", "bind", "build_library",
           "cache_dir", "library", "run"]

SOURCE = Path(__file__).with_name("figlut_kernel.c")
COMPILER = "cc"
# -ffp-contract=off: no fused multiply-add, which would round once where
# the reference rounds twice.
FLAGS = ("-O3", "-std=c11", "-fPIC", "-shared", "-ffp-contract=off")

# Accumulator dtype → the kernel's accumulator code.
ACCUMULATORS = {np.dtype(np.float64): 0, np.dtype(np.float32): 1,
                np.dtype(np.float16): 2}

class _Program(ctypes.Structure):
    """Mirror of the kernel's ``figlut_program`` struct."""

    _fields_ = [("m", ctypes.c_int64), ("n", ctypes.c_int64),
                ("mu", ctypes.c_int64), ("num_segments", ctypes.c_int64),
                ("slots_per_segment", ctypes.c_int64),
                ("num_planes", ctypes.c_int64),
                ("lut_cols", ctypes.c_void_p),
                ("plane_rows", ctypes.c_void_p),
                ("keys", ctypes.c_void_p),
                ("rows", ctypes.c_void_p),
                ("scales", ctypes.c_void_p),
                ("num_groups", ctypes.c_int64),
                ("group_rows", ctypes.c_void_p),
                ("offsets", ctypes.c_void_p)]


def cache_dir() -> Path:
    """The per-user directory compiled kernels are cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro-figlut"


def build_library(cache: Path, compiler: str = COMPILER) -> Path:
    """Path of the compiled kernel in ``cache``, compiling it if absent."""
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        raise RuntimeError(
            f"the native GEMM kernel needs a C compiler; running "
            f"{compiler!r} failed: {exc}") from exc
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(b"\0".join(
        [source, version, " ".join(FLAGS).encode()])).hexdigest()
    target = Path(cache) / f"figlut-{digest[:24]}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-",
                               suffix=".so")
    os.close(fd)
    try:
        done = subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True)
        if done.returncode:
            raise RuntimeError(f"compiling {SOURCE.name} with {compiler!r} "
                               f"failed:\n{done.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load(path: Path) -> ctypes.CDLL:
    probe = np.empty(1)
    if (sys.implementation.name != "cpython"
            or _data(probe) != probe.ctypes.data):
        raise RuntimeError("the native GEMM kernel reads ndarray data "
                           "pointers as CPython lays them out; this "
                           "interpreter differs")
    lib = ctypes.CDLL(str(path))
    lib.figlut_execute.argtypes = [ctypes.POINTER(_Program), ctypes.c_int,
                                   ctypes.c_void_p, ctypes.c_int64,
                                   ctypes.c_void_p,
                                   ctypes.POINTER(ctypes.c_int64)]
    lib.figlut_execute.restype = ctypes.c_int
    return lib


# A running clock of profiled calls: nanoseconds in the LUT build, plane
# gathers, y updates and offset stage, then the call count.  The kernel adds
# to it atomically, so the pool's threads can share one.
StageClock = ctypes.c_int64 * 5

_lib: ctypes.CDLL | None = None
_lib_lock = threading.Lock()


def library() -> ctypes.CDLL:
    """The loaded kernel library (built into :func:`cache_dir` once)."""
    global _lib
    if _lib is None:
        with _lib_lock:
            if _lib is None:
                _lib = _load(build_library(cache_dir()))
    return _lib


# An ndarray's data pointer is the first field after its object header
# (NumPy's ``PyArrayObject_fields.data``, which the ``PyArray_DATA`` of
# every compiled extension reads), and CPython's ``id`` is the object's
# address.  Reading the field costs a fifth of ``arr.ctypes.data``, which
# builds a helper object per access; :func:`library` checks that the two
# agree before the first call.
_DATA_FIELD = object.__basicsize__
_pointer_at = ctypes.c_void_p.from_address


def _data(arr: np.ndarray) -> int:
    return _pointer_at(id(arr) + _DATA_FIELD).value


_F64 = np.dtype(np.float64)


def _checked(name: str, arr, dtype, shape: tuple[int, ...],
             high: int | None = None) -> np.ndarray:
    """``arr`` if it is a C-contiguous ``dtype`` array of ``shape`` whose
    values (for index buffers) lie in ``[0, high)``, else ``ValueError``."""
    if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
        raise ValueError(f"{name}: expected a {np.dtype(dtype)} array, got "
                         f"{getattr(arr, 'dtype', type(arr).__name__)}")
    if arr.shape != shape:
        raise ValueError(f"{name}: shape {arr.shape} != {shape}")
    if not arr.flags.c_contiguous:
        raise ValueError(f"{name}: buffer is not C-contiguous")
    if high is not None and arr.size and (arr.min() < 0 or arr.max() >= high):
        raise ValueError(f"{name}: index outside [0, {high})")
    return arr


def bind(program) -> _Program:
    """Validate a program's buffers and pack them for the kernel.

    The returned struct holds references to every array it points into,
    so it stays valid however long the program itself lives.
    """
    m, n, mu = program.m, program.n, program.mu
    if not 1 <= mu <= 16:
        raise ValueError(f"mu={mu} outside [1, 16]")
    segments, gmax = program.num_segments, program.slots_per_segment
    slots = segments * gmax
    lut_cols = _checked("lut_cols", program.lut_cols, np.int64, (slots, mu),
                        n + 1)
    planes = len(program.passes)
    plane_rows = np.empty(planes, dtype=np.int64)
    keys = (ctypes.c_void_p * max(planes, 1))()
    rows = (ctypes.c_void_p * max(planes, 1))()
    scales = (ctypes.c_void_p * max(planes, 1))()
    keep = [lut_cols, plane_rows, keys, rows, scales]
    for p, pp in enumerate(program.passes):
        width = pp.keys.shape[1] if getattr(pp.keys, "ndim", 0) == 2 else -1
        plane_rows[p] = width
        kp = _checked(f"keys{p}", pp.keys, np.int32, (slots, width), 1 << mu)
        sp = _checked(f"scales{p}", pp.scales, np.float64, (segments, width))
        keys[p], scales[p] = kp.ctypes.data, sp.ctypes.data
        keep += [kp, sp]
        if pp.rows is None:
            if width != m:
                raise ValueError(f"keys{p}: an unmasked plane covers all "
                                 f"{m} rows, not {width}")
        else:
            rp = _checked(f"rows{p}", pp.rows, np.int64, (width,), m)
            rows[p] = rp.ctypes.data
            keep.append(rp)
    groups = len(program.offset_slices)
    offsets = _checked("offsets", program.offsets, np.float64, (m, groups))
    # A ragged or non-pair entry fails the conversion with ValueError.
    group_rows = np.array(program.offset_slices,
                          dtype=np.int64).reshape(groups, 2)
    start, stop = group_rows[:, 0], group_rows[:, 1]
    if ((start < 0) | (start > stop) | (stop > n)).any():
        raise ValueError(f"offset_slices: a span [start, stop) outside "
                         f"0 <= start <= stop <= n={n}")
    keep += [offsets, group_rows]
    struct = _Program(m, n, mu, segments, gmax, planes, lut_cols.ctypes.data,
                      plane_rows.ctypes.data, ctypes.addressof(keys),
                      ctypes.addressof(rows), ctypes.addressof(scales),
                      groups, group_rows.ctypes.data, offsets.ctypes.data)
    struct.buffers = tuple(keep)
    return struct


def run(struct: _Program, x: np.ndarray, acc_dtype: np.dtype, y: np.ndarray,
        stage_ns: StageClock | None = None) -> None:
    """``y = W x``: the program's whole GEMM over ``x`` (GIL released).

    ``x`` is ``(n, batch)`` and ``y`` ``(m, batch)``, both C-contiguous
    float64; every element of ``y`` is overwritten.  ``stage_ns``, when
    given, is a running :data:`StageClock` the call adds its stage times
    and one call to.
    """
    acc = ACCUMULATORS.get(np.dtype(acc_dtype))
    if acc is None:
        raise ValueError(f"unsupported accumulator dtype {acc_dtype}; "
                         f"expected one of {sorted(map(str, ACCUMULATORS))}")
    batch = x.shape[1] if x.ndim == 2 else -1
    _checked("activations", x, _F64, (struct.n, batch))
    _checked("output", y, _F64, (struct.m, batch))
    if not y.flags.writeable:
        raise ValueError("output: buffer is read-only")
    if stage_ns is not None and type(stage_ns) is not StageClock:
        raise ValueError("stage_ns: expected a native.StageClock")
    status = library().figlut_execute(struct, acc, _data(x), batch, _data(y),
                                      stage_ns)
    if status == 2:
        raise MemoryError("native GEMM kernel: out of memory")
    if status:
        raise RuntimeError(f"native GEMM kernel failed with status {status}")
