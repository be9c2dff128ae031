"""Opt-in profiling rollups: cumulative (count, seconds, bytes) per op.

This is the third telemetry layer: when ``Telemetry.profiling`` is on,
the compiled executor rolls up per-stage timings of its native kernel —
``program.fused.luts`` / ``program.fused.plane`` / ``program.fused.scale``
/ ``program.fused.offset`` — with bytes-touched estimates, and the
scheduler rolls up per-phase timings (``scheduler.admit`` /
``scheduler.decode``).

A phase records itself with :meth:`Profile.record`.  The kernel keeps its
own running stage clocks instead (one per program and batch width, added
to atomically in C), and the executor attaches a reader of each clock once
(:meth:`Profile.attach`), so a profiled GEMM adds no Python work per call;
every :meth:`Profile.snapshot` folds the attached readers' totals in.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable

__all__ = ["Profile"]

# A reader of running totals: ``(op, count, seconds, bytes)`` rows.
Reader = Callable[[], Iterable[tuple[str, int, float, int]]]


class Profile:
    """Thread-safe cumulative rollups keyed by operation name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # op -> [count, seconds, bytes]
        self._ops: dict[str, list] = {}
        self._readers: list[Reader] = []

    def record(self, op: str, seconds: float, nbytes: int = 0,
               count: int = 1) -> None:
        with self._lock:
            entry = self._ops.get(op)
            if entry is None:
                entry = [0, 0.0, 0]
                self._ops[op] = entry
            entry[0] += count
            entry[1] += seconds
            entry[2] += nbytes

    def attach(self, reader: Reader) -> None:
        """Add ``reader()``'s running ``(op, count, seconds, bytes)`` totals
        to every later :meth:`snapshot`."""
        with self._lock:
            self._readers.append(reader)

    def snapshot(self) -> dict[str, dict]:
        """op → {count, seconds, bytes}, sorted by op name."""
        with self._lock:
            ops = {op: list(entry) for op, entry in self._ops.items()}
            readers = list(self._readers)
        for reader in readers:
            for op, count, seconds, nbytes in reader():
                entry = ops.setdefault(op, [0, 0.0, 0])
                entry[0] += count
                entry[1] += seconds
                entry[2] += nbytes
        return {op: {"count": e[0], "seconds": e[1], "bytes": e[2]}
                for op, e in sorted(ops.items())}

    def __bool__(self) -> bool:
        return bool(self.snapshot())
