"""Opt-in profiling rollups: cumulative (count, seconds, bytes) per op.

This is the third telemetry layer: when ``Telemetry.profiling`` is on,
the compiled executor rolls up per-stage timings of its native kernel —
``program.fused.luts`` / ``program.fused.plane`` / ``program.fused.scale``
plus the NumPy ``program.fused.offset`` stage — with bytes-touched
estimates, and the scheduler rolls up per-phase timings
(``scheduler.admit`` / ``scheduler.decode``).

Hot loops accumulate locally and merge once per call via
:meth:`Profile.add_timed`, so the lock is taken once per program
execution, not once per stage.
"""

from __future__ import annotations

import threading

__all__ = ["Profile"]


class Profile:
    """Thread-safe cumulative rollups keyed by operation name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # op -> [count, seconds, bytes]
        self._ops: dict[str, list] = {}

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

    def add_timed(self, rows, clock_ns) -> None:
        """Merge ``(op, count, bytes, slot)`` rows timed by ``clock_ns[slot]``
        nanoseconds under one lock acquisition — the compiled executor's
        per-call path, with ``rows`` cached per program and batch."""
        with self._lock:
            for op, count, nbytes, slot in rows:
                entry = self._ops.get(op)
                if entry is None:
                    entry = [0, 0.0, 0]
                    self._ops[op] = entry
                entry[0] += count
                entry[1] += clock_ns[slot] / 1e9
                entry[2] += nbytes

    def snapshot(self) -> dict[str, dict]:
        """op → {count, seconds, bytes}, sorted by op name."""
        with self._lock:
            return {op: {"count": e[0], "seconds": e[1], "bytes": e[2]}
                    for op, e in sorted(self._ops.items())}

    def clear(self) -> None:
        with self._lock:
            self._ops.clear()

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._ops)
