"""Opt-in profiling rollups: cumulative (count, seconds, bytes) per op.

This is the third telemetry layer: when ``Telemetry.profiling`` is on,
the compiled executor rolls up per-instruction opcode timings keyed by
lowering tier — ``program.<tier>.<op>``, e.g. ``program.fused.luts`` /
``program.fused.plane`` / ``program.blocked.plane_block`` plus the
shared ``scale`` / ``offset`` ops,
with bytes-touched estimates — and the scheduler rolls up per-phase
timings (``scheduler.admit`` / ``scheduler.decode``).  The tier prefix
separates the kernel families, so a mixed fleet (decode layers fused,
prefill-heavy layers blocked) shows where each lowering spends its time.

Hot loops accumulate into a *local* dict and merge once per call via
:meth:`Profile.update`, so the lock is taken once per program execution,
not once per instruction.
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

    def update(self, rollups: dict[str, tuple[int, float, int]]) -> None:
        """Merge locally accumulated (count, seconds, bytes) triples under
        one lock acquisition — the hot-loop exit path."""
        with self._lock:
            for op, (count, seconds, nbytes) in rollups.items():
                entry = self._ops.get(op)
                if entry is None:
                    entry = [0, 0.0, 0]
                    self._ops[op] = entry
                entry[0] += count
                entry[1] += seconds
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
