"""repro.telemetry — tracing, metrics, and profiling for the serving stack.

Three layers behind one :class:`Telemetry` handle:

1. **Tracing** (:mod:`repro.telemetry.tracing`): ring-buffered spans over
   monotonic clocks covering the full request lifecycle — submit →
   scheduler queue → admission round → paged prefill (incl. prefix-share
   hits; a scoring request settles here) → each decode iteration →
   departure — plus executor-level spans
   (``mpu.gemm``; a fanned-out ``pool.gemm`` with its per-shard
   ``pool.shard`` dispatch and ``pool.merge``).
   Export with :meth:`Telemetry.export_chrome` and open in Perfetto.
2. **Metrics** (:mod:`repro.telemetry.metrics`): Counter/Gauge/Histogram
   families with label sets and O(1) streaming percentile reservoirs.
   The serving structs own their latency histograms and count in plain
   ``int`` fields; :func:`bind_server` registers those histograms and
   exports every counter field as a live callback gauge.  Collect with
   :meth:`Telemetry.snapshot` (JSON) or
   :meth:`Telemetry.render_prometheus` (text exposition).
3. **Profiling** (:mod:`repro.telemetry.profiling`): opt-in
   per-instruction opcode rollups inside ``CompiledProgram.execute`` and
   per-phase scheduler timings, enabled with ``profiling=True``.

The handle is resolved per call site through :func:`get_telemetry`; the
module-level default is **disabled**, and instrumented code guards every
span with a single attribute check (``if not tel.enabled``), so the
disabled path costs one global load and one branch.  The layer never
touches computed values — outputs and ``MPURunStats`` stay bit-identical
with telemetry on or off (pinned by ``tests/test_telemetry_serve.py``).

Typical use::

    from repro.telemetry import telemetry_session

    with telemetry_session(profiling=True) as tel:
        ...  # build + drive an InferenceServer
        tel.export_chrome("trace.json")
        print(tel.render_prometheus())

See ``docs/observability.md`` for the span taxonomy and metric tables.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry.adapters import bind_server
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PercentileReservoir,
)
from repro.telemetry.profiling import Profile
from repro.telemetry.tracing import SpanEvent, TraceRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PercentileReservoir",
    "Profile",
    "SpanEvent",
    "Telemetry",
    "TraceRecorder",
    "bind_server",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
]


class _NullSpan:
    """Shared no-op span: the disabled fast path allocates nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """One handle bundling a trace recorder, registry, and profile.

    ``enabled`` gates tracing + metrics adapters; ``profiling``
    additionally turns on the per-instruction/per-phase rollups (it has
    no effect unless ``enabled``).  Instrumented call sites read both as
    plain attributes, so toggling requires no re-wiring.
    """

    def __init__(self, enabled: bool = False, profiling: bool = False,
                 trace_capacity: int = 65536) -> None:
        self.enabled = bool(enabled)
        self.profiling = bool(profiling)
        self.trace = TraceRecorder(trace_capacity)
        self.metrics = MetricsRegistry()
        self.profile = Profile()

    def span(self, name: str, **args):
        """A context-manager span, or the shared no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return self.trace.span(name, **args)

    def instant(self, name: str, **args) -> None:
        if self.enabled:
            self.trace.instant(name, **args)

    def enable(self, profiling: bool = False) -> None:
        self.enabled = True
        self.profiling = bool(profiling)

    def disable(self) -> None:
        self.enabled = False
        self.profiling = False

    def _sync_profile(self) -> None:
        """Flush profiling rollups into registry gauges before export."""
        for op, entry in self.profile.snapshot().items():
            self.metrics.gauge(
                "profile_seconds_total",
                help="cumulative seconds per profiled operation",
            ).set(entry["seconds"], op=op)
            self.metrics.gauge(
                "profile_ops_total",
                help="cumulative invocations per profiled operation",
            ).set(entry["count"], op=op)
            self.metrics.gauge(
                "profile_bytes_total",
                help="cumulative bytes-touched estimate per profiled operation",
            ).set(entry["bytes"], op=op)

    def snapshot(self) -> dict:
        """JSON-able metrics snapshot (profiling rollups included)."""
        self._sync_profile()
        return self.metrics.snapshot()

    def render_prometheus(self) -> str:
        """Prometheus text exposition (profiling rollups included)."""
        self._sync_profile()
        return self.metrics.render_prometheus()

    def export_chrome(self, path):
        """Write the span buffer as Chrome trace_event JSON."""
        return self.trace.export_chrome(path)


_DISABLED = Telemetry()
_active = _DISABLED


def get_telemetry() -> Telemetry:
    """The process-active handle (the disabled default unless swapped)."""
    return _active


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` (None → disabled default); returns previous."""
    global _active
    previous = _active
    _active = telemetry if telemetry is not None else _DISABLED
    return previous


@contextmanager
def telemetry_session(profiling: bool = False, trace_capacity: int = 65536):
    """Enable a fresh :class:`Telemetry` for the duration of a block."""
    tel = Telemetry(enabled=True, profiling=profiling,
                    trace_capacity=trace_capacity)
    previous = set_telemetry(tel)
    try:
        yield tel
    finally:
        set_telemetry(previous)
