"""Bind a serving stack's live metrics into a registry.

The serving structs (``DecodeMetrics``, ``ServerMetrics``,
``PagePoolCounters``, ``PoolCounters``, ``MPURunStats``) are the one store
of what they count.  :func:`bind_server` exports them without copying
anything on the hot paths: every ``int`` field becomes a
*callback gauge* read live at scrape time, and the structs' latency
:class:`~repro.telemetry.metrics.Histogram` objects are registered
themselves, so a ``registry.snapshot()`` or ``render_prometheus()``
always reflects the current state.

Deliberately duck-typed: nothing here imports ``repro.serve`` or
``repro.models``, so the telemetry package stays import-light and
dependency-free.
"""

from __future__ import annotations

from dataclasses import fields as _dataclass_fields

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["bind_server"]


def _bind_fields(registry: MetricsRegistry, prefix: str, struct_fn,
                 **labels) -> None:
    """Gauges ``<prefix>_<field>`` over every ``int`` field of a struct.

    ``struct_fn`` returns the *current* struct (``MPURunStats`` is
    replaced wholesale on merge, so the callback must re-fetch).
    """
    struct = struct_fn()
    for f in _dataclass_fields(struct):
        if isinstance(getattr(struct, f.name), int):
            registry.gauge(
                f"{prefix}_{f.name}",
                help=f"{type(struct).__name__}.{f.name}",
            ).set_function(
                lambda name=f.name: float(getattr(struct_fn(), name)),
                **labels)


def bind_server(registry: MetricsRegistry, server) -> MetricsRegistry:
    """Bind an ``InferenceServer`` stack's metrics into ``registry``.

    Re-binding (this or another server) replaces every family in place:
    callback gauges are re-pointed and the latency histograms re-registered,
    so the registry always exports the server bound last.
    """
    scheduler, pages = server.scheduler, server.scheduler.pool
    registry.register(server.metrics.request_latency)
    registry.register(scheduler.metrics.token_latency)
    registry.register(scheduler.metrics.request_latency)
    _bind_fields(registry, "server", lambda: server.metrics)
    _bind_fields(registry, "decode", lambda: scheduler.metrics)
    _bind_fields(registry, "page_pool", lambda: pages.counters)
    _bind_fields(registry, "mpu", lambda: server.metrics.mpu_stats,
                 source="server")
    _bind_fields(registry, "mpu", lambda: scheduler.metrics.mpu_stats,
                 source="scheduler")

    registry.gauge(
        "decode_waiting_requests",
        help="requests queued for admission",
    ).set_function(lambda: float(scheduler.num_waiting))
    registry.gauge(
        "decode_active_requests",
        help="sequences currently decoding",
    ).set_function(lambda: float(scheduler.num_active))
    registry.gauge(
        "decode_prefix_hit_rate",
        help="fraction of prompt tokens served from shared prefix pages",
    ).set_function(lambda: float(scheduler.metrics.prefix_hit_rate))

    page_states = registry.gauge("page_pool_pages",
                                 help="physical KV pages by state")
    page_states.set_function(lambda: float(pages.num_free), state="free")
    page_states.set_function(lambda: float(pages.num_pages - pages.num_free),
                             state="used")
    registry.gauge(
        "page_pool_occupancy",
        help="fraction of physical pages holding live references",
    ).set_function(lambda: 1.0 - pages.num_free / pages.num_pages)
    registry.gauge(
        "page_pool_registered_pages",
        help="completed pages registered for prefix sharing",
    ).set_function(lambda: float(pages.num_registered))
    registry.gauge(
        "page_pool_prefix_hit_rate",
        help="page-registry hit rate of prefix-walk lookups",
    ).set_function(lambda: float(pages.counters.prefix_hit_rate))

    calls = registry.gauge("pool_gemm_calls_total",
                           help="pool GEMM calls by path (inline or fanout)")
    for path in ("inline", "fanout"):
        calls.set_function(
            lambda path=path: float(getattr(server.pool.counters, path)),
            path=path)
    return registry
