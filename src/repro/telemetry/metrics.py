"""Counter/Gauge/Histogram metrics with label sets and a process registry.

The primitives follow the Prometheus data model: a metric is a *family*
keyed by name, holding one sample per label set.  ``Histogram`` is backed
by an O(1) streaming :class:`PercentileReservoir` rather than fixed
buckets, so it renders as a Prometheus ``summary`` (quantile labels plus
``_count``/``_sum`` series).  ``Gauge`` additionally accepts callback
bindings (:meth:`Gauge.set_function`) evaluated lazily at collection
time — this is how the adapters re-export the live serving structs'
counters without copying values on every mutation.

A :class:`MetricsRegistry` owns the families (get-or-create, type
checked, or :meth:`MetricsRegistry.register` for a family an object
already owns) and exposes two collection formats:

* :meth:`MetricsRegistry.snapshot` — a plain JSON-able dict;
* :meth:`MetricsRegistry.render_prometheus` — the text exposition format
  (https://prometheus.io/docs/instrumenting/exposition_formats/).

Everything is thread-safe; each family carries its own lock and callback
gauges are evaluated *outside* it so a callback may take other locks
(e.g. the scheduler's) without lock-order hazards.
"""

from __future__ import annotations

import random
import re
import threading

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PercentileReservoir",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _label_key(labels: dict) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in key)
    return "{" + inner + "}"


class PercentileReservoir:
    """Fixed-size uniform sample of a value stream (Vitter's algorithm R).

    ``observe`` is O(1) time and the memory is O(capacity) regardless of
    stream length.  While the stream has at most ``capacity`` values the
    reservoir holds *all* of them, so :meth:`percentile` equals
    ``np.percentile`` of the full stream exactly.  Beyond that it is an
    unbiased uniform sample: the quantile *position* error has standard
    deviation ``sqrt(q(1-q)/capacity)`` (≈0.016 at the median for the
    default capacity), which is the documented tolerance the edge-case
    tests assert against.  The RNG is seeded, so a seeded workload yields
    a deterministic reservoir.
    """

    def __init__(self, capacity: int = 1024, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._values: list[float] = []
        self._count = 0
        self._rng = random.Random(seed)

    @property
    def count(self) -> int:
        """Total number of observed values (not just the held sample)."""
        return self._count

    def __len__(self) -> int:
        return len(self._values)

    def observe(self, value: float) -> None:
        self._count += 1
        if len(self._values) < self.capacity:
            self._values.append(float(value))
            return
        j = self._rng.randrange(self._count)
        if j < self.capacity:
            self._values[j] = float(value)

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of the held sample; 0.0 if empty."""
        if not self._values:
            return 0.0
        return float(np.percentile(np.asarray(self._values), q))

    def values(self) -> list[float]:
        return list(self._values)


class _Metric:
    """Base family: a name, help text, and a per-family lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def samples(self) -> list[tuple[tuple[tuple[str, str], ...], object]]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count, one value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self):
        with self._lock:
            return sorted(self._values.items())


class Gauge(_Metric):
    """Point-in-time value per label set; supports callback bindings.

    ``set_function(fn, **labels)`` binds a zero-arg callable that is
    evaluated at collection time — the adapter mechanism for exposing
    live struct fields.  Callbacks run outside the family lock.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple, object] = {}

    def set(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            if callable(self._values.get(key)):
                raise TypeError(f"gauge {self.name!r}{dict(key)} is callback-bound")
            self._values[key] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            current = self._values.get(key, 0.0)
            if callable(current):
                raise TypeError(f"gauge {self.name!r}{dict(key)} is callback-bound")
            self._values[key] = float(current) + value

    def set_function(self, fn, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = fn

    def value(self, **labels) -> float:
        with self._lock:
            raw = self._values.get(_label_key(labels), 0.0)
        return float(raw()) if callable(raw) else float(raw)

    def samples(self):
        with self._lock:
            snapshot = sorted(self._values.items())
        return [(key, float(raw()) if callable(raw) else float(raw))
                for key, raw in snapshot]


class _HistogramChild:
    """Per-label-set state: count, sum, and the percentile reservoir."""

    __slots__ = ("count", "total", "reservoir")

    def __init__(self, capacity: int, seed: int) -> None:
        self.count = 0
        self.total = 0.0
        self.reservoir = PercentileReservoir(capacity, seed=seed)


class Histogram(_Metric):
    """Streaming distribution per label set, rendered as a summary.

    Quantiles come from a :class:`PercentileReservoir` per label set, so
    ``observe`` stays O(1) regardless of how many values a long-lived
    server records.
    """

    kind = "summary"

    DEFAULT_QUANTILES = (50.0, 90.0, 99.0)

    def __init__(self, name: str, help: str = "", *,
                 reservoir_size: int = 1024,
                 quantiles: tuple[float, ...] = DEFAULT_QUANTILES) -> None:
        super().__init__(name, help)
        self._reservoir_size = reservoir_size
        self.quantiles = tuple(quantiles)
        self._children: dict[tuple, _HistogramChild] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _HistogramChild(self._reservoir_size, seed=0)
                self._children[key] = child
            child.count += 1
            child.total += float(value)
            child.reservoir.observe(value)

    def count(self, **labels) -> int:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return child.count if child is not None else 0

    def sum(self, **labels) -> float:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return child.total if child is not None else 0.0

    def percentile(self, q: float, **labels) -> float:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return child.reservoir.percentile(q) if child is not None else 0.0

    def samples(self):
        with self._lock:
            children = sorted(self._children.items())
            return [(key, {
                "count": child.count,
                "sum": child.total,
                "quantiles": {q: child.reservoir.percentile(q)
                              for q in self.quantiles},
            }) for key, child in children]


class MetricsRegistry:
    """Process-wide family registry with get-or-create accessors.

    ``counter/gauge/histogram`` return the existing family when the name
    is already registered (help text of the first registration wins) and
    raise ``TypeError`` if the name is bound to a different kind.
    :meth:`register` installs a family created elsewhere instead.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", *,
                  reservoir_size: int = 1024) -> Histogram:
        return self._get_or_create(Histogram, name, help,
                                   reservoir_size=reservoir_size)

    def register(self, metric: _Metric) -> _Metric:
        """Export ``metric`` itself under its name; the last one wins.

        For families an object owns and records into directly (a serving
        struct's latency :class:`Histogram`).  Registering a second family
        of the same name and kind replaces the first — the rule callback
        gauges follow when re-bound — so the registry exports whichever
        object bound last.  A different kind raises ``TypeError``.
        """
        with self._lock:
            current = self._metrics.get(metric.name)
            if current is not None and type(current) is not type(metric):
                raise TypeError(
                    f"metric {metric.name!r} already registered as "
                    f"{current.kind}")
            self._metrics[metric.name] = metric
        return metric

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> dict:
        """JSON-able dict: name → {kind, help, samples:[{labels, ...}]}."""
        out: dict[str, dict] = {}
        for metric in self.metrics():
            rows = []
            for key, value in metric.samples():
                row: dict = {"labels": dict(key)}
                if metric.kind == "summary":
                    row["count"] = value["count"]
                    row["sum"] = value["sum"]
                    row["quantiles"] = {str(q): v
                                        for q, v in value["quantiles"].items()}
                else:
                    row["value"] = value
                rows.append(row)
            out[metric.name] = {"kind": metric.kind, "help": metric.help,
                                "samples": rows}
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every registered family."""
        lines: list[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, value in metric.samples():
                if metric.kind == "summary":
                    for q, qv in value["quantiles"].items():
                        qkey = key + (("quantile", repr(q / 100.0)),)
                        lines.append(
                            f"{metric.name}{_render_labels(qkey)} {qv}")
                    lines.append(f"{metric.name}_sum"
                                 f"{_render_labels(key)} {value['sum']}")
                    lines.append(f"{metric.name}_count"
                                 f"{_render_labels(key)} {value['count']}")
                else:
                    lines.append(f"{metric.name}{_render_labels(key)} {value}")
        return "\n".join(lines) + "\n"
