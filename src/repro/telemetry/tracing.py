"""Low-overhead span tracing with Chrome ``trace_event`` export.

A :class:`TraceRecorder` holds a bounded ring buffer of completed
:class:`SpanEvent` records.  Spans are timestamped with
:func:`time.perf_counter_ns` — the monotonic clock, never wall-clock time
(the ``wall-clock-in-serve`` lint rule enforces this for the whole serving
layer) — so durations are immune to NTP steps and the buffer never grows
past ``capacity``.

Two recording styles cover every instrumentation site:

* ``with recorder.span("decode.iteration", request_ids=ids):`` — a context
  manager for code the instrumenter wraps;
* ``recorder.record(name, start_ns, end_ns, **args)`` — retroactive
  recording from explicit timestamps, for spans whose start crosses a
  function boundary (a request's queue wait from submit to admission, an
  admission round whose member ids are only known at the end).

Span args are coerced to JSON-safe scalars at record time, so
:meth:`TraceRecorder.export_chrome` can always serialize — the resulting
file is the Chrome ``trace_event`` JSON format and loads directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Nesting is
reconstructed by the viewer from timestamp containment within a thread,
which is also what the structural trace tests assert.
"""

from __future__ import annotations

import json
import numbers
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

__all__ = ["SpanEvent", "TraceRecorder"]


# Exact types that pass through sanitization untouched — the overwhelming
# majority of span args, checked by identity before the generic coercions.
_SCALARS = (bool, int, float, str, type(None))


def _json_safe(value):
    """Coerce one span arg to a JSON-encodable value (numpy included)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    tolist = getattr(value, "tolist", None)
    if tolist is not None:  # numpy arrays
        return _json_safe(tolist())
    return str(value)


def _sanitize(args: dict) -> dict:
    """``args`` itself when every value is a plain scalar (the span's own
    fresh kwargs dict), else a coerced copy."""
    for v in args.values():
        if type(v) not in _SCALARS:
            return {k: (v if type(v) in _SCALARS else _json_safe(v))
                    for k, v in args.items()}
    return args


@dataclass(slots=True)
class SpanEvent:
    """One completed span (``phase="X"``) or instant event (``phase="i"``).

    Timestamps are raw :func:`time.perf_counter_ns` values; only
    differences are meaningful.  ``export_chrome`` rebases them onto the
    earliest event so the trace starts at t=0.  Treat instances as
    immutable records.
    """

    name: str
    phase: str
    start_ns: int
    dur_ns: int
    thread_id: int
    thread_name: str
    args: dict

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns


class _Span:
    """Active span handle: records a :class:`SpanEvent` on ``__exit__``."""

    __slots__ = ("_recorder", "_name", "_args", "_start_ns")

    def __init__(self, recorder: TraceRecorder, name: str, args: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._args = args
        self._start_ns = 0

    def __enter__(self) -> _Span:
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._record(self._name, self._start_ns,
                               time.perf_counter_ns(), self._args)
        return False


class TraceRecorder:
    """Ring-buffered span recorder with Chrome ``trace_event`` export.

    ``capacity`` bounds memory: once full, the oldest events are dropped
    (a long-lived server keeps the most recent window, which is what a
    latency post-mortem wants).  All methods are thread-safe — spans are
    recorded from the asyncio loop, the scheduler driver thread, and the
    pool's shard workers concurrently.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[SpanEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        # ident → thread name, filled on each thread's first record; lets
        # the hot path use the C-level get_ident() instead of
        # current_thread().
        self._thread_names: dict[int, str] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def span(self, name: str, **args) -> _Span:
        """Context manager timing its body: ``with trace.span("x", id=3):``."""
        return _Span(self, name, args)

    def record(self, name: str, start_ns: int, end_ns: int,
               **args) -> SpanEvent:
        """Record a completed span from explicit perf_counter_ns stamps."""
        return self._record(name, start_ns, end_ns, args)

    def _thread(self) -> tuple[int, str]:
        ident = threading.get_ident()
        name = self._thread_names.get(ident)
        if name is None:  # cold path: once per thread
            name = threading.current_thread().name
            with self._lock:
                self._thread_names[ident] = name
        return ident, name

    def _record(self, name: str, start_ns: int, end_ns: int,
                args: dict) -> SpanEvent:
        ident, tname = self._thread()
        event = SpanEvent(name, "X", int(start_ns),
                          max(int(end_ns) - int(start_ns), 0),
                          ident, tname, _sanitize(args))
        with self._lock:
            self._events.append(event)
        return event

    def instant(self, name: str, **args) -> SpanEvent:
        """Record a zero-duration marker (departures, backpressure stalls)."""
        ident, tname = self._thread()
        event = SpanEvent(name, "i", time.perf_counter_ns(), 0,
                          ident, tname, _sanitize(args))
        with self._lock:
            self._events.append(event)
        return event

    def events(self) -> list[SpanEvent]:
        """A consistent copy of the buffered events, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def export_chrome(self, path: str | Path) -> Path:
        """Write the buffer as Chrome ``trace_event`` JSON; returns the path.

        Timestamps are rebased onto the earliest buffered event and
        converted to the format's microseconds; per-thread ``thread_name``
        metadata events make the Perfetto track labels readable.
        """
        events = self.events()
        t0 = min((e.start_ns for e in events), default=0)
        trace: list[dict] = []
        thread_names: dict[int, str] = {}
        for e in events:
            thread_names.setdefault(e.thread_id, e.thread_name)
            entry = {
                "name": e.name,
                "cat": e.name.split(".", 1)[0],
                "ph": e.phase,
                "pid": 0,
                "tid": e.thread_id,
                "ts": (e.start_ns - t0) / 1e3,
                "args": e.args,
            }
            if e.phase == "X":
                entry["dur"] = e.dur_ns / 1e3
            else:
                entry["s"] = "g"  # instant scope: global
            trace.append(entry)
        for tid, tname in thread_names.items():
            trace.append({"name": "thread_name", "ph": "M", "pid": 0,
                          "tid": tid, "args": {"name": tname}})
        out = Path(path)
        out.write_text(json.dumps({"traceEvents": trace,
                                   "displayTimeUnit": "ms"}) + "\n")
        return out
