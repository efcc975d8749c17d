"""Telemetry hub: metrics registry, structured event trace, profiling spans.

The serving stack (engine, scheduler, shards, intake) reports into a
single :class:`Telemetry` hub.  The hub is deliberately *observational*:
it records wall-clock timings, counters, and a bounded event trace, but
never feeds anything back into the deterministic engine state — the
engine's RNG stream, event ordering, and :meth:`EngineMetrics.fingerprint`
are byte-identical whether telemetry is on or off.

Counts the serving stack already keeps (``EngineMetrics``, the
shards' ``SchedulerStats``, cache stats, registry load) are not pushed
into the hub a second time: their owners register *collectors* the
hub reads at export time (:meth:`Telemetry.add_collector`).

Three export surfaces cover the usual consumers:

* :meth:`Telemetry.snapshot` — a JSON-serialisable dict (counters,
  gauges, histograms, windowed intake/throughput rates).
* :meth:`Telemetry.render_prometheus` — Prometheus text exposition.
* :meth:`Telemetry.chrome_trace` — Chrome trace-event JSON; load the
  file written by :meth:`write_trace` directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.

The metric state (counters, gauges, histograms, rates and the clock)
survives ``checkpoint()``/``resume()`` through :meth:`Telemetry.state_dict`.
The trace and span rings do not: they are this process's diagnostics,
and a resumed campaign's trace starts empty.

The default for every engine is :data:`NULL_TELEMETRY`, a
:class:`NullTelemetry` whose methods are no-ops, so instrumented hot
paths cost a couple of attribute lookups when observability is off.

Thread-safety: one mutex guards the metric maps and the ring buffers.
In-process producer threads and the serving loop (which also answers
HTTP) report concurrently; every public method takes the lock for a
handful of dict operations only and never calls back out while holding
it, so the hub cannot participate in a lock cycle with engine-side
locks.  Collectors run outside the lock on whichever thread exports.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SpanRecord",
    "Telemetry",
    "TraceEvent",
]

#: Fixed histogram bucket upper bounds (seconds).  Spans in this engine
#: range from microsecond memo hits to multi-second re-estimation
#: passes, hence the exponential spread.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

#: Ring-buffer capacities.  Bounded so a week-long campaign cannot grow
#: the hub without limit; the trace keeps the most recent events.
DEFAULT_TRACE_CAPACITY = 16384
DEFAULT_SPAN_CAPACITY = 8192

#: Windowed-rate series keep at most this many intervals per series.
MAX_RATE_WINDOWS = 512

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


_EMPTY_LABELS: tuple[tuple[str, str], ...] = ()


def _labels_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable key for a label set."""
    if not labels:  # the common hot-path case: unlabeled metric
        return _EMPTY_LABELS
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class TraceEvent:
    """One structured entry in the bounded event trace."""

    seq: int
    ts: float  # seconds since the hub's epoch (monotonic, resume-safe)
    kind: str
    span_id: int  # 0 when the event is not tied to a span
    fields: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SpanRecord:
    """A completed profiling span."""

    span_id: int
    name: str
    start: float
    duration: float
    thread: int
    labels: dict[str, str] = field(default_factory=dict)


class _Histogram:
    """Fixed-bucket latency histogram (non-cumulative internal counts)."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def as_dict(self) -> dict[str, Any]:
        return {
            "buckets": [
                {"le": "+Inf" if le == float("inf") else le, "count": n}
                for le, n in self.cumulative()
            ],
            "sum": self.total,
            "count": self.count,
        }

    def state_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "_Histogram":
        hist = cls(tuple(state["bounds"]))
        hist.counts = [int(n) for n in state["counts"]]
        hist.total = float(state["sum"])
        hist.count = int(state["count"])
        return hist


class _NullSpan:
    """Context manager returned by :class:`NullTelemetry` span hooks."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Times a block; observes a histogram and (optionally) records a
    :class:`SpanRecord` for the Chrome trace."""

    __slots__ = ("_hub", "name", "labels", "span_id", "start", "_record")

    def __init__(
        self,
        hub: "Telemetry",
        name: str,
        labels: dict[str, Any],
        record: bool,
    ):
        self._hub = hub
        self.name = name
        self.labels = {str(k): str(v) for k, v in labels.items()}
        self._record = record
        self.span_id = hub._next_span_id() if record else 0
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.start = self._hub.now()
        return self

    def __exit__(self, *exc: object) -> bool:
        duration = self._hub.now() - self.start
        self._hub.observe(f"{self.name}_seconds", duration, **self.labels)
        if self._record:
            self._hub._finish_span(self, duration)
        return False


class NullTelemetry:
    """No-op telemetry with the same surface as :class:`Telemetry`.

    Instrumentation sites call straight through without ``if`` guards;
    each call is one attribute lookup plus an empty method body.
    """

    enabled = False

    def now(self) -> float:
        return 0.0

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass

    def mark(self, name: str, n: int = 1) -> None:
        pass

    def event(self, kind: str, span_id: int = 0, **fields: Any) -> None:
        pass

    def span(self, name: str, **labels: Any) -> _NullSpan:
        return _NULL_SPAN

    def timer(self, name: str, **labels: Any) -> _NullSpan:
        return _NULL_SPAN

    def add_collector(
        self, collector: Callable[[], Iterable], kind: str = "gauge"
    ) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {"enabled": False}

    def render_prometheus(self) -> str:
        return "# telemetry disabled\n"

    def chrome_trace(self) -> dict[str, Any]:
        return {"traceEvents": []}

    def write_trace(self, path: str) -> int:
        return 0

    def trace_events(self) -> list[TraceEvent]:
        return []

    def completed_spans(self) -> list[SpanRecord]:
        return []

    def state_dict(self) -> None:
        return None

    def load_state(self, state: Any) -> None:
        pass


#: Shared no-op hub; the default ``telemetry`` argument everywhere.
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """Thread-safe metrics registry + bounded structured event trace."""

    _COLLECTOR_KINDS = ("gauge", "counter")

    enabled = True

    def __init__(
        self,
        interval: float = 1.0,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
    ):
        if interval <= 0:
            raise ValueError("metrics interval must be positive")
        self.interval = float(interval)
        self._mutex = threading.Lock()
        self._t0 = time.monotonic()
        self._elapsed_offset = 0.0  # carried across checkpoint/resume
        self._counters: dict[tuple[str, tuple], float] = {}
        self._gauges: dict[tuple[str, tuple], float] = {}
        self._histograms: dict[tuple[str, tuple], _Histogram] = {}
        # series name -> {window index -> count}; insertion-ordered so
        # trimming drops the oldest window first.
        self._rates: dict[str, dict[int, int]] = {}
        self._events: deque[TraceEvent] = deque(maxlen=trace_capacity)
        self._spans: deque[SpanRecord] = deque(maxlen=span_capacity)
        self._event_seq = itertools.count(1)
        self._span_seq = itertools.count(1)
        # (kind, collector) pairs, kind one of _COLLECTOR_KINDS.
        self._collectors: list[tuple[str, Callable[[], Iterable]]] = []

    # ----------------------------------------------------------- clock

    def now(self) -> float:
        """Seconds since the hub's epoch.

        Monotonic within a process *and* across ``checkpoint()`` /
        ``resume()``: :meth:`load_state` folds the elapsed time of the
        previous incarnation into an offset, so restored timestamps keep
        increasing instead of restarting at zero.
        """
        return self._elapsed_offset + (time.monotonic() - self._t0)

    # --------------------------------------------------------- metrics

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._mutex:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._mutex:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _labels_key(labels))
        with self._mutex:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram()
            hist.observe(value)

    def mark(self, name: str, n: int = 1) -> None:
        """Count ``n`` occurrences into the current rate window."""
        window = int(self.now() / self.interval)
        with self._mutex:
            series = self._rates.get(name)
            if series is None:
                series = self._rates[name] = {}
            series[window] = series.get(window, 0) + n
            while len(series) > MAX_RATE_WINDOWS:
                series.pop(next(iter(series)))

    # ----------------------------------------------------- trace/spans

    def event(self, kind: str, span_id: int = 0, **fields: Any) -> None:
        now = self.now()
        with self._mutex:
            # Numbered under the mutex, so the ring is in ``seq`` order.
            self._events.append(
                TraceEvent(next(self._event_seq), now, kind, span_id, fields)
            )

    def span(self, name: str, **labels: Any) -> _Span:
        """Timed block recorded as both a histogram sample and a
        Chrome-trace span."""
        return _Span(self, name, labels, record=True)

    def timer(self, name: str, **labels: Any) -> _Span:
        """Timed block recorded as a histogram sample only (no span
        record) — for sites too hot to trace individually."""
        return _Span(self, name, labels, record=False)

    def _next_span_id(self) -> int:
        return next(self._span_seq)

    def _finish_span(self, span: _Span, duration: float) -> None:
        record = SpanRecord(
            span_id=span.span_id,
            name=span.name,
            start=span.start,
            duration=duration,
            thread=threading.get_ident(),
            labels=span.labels,
        )
        with self._mutex:
            self._spans.append(record)

    def trace_events(self) -> list[TraceEvent]:
        with self._mutex:
            return list(self._events)

    def completed_spans(self) -> list[SpanRecord]:
        with self._mutex:
            return list(self._spans)

    # ------------------------------------------------------ collectors

    def add_collector(
        self, collector: Callable[[], Iterable], kind: str = "gauge"
    ) -> None:
        """Register a pull-based source of gauges or counters.

        ``collector()`` is invoked only at snapshot/export time, on
        whichever thread exports, and must yield ``(name, labels_dict,
        value)`` triples — zero hot-path cost for stats the owner
        already maintains (cache hit rates, registry load, intake
        depth, the engine's vote and task tallies).  It must not
        iterate a dict the serving loop mutates.

        ``kind="counter"`` reports running totals: each series is
        exported as a counter, replaces a stored counter with the same
        name and labels (a checkpoint of older code carries those), and
        appears only once its value is positive, as a pushed counter
        does.
        """
        if kind not in self._COLLECTOR_KINDS:
            raise ValueError(
                f"collector kind must be one of {self._COLLECTOR_KINDS}"
            )
        with self._mutex:
            self._collectors.append((kind, collector))

    def _metric_maps(self) -> tuple[dict, dict]:
        """``(counters, gauges)``: the stored maps merged with what the
        collectors report right now (the caller holds no lock)."""
        with self._mutex:
            collectors = list(self._collectors)
        pulled: dict[tuple[str, tuple], float] = {}
        collected: dict[tuple[str, tuple], float] = {}
        for kind, collector in collectors:
            table = pulled if kind == "counter" else collected
            for name, labels, value in collector():
                table[(name, _labels_key(labels))] = value
        with self._mutex:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
        counters.update((key, value) for key, value in pulled.items() if value)
        gauges.update(collected)
        return counters, gauges

    # --------------------------------------------------------- exports

    def rates(self) -> dict[str, list[dict[str, float]]]:
        """Windowed per-interval rates, oldest window first."""
        with self._mutex:
            series = {name: dict(windows) for name, windows in self._rates.items()}
        out: dict[str, list[dict[str, float]]] = {}
        for name, windows in series.items():
            out[name] = [
                {
                    "window": idx,
                    "start": idx * self.interval,
                    "count": count,
                    "rate": count / self.interval,
                }
                for idx, count in sorted(windows.items())
            ]
        return out

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable view of every metric surface."""
        counters, gauges = self._metric_maps()
        with self._mutex:
            histograms = {k: h.as_dict() for k, h in self._histograms.items()}
            n_events = len(self._events)
            n_spans = len(self._spans)

        def rows(table: dict[tuple[str, tuple], Any]) -> list[dict[str, Any]]:
            return [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(table.items())
            ]

        return {
            "enabled": True,
            "elapsed": self.now(),
            "interval": self.interval,
            "counters": rows(counters),
            "gauges": rows(gauges),
            "histograms": [
                {"name": name, "labels": dict(labels), **payload}
                for (name, labels), payload in sorted(histograms.items())
            ],
            "rates": self.rates(),
            "trace": {"events": n_events, "spans": n_spans},
        }

    @staticmethod
    def _prom_name(name: str) -> str:
        return "repro_" + _METRIC_NAME_RE.sub("_", name)

    @staticmethod
    def _prom_escape(value: Any) -> str:
        """Escape a label value per the Prometheus text format (v0.0.4):
        backslash, double-quote, and line-feed are the three characters
        the spec requires escaping inside quoted label values.  Label
        values are otherwise free-form UTF-8, and any caller of
        :meth:`inc` or :meth:`set_gauge` may pass one, so a hostile
        value must never break the exposition."""
        return (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )

    @classmethod
    def _prom_labels(cls, labels: tuple, extra: str = "") -> str:
        parts = [
            f'{_METRIC_NAME_RE.sub("_", k)}="{cls._prom_escape(v)}"'
            for k, v in labels
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def render_prometheus(self) -> str:
        """Prometheus text-format exposition (v0.0.4)."""
        counters, gauges = self._metric_maps()
        with self._mutex:
            histograms = {
                key: (hist.cumulative(), hist.total, hist.count)
                for key, hist in self._histograms.items()
            }

        lines: list[str] = []
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), value in sorted(counters.items()):
            pname = self._prom_name(name) + "_total"
            type_line(pname, "counter")
            lines.append(f"{pname}{self._prom_labels(labels)} {value:g}")
        for (name, labels), value in sorted(gauges.items()):
            pname = self._prom_name(name)
            type_line(pname, "gauge")
            lines.append(f"{pname}{self._prom_labels(labels)} {value:g}")
        for (name, labels), (cumulative, total, count) in sorted(
            histograms.items()
        ):
            pname = self._prom_name(name)
            type_line(pname, "histogram")
            for le, running in cumulative:
                le_text = "+Inf" if le == float("inf") else f"{le:g}"
                le_label = 'le="' + le_text + '"'
                bucket_labels = self._prom_labels(labels, le_label)
                lines.append(f"{pname}_bucket{bucket_labels} {running}")
            lines.append(f"{pname}_sum{self._prom_labels(labels)} {total:g}")
            lines.append(f"{pname}_count{self._prom_labels(labels)} {count}")
        return "\n".join(lines) + "\n"

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (loadable in Perfetto).

        Spans become ``"X"`` (complete) events on their recording
        thread; structured trace entries become ``"i"`` (instant)
        events.  Timestamps are microseconds since the hub epoch.
        """
        with self._mutex:
            spans = list(self._spans)
            events = list(self._events)
        trace_events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro-engine"},
            }
        ]
        for span in spans:
            trace_events.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": span.thread % 100000,
                    "id": span.span_id,
                    "args": dict(span.labels),
                }
            )
        for entry in events:
            args = {str(k): v for k, v in entry.fields.items()}
            if entry.span_id:
                args["span_id"] = entry.span_id
            trace_events.append(
                {
                    "name": entry.kind,
                    "cat": "event",
                    "ph": "i",
                    "ts": entry.ts * 1e6,
                    "pid": 1,
                    "tid": 0,
                    "s": "p",
                    "args": args,
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_trace(self, path: str) -> int:
        """Write the Chrome trace to ``path``; returns the event count.

        The write is atomic (tmp file + rename), so a reader — or a
        crash mid-write — never observes a truncated trace; serve-mode
        periodic flushes rewrite the same path safely.
        """
        trace = self.chrome_trace()
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(trace, handle)
                handle.write("\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return len(trace["traceEvents"])

    # ----------------------------------------------------- persistence

    def state_dict(self) -> dict[str, Any]:
        """JSON-serialisable metric state for checkpoint/resume
        survival: the clock, counters, gauges, histograms and rates.
        The trace and span rings stay out (per-process diagnostics)."""
        with self._mutex:
            return {
                "elapsed": self.now(),
                "interval": self.interval,
                "counters": [
                    [name, [list(pair) for pair in labels], value]
                    for (name, labels), value in self._counters.items()
                ],
                "gauges": [
                    [name, [list(pair) for pair in labels], value]
                    for (name, labels), value in self._gauges.items()
                ],
                "histograms": [
                    [name, [list(pair) for pair in labels], hist.state_dict()]
                    for (name, labels), hist in self._histograms.items()
                ],
                "rates": {
                    name: [[idx, count] for idx, count in windows.items()]
                    for name, windows in self._rates.items()
                },
            }

    def load_state(self, state: dict[str, Any] | None) -> None:
        """Restore :meth:`state_dict` output; the rings and sequence
        marks that older checkpoints also carry are ignored."""
        if not state:
            return
        with self._mutex:
            self._t0 = time.monotonic()
            self._elapsed_offset = float(state.get("elapsed", 0.0))
            self._counters = {
                (name, tuple(tuple(pair) for pair in labels)): value
                for name, labels, value in state.get("counters", [])
            }
            self._gauges = {
                (name, tuple(tuple(pair) for pair in labels)): value
                for name, labels, value in state.get("gauges", [])
            }
            self._histograms = {
                (name, tuple(tuple(pair) for pair in labels)): _Histogram.from_state(
                    payload
                )
                for name, labels, payload in state.get("histograms", [])
            }
            self._rates = {
                name: {int(idx): int(count) for idx, count in windows}
                for name, windows in state.get("rates", {}).items()
            }
