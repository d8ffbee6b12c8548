"""Unified metrics registry: counters, gauges and histograms behind one
queryable surface.

This is the one metrics plane (DESIGN.md §9): every count and accumulated
time the runtime reports lives here — task completions (``TaskMetrics``),
recovery actions by kind, shuffle and broadcast bytes, join phase times,
cache hits/misses, scheduler launches — as flat, labeled time-series
primitives, so a benchmark or test can ask one object "how many bytes were
shuffled remotely" or "how many retries did seed 7 cause". No other
accumulator keeps a second copy. Per-event detail (which partition a
recovery touched, why the advisor evicted) goes on tracer spans when
tracing is on; ``MetricsCollector`` keeps only the makespan model over a
captured task list.

Metric naming follows the Prometheus conventions the ecosystem expects:
``snake_case``, ``_total`` suffix on counters, labels as keyword arguments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

MetricKey = tuple[str, tuple[tuple[str, Any], ...]]


def _key(name: str, labels: dict[str, Any]) -> MetricKey:
    return name, tuple(sorted(labels.items()))


def _fmt(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


#: Ring-buffer capacity for per-series quantile samples. Bounded so a
#: long-serving process cannot grow without limit; at 4096 recent samples
#: the p99 of a steady-state latency series is estimated from the last
#: ~4k observations (a sliding window, which is what a serving dashboard
#: wants anyway).
SAMPLE_WINDOW = 4096


@dataclass
class HistogramData:
    """Streaming summary of one histogram series.

    Tracks count/sum/extremes exactly, plus a bounded ring buffer of the
    most recent observations for quantile estimates (p50/p95/p99 — the
    serving layer's latency SLOs)."""

    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    samples: list = field(default_factory=list, repr=False)

    def observe(self, value: float) -> None:
        if len(self.samples) < SAMPLE_WINDOW:
            self.samples.append(value)
        else:
            self.samples[self.count % SAMPLE_WINDOW] = value
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the sample
        window; 0.0 when the series has never been observed."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
        if q <= 0:
            rank = 0
        return ordered[rank]

    def percentiles(self, qs: "tuple[float, ...]" = (50.0, 95.0, 99.0)) -> dict[str, float]:
        ordered = sorted(self.samples)
        out: dict[str, float] = {}
        for q in qs:
            if not ordered:
                out[f"p{q:g}"] = 0.0
                continue
            rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
            if q <= 0:
                rank = 0
            out[f"p{q:g}"] = ordered[rank]
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        self._histograms: dict[MetricKey, HistogramData] = {}

    # -- writes -----------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Increment counter ``name`` (monotonic; negative deltas rejected)."""
        if value < 0:
            raise ValueError(f"counter {name} cannot decrease (got {value})")
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = HistogramData()
            hist.observe(value)

    # -- reads -------------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """Exact-label-match counter value (0 when never incremented)."""
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of counter ``name`` across all label sets."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def counter_by_label(self, name: str, label: str) -> dict[Any, float]:
        """Counter totals of ``name`` grouped by one label's values."""
        out: dict[Any, float] = {}
        with self._lock:
            for (n, labels), v in self._counters.items():
                if n != name:
                    continue
                for k, lv in labels:
                    if k == label:
                        out[lv] = out.get(lv, 0.0) + v
        return out

    def gauge_value(self, name: str, **labels: Any) -> float | None:
        with self._lock:
            return self._gauges.get(_key(name, labels))

    def gauge_total(self, name: str) -> float:
        """Sum of gauge ``name`` across all label sets (e.g. bytes cached
        summed over per-executor gauges)."""
        with self._lock:
            return sum(v for (n, _), v in self._gauges.items() if n == name)

    def histogram_stats(self, name: str, **labels: Any) -> dict[str, float]:
        with self._lock:
            hist = self._histograms.get(_key(name, labels))
            return hist.as_dict() if hist is not None else HistogramData().as_dict()

    def histogram_percentiles(
        self, name: str, qs: "tuple[float, ...]" = (50.0, 95.0, 99.0), **labels: Any
    ) -> dict[str, float]:
        """p50/p95/p99-style quantiles of one histogram series (sliding
        window of the most recent observations); zeros when unobserved."""
        with self._lock:
            hist = self._histograms.get(_key(name, labels))
            return hist.percentiles(qs) if hist is not None else HistogramData().percentiles(qs)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Flat, JSON-able dump of every series (keys rendered Prometheus-style)."""
        with self._lock:
            return {
                "counters": {_fmt(k): v for k, v in sorted(self._counters.items())},
                "gauges": {_fmt(k): v for k, v in sorted(self._gauges.items())},
                "histograms": {
                    _fmt(k): h.as_dict() for k, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
