"""The benchmark's own instruments: percentiles, clocks, memory, spans.

Deliberately independent of ``repro.bench`` and ``repro.obs``: a refactor of
the program's harness or tracer cannot change what is measured here.
"""

from __future__ import annotations

import json
import resource
import struct
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

now = time.perf_counter


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: "list[float]") -> float:
    return percentile(values, 50.0)


def time_calls(fn: Callable[[], Any], repeats: int) -> float:
    """Median seconds of one ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = now()
        fn()
        samples.append(now() - t0)
    return median(samples)


# -- host speed ------------------------------------------------------------------------
#
# The sandbox shares its host: the same pure-Python loop runs a third to a half
# slower from one minute to the next, for minutes at a time, so a whole run
# lands in a fast or a slow phase and raw wall-clock medians of unchanged code
# spread by 20-35 % over ten runs. Every timed region therefore runs this fixed
# kernel alongside its work (before each client cycle, either side of a set-up,
# before each group of layer probes), and its times are reported divided by ``median(kernel seconds) / REFERENCE_S`` —
# the time the work would have taken had the host run at the reference speed
# throughout. That cut the same ten-run spreads to 5-12 % (README, Steadiness).
# The kernel is benchmark code: a change to the program cannot move it.

#: Seconds one ``calibrate()`` takes on the 2-vCPU sandbox while its host is quiet.
REFERENCE_S = 0.0004

_ROWS = bytearray(struct.pack("<qqqd", 1, 2, 3, 0.5) * 256)
_UNPACK = struct.Struct("<qqqd").unpack_from
_SMALL = {i: i for i in range(256)}


def calibrate() -> float:
    """Seconds the fixed kernel takes now: decode rows out of a byte buffer and
    probe a dict, like the program's inner loops. Its working set (~20 KB)
    stays in L1 over the twelve passes, so the time does not depend on what the
    work before it left in the caches; it keeps no object alive, so the garbage
    collector's counters are where it found them."""
    t0 = now()
    small, rows, unpack, total = _SMALL, _ROWS, _UNPACK, 0
    for _ in range(12):
        for offset in range(0, 8192, 32):
            total += small[(unpack(rows, offset)[0] + offset) & 255]
    return now() - t0


def host_slowdown(calibrations: "list[float]") -> float:
    """How much slower than the reference speed the host ran while these
    calibrations were taken (1.0 = reference)."""
    return median(calibrations) / REFERENCE_S


def at_reference_speed(metrics: "dict[str, float]", units: "dict[str, str]", slowdown: float) -> "dict[str, float]":
    """``metrics`` as they would read on a host at the reference speed: times
    divided, rates multiplied, by the slowdown measured alongside them;
    counts, shares and ratios of two times as they are."""
    out = {}
    for name, value in metrics.items():
        unit = units[name]
        if unit in ("s", "ms", "us", "ns"):
            value /= slowdown
        elif unit.endswith("/s"):
            value *= slowdown
        out[name] = value
    return out


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Samples:
    """Per-op-kind latency samples (seconds) of one timed window."""

    def __init__(self) -> None:
        self.by_kind: dict[str, list[float]] = {}

    def add(self, kind: str, seconds: float) -> None:
        self.by_kind.setdefault(kind, []).append(seconds)

    def get(self, kind: str) -> "list[float]":
        return self.by_kind.get(kind, [])

    def p(self, kind: str, q: float, scale: float) -> float:
        return percentile(self.get(kind), q) * scale

    def counts(self) -> dict[str, int]:
        return {kind: len(v) for kind, v in sorted(self.by_kind.items())}


class Spans:
    """In-memory spans (name, start, end, parent, op id) for the traced run.

    A span's *layer* is its name up to the first dot. ``op`` opens a root
    span for one benchmark operation; ``span`` nests under whatever is open
    on this tracer. One instance per load-generating thread — nothing here
    is shared, so there is no lock to perturb the timings.
    """

    ROOT_LAYER = "bench"

    def __init__(self, tid: int = 0) -> None:
        self.tid = tid
        self.records: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._op = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append((name, 0.0, 0.0, parent, self._op))
        self._stack.append(index)
        t0 = now()
        try:
            yield
        finally:
            t1 = now()
            self._stack.pop()
            self.records[index] = (name, t0, t1, parent, self._op)

    def op(self, kind: str):
        self._op += 1
        return self.span(f"{self.ROOT_LAYER}.{kind}")

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span whose bounds were measured by the callee (e.g. a
        serve query split by its ``queued_seconds``)."""
        parent = self._stack[-1] if self._stack else -1
        self.records.append((name, start, end, parent, self._op))


def layer_table(tracers: "list[Spans]") -> dict[str, Any]:
    """Self time per layer (span minus the part its children cover) and the
    share of root-span wall time the layer spans account for."""
    self_s: dict[str, float] = {}
    root_wall = 0.0
    for tracer in tracers:
        child_time = [0.0] * len(tracer.records)
        for _name, start, end, parent, _op in tracer.records:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _op) in enumerate(tracer.records):
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + max(0.0, (end - start) - child_time[index])
            if parent < 0:
                root_wall += end - start
    uncovered = self_s.get(Spans.ROOT_LAYER, 0.0)
    return {
        "self_seconds": dict(sorted(self_s.items())),
        "root_wall_seconds": root_wall,
        "coverage_pct": 100.0 * (1.0 - uncovered / root_wall) if root_wall else 0.0,
    }


def write_chrome_trace(path: str, tracers: "list[Spans]", table: dict, limit: int = 20_000) -> None:
    """Chrome ``chrome://tracing`` JSON: complete ("X") events, microseconds,
    first ``limit`` spans per thread, plus the per-layer table."""
    origin = min((t.records[0][1] for t in tracers if t.records), default=0.0)
    events = []
    for tracer in tracers:
        for index, (name, start, end, parent, op) in enumerate(tracer.records[:limit]):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": tracer.tid,
                    "args": {"id": index, "parent": parent, "op": op},
                }
            )
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "layers": table}, f)
