"""Hierarchical span tracer: query -> phases -> job -> stage -> task -> operator.

One :class:`Tracer` lives on each :class:`~repro.engine.context.EngineContext`
and is shared by every layer. Spans form a tree:

* the SQL session opens a ``query`` span and ``phase`` spans (analyze /
  optimize / plan / execute),
* the DAG scheduler opens one ``job`` span per ``run_job``,
* the task scheduler opens one ``stage`` span per stage run,
* the executor opens one ``task`` span per task *attempt* (so retries are
  separate spans, attributed by their attrs),
* indexed operators (cTrie lookups, batch scans, join probes) open
  ``operator`` spans through :meth:`repro.engine.partition.TaskContext.span`.

Context propagation: driver-side spans (query/phase/job/stage) nest through
a per-thread :class:`contextvars.ContextVar`; task spans cross the thread
pool of ``scheduler_mode="threads"`` by *explicit* parent passing (the
scheduler hands the stage span to the worker), so nesting is deterministic
regardless of interleaving. Entering a span (``with span:``) activates it
for the current thread, which is how operator spans inside a pool thread
find their task span.

Zero-cost-when-disabled: ``start_span`` returns the shared :data:`NOOP_SPAN`
singleton after a single attribute check; no allocation, no locking, no
clock read happens on the disabled path.

Export is Chrome trace event format (``chrome://tracing`` /
https://ui.perfetto.dev — "X" complete events, microsecond timestamps), and
:func:`validate_chrome_trace` checks an exported document against the
subset of the spec this tracer promises (``tests/test_trace_integrity.py``).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

#: kind -> kinds its parent may have (None = may be a root). The integrity
#: checker enforces these, which is what "every task span nests under
#: exactly one stage span" means mechanically.
SPAN_NESTING: dict[str, tuple[str | None, ...]] = {
    "serve": (None, "serve"),
    "scrub": (None, "serve", "scrub"),
    "query": (None, "phase", "query", "serve"),
    "phase": (None, "query", "phase", "serve"),
    "job": (None, "query", "phase", "serve", "scrub"),
    "stage": ("job",),
    "task": ("stage",),
    # An operator runs inside a task, or under the execute phase when a
    # key-bound read skips the scheduler (DESIGN.md §13).
    "operator": ("task", "operator", "phase"),
    "span": (None, "query", "phase", "job", "stage", "task", "operator", "span", "advisor"),
    # Cache-advisor decision/shed spans fire at query boundaries (inside a
    # query span), from the serve tier, or driver-side outside any span.
    "advisor": (None, "query", "phase", "serve", "job", "advisor"),
}


class _NoopSpan:
    """Shared do-nothing span returned whenever tracing is disabled."""

    __slots__ = ()
    enabled = False
    span_id = 0
    trace_id = 0
    parent_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set_attr(self, name: str, value: Any) -> None:
        pass

    def end(self, error: "BaseException | None" = None) -> None:
        pass


NOOP_SPAN = _NoopSpan()


@dataclass
class Span:
    """One timed, attributed node of the trace tree."""

    name: str
    kind: str
    span_id: int
    parent_id: int | None
    trace_id: int
    start: float
    tracer: "Tracer" = field(repr=False, default=None)  # type: ignore[assignment]
    end_time: float | None = None
    thread_id: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)
    _token: Any = field(repr=False, default=None)

    enabled = True

    @property
    def duration(self) -> float:
        return (self.end_time if self.end_time is not None else self.start) - self.start

    def set_attr(self, name: str, value: Any) -> None:
        self.attrs[name] = value

    def end(self, error: "BaseException | None" = None) -> None:
        if self.end_time is not None:
            return  # idempotent: with-blocks and explicit ends may both fire
        if error is not None:
            self.attrs["error"] = type(error).__name__
        self.tracer._finish(self)

    # -- activation (contextvar) ------------------------------------------------

    def __enter__(self) -> "Span":
        self._token = self.tracer._current.set(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._token is not None:
            self.tracer._current.reset(self._token)
            self._token = None
        self.end(error=exc if isinstance(exc, BaseException) else None)
        return False


class Tracer:
    """Thread-safe span factory, sink, exporter and integrity checker."""

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._finished: list[Span] = []
        self._active: dict[int, Span] = {}
        self._current: ContextVar[Span | None] = ContextVar("repro_span", default=None)
        #: perf_counter origin so exported timestamps start near zero.
        self._epoch = time.perf_counter()

    # -- state ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> "Tracer":
        self._enabled = True
        return self

    def disable(self) -> "Tracer":
        self._enabled = False
        return self

    def current(self) -> Span | None:
        """The span active on *this* thread (None outside any span)."""
        return self._current.get()

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
            self._active.clear()
        self._epoch = time.perf_counter()

    # -- span lifecycle ----------------------------------------------------------

    def start_span(
        self,
        name: str,
        kind: str = "span",
        parent: "Span | _NoopSpan | None" = None,
        **attrs: Any,
    ) -> "Span | _NoopSpan":
        """Open a span. ``parent=None`` nests under the thread's current span.

        Returns :data:`NOOP_SPAN` when disabled — the single check below is
        the entire cost of an instrumented site in a non-traced run.
        """
        if not self._enabled:
            return NOOP_SPAN
        if parent is None:
            parent = self._current.get()
        parent_live = parent is not None and getattr(parent, "enabled", False)
        with self._lock:
            span_id = next(self._seq)
        span = Span(
            name=name,
            kind=kind,
            span_id=span_id,
            parent_id=parent.span_id if parent_live else None,
            trace_id=parent.trace_id if parent_live else span_id,
            start=time.perf_counter(),
            tracer=self,
            thread_id=threading.get_ident(),
            attrs=dict(attrs) if attrs else {},
        )
        with self._lock:
            self._active[span_id] = span
        return span

    def span(
        self,
        name: str,
        kind: str = "span",
        parent: "Span | _NoopSpan | None" = None,
        **attrs: Any,
    ) -> "Span | _NoopSpan":
        """Alias of :meth:`start_span`; use as ``with tracer.span(...):``."""
        return self.start_span(name, kind=kind, parent=parent, **attrs)

    def _finish(self, span: Span) -> None:
        span.end_time = time.perf_counter()
        with self._lock:
            self._active.pop(span.span_id, None)
            self._finished.append(span)

    # -- inspection -----------------------------------------------------------------

    def finished_spans(self, kind: str | None = None) -> list[Span]:
        with self._lock:
            spans = list(self._finished)
        if kind is not None:
            spans = [s for s in spans if s.kind == kind]
        return spans

    def active_spans(self) -> list[Span]:
        with self._lock:
            return list(self._active.values())

    def span_tree_shape(self) -> list[tuple[str, str, str | None]]:
        """Multiset-comparable structure: (kind, name, parent kind) per span,
        sorted. Two runs of the same seeded workload must produce equal
        shapes even under ``scheduler_mode="threads"``."""
        with self._lock:
            spans = list(self._finished)
        by_id = {s.span_id: s for s in spans}
        shape = [
            (
                s.kind,
                s.name,
                by_id[s.parent_id].kind if s.parent_id in by_id else None,
            )
            for s in spans
        ]
        return sorted(shape, key=lambda t: (t[0], t[1], t[2] or ""))

    def integrity_errors(self) -> list[str]:
        """Structural violations of the span model (empty list = clean).

        Checks: no unclosed spans, every parent id resolves to a recorded
        span, kinds nest per :data:`SPAN_NESTING` (a task under exactly one
        stage, a stage under one job, operators inside tasks), and no span
        ends before it starts.
        """
        errors: list[str] = []
        with self._lock:
            finished = list(self._finished)
            active = list(self._active.values())
        for span in active:
            errors.append(f"unclosed span: {span.kind} {span.name!r} (id={span.span_id})")
        by_id = {s.span_id: s for s in finished}
        for span in finished:
            parent = by_id.get(span.parent_id) if span.parent_id is not None else None
            if span.parent_id is not None and parent is None:
                errors.append(
                    f"orphan span: {span.kind} {span.name!r} (id={span.span_id}) "
                    f"parent {span.parent_id} was never recorded"
                )
                continue
            allowed = SPAN_NESTING.get(span.kind, SPAN_NESTING["span"])
            parent_kind = parent.kind if parent is not None else None
            if parent_kind not in allowed:
                errors.append(
                    f"bad nesting: {span.kind} {span.name!r} (id={span.span_id}) "
                    f"under {parent_kind!r}, allowed {allowed!r}"
                )
            if span.end_time is not None and span.end_time < span.start:
                errors.append(f"negative duration: {span.kind} {span.name!r}")
            if parent is not None and span.trace_id != parent.trace_id:
                errors.append(
                    f"trace id mismatch: {span.kind} {span.name!r} "
                    f"({span.trace_id} != parent's {parent.trace_id})"
                )
        return errors

    # -- export ---------------------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome trace event document ("X" complete events, ts/dur in µs).

        Events are sorted by span id, so two runs with identical span trees
        export structurally identical documents (timings aside).
        """
        with self._lock:
            spans = sorted(self._finished, key=lambda s: s.span_id)
        events = []
        for s in spans:
            end = s.end_time if s.end_time is not None else s.start
            args: dict[str, Any] = {"span_id": s.span_id, "trace_id": s.trace_id}
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            for k, v in s.attrs.items():
                args[k] = v if isinstance(v, (int, float, str, bool, type(None))) else repr(v)
            events.append(
                {
                    "name": s.name,
                    "cat": s.kind,
                    "ph": "X",
                    "ts": max(0.0, (s.start - self._epoch) * 1e6),
                    "dur": max(0.0, (end - s.start) * 1e6),
                    "pid": 0,
                    "tid": s.thread_id,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path: str) -> dict[str, Any]:
        """Write the Chrome trace JSON to ``path``; returns the document."""
        doc = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        return doc


#: Event phases this exporter may legally emit.
_ALLOWED_PH = {"X", "B", "E", "i", "M"}


def validate_chrome_trace(doc: Any) -> list[str]:
    """Validate a document against the Chrome trace event schema subset the
    tracer emits. Returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: event must be an object")
            continue
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}: 'name' must be a non-empty string")
        if ev.get("ph") not in _ALLOWED_PH:
            errors.append(f"{where}: 'ph' must be one of {sorted(_ALLOWED_PH)}")
        if not isinstance(ev.get("ts"), (int, float)) or ev.get("ts", -1) < 0:
            errors.append(f"{where}: 'ts' must be a non-negative number")
        if ev.get("ph") == "X" and (
            not isinstance(ev.get("dur"), (int, float)) or ev.get("dur", -1) < 0
        ):
            errors.append(f"{where}: 'X' event needs a non-negative 'dur'")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: {key!r} must be an integer")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: 'args' must be an object")
        if "cat" in ev and not isinstance(ev["cat"], str):
            errors.append(f"{where}: 'cat' must be a string")
    return errors
