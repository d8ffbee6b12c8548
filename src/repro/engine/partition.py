"""Partition handles and task-side context."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class Partition:
    """A handle naming one partition of one RDD (no data, just identity)."""

    rdd_id: int
    index: int


@dataclass
class TaskContext:
    """Per-task runtime context handed to ``RDD.compute``.

    Carries identity (stage/partition/attempt), the executor the task runs
    on, and the metrics sink tasks write into (compute phases, shuffle byte
    counts). When tracing is enabled the executor also attaches the tracer
    and the task's span, so operator code can open ``operator`` spans that
    nest under the right task attempt regardless of which pool thread runs
    it (:meth:`span`).
    """

    stage_id: int
    partition_index: int
    attempt: int
    executor_id: str
    job_index: int = 0
    phases: dict[str, float] = field(default_factory=dict)
    shuffle_bytes_read_local: int = 0
    shuffle_bytes_read_remote: int = 0
    shuffle_bytes_written: int = 0
    #: Set by ExecutorRuntime.run_task when tracing is enabled.
    tracer: Any = None
    task_span: Any = None

    def add_phase(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Any]:
        """Time an operator block: always accumulates a phase; additionally
        emits an ``operator`` span under this task when tracing is on."""
        span = None
        if self.tracer is not None and self.tracer.enabled:
            span = self.tracer.start_span(
                name, kind="operator", parent=self.task_span, **attrs
            )
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            self.add_phase(name, time.perf_counter() - t0)
            if span is not None:
                span.end()
