"""Executor runtime: really runs tasks, measures them, reports metrics."""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.metrics import TaskMetrics
from repro.cluster.topology import ExecutorSpec
from repro.engine.block_manager import BlockManager
from repro.engine.memory_manager import MemoryManager
from repro.engine.partition import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext


class ExecutorRuntime:
    """The in-process stand-in for one executor JVM.

    Owns the executor's block manager and its liveness flag. Task execution
    happens in the caller's thread; wall time is measured and reported to
    the metrics collector, where the NUMA/network models scale it into
    simulated cluster time.
    """

    def __init__(self, context: "EngineContext", spec: ExecutorSpec) -> None:
        self.context = context
        self.spec = spec
        self.executor_id = spec.executor_id
        #: Per-executor byte budget + spill/evict tiers (DESIGN.md §10); a
        #: no-op pass-through when ``executor_memory_bytes`` is 0.
        self.memory_manager = MemoryManager(context, spec.executor_id)
        self.block_manager = BlockManager(spec.executor_id, memory=self.memory_manager)
        self.alive = True
        self.tasks_run = 0
        # tasks_run is a read-modify-write shared across pool threads.
        self._stats_lock = threading.Lock()

    def run_task(
        self,
        stage_id: int,
        split: int,
        attempt: int,
        job_index: int,
        fn: Callable[[TaskContext], Any],
        parent_span: Any = None,
    ) -> Any:
        """Execute ``fn`` with a fresh TaskContext; record metrics; return result.

        ``parent_span`` is the stage span handed down by the task scheduler;
        passing it explicitly (rather than via a context variable) is what
        keeps task-span nesting deterministic across the thread pool.
        """
        if not self.alive:
            raise RuntimeError(f"executor {self.executor_id} is dead")
        tracer = self.context.tracer
        span = tracer.start_span(
            f"task p{split}",
            kind="task",
            parent=parent_span,
            stage_id=stage_id,
            partition=split,
            attempt=attempt,
            job_index=job_index,
            executor=self.executor_id,
            scheduler_mode=self.context.config.scheduler_mode,
        )
        ctx = TaskContext(
            stage_id=stage_id,
            partition_index=split,
            attempt=attempt,
            executor_id=self.executor_id,
            job_index=job_index,
            tracer=tracer if span.enabled else None,
            task_span=span if span.enabled else None,
        )
        t0 = time.perf_counter()
        # ``with span`` also activates it on this thread, so operator spans
        # opened deep inside RDD.compute find their task via the contextvar.
        with span:
            try:
                result = fn(ctx)
            except BaseException as exc:
                span.set_attr("error", type(exc).__name__)
                raise
            finally:
                elapsed = time.perf_counter() - t0
                with self._stats_lock:
                    self.tasks_run += 1
                span.set_attr("compute_seconds", round(elapsed, 6))
                self.context.metrics.record(
                    TaskMetrics(
                        stage_id=stage_id,
                        partition=split,
                        executor_id=self.executor_id,
                        compute_seconds=elapsed,
                        shuffle_bytes_read_local=ctx.shuffle_bytes_read_local,
                        shuffle_bytes_read_remote=ctx.shuffle_bytes_read_remote,
                        shuffle_bytes_written=ctx.shuffle_bytes_written,
                        phases=dict(ctx.phases),
                    )
                )
        return result

    def kill(self) -> None:
        """Simulate process death: block contents are gone."""
        self.alive = False
        self.block_manager.clear()
