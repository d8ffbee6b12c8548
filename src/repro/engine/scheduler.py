"""Task scheduler: locality-aware placement, delay scheduling, retries,
and chaos-hardened recovery.

Placement policy (Spark's levels): PROCESS_LOCAL (executor holding the
cached block) > NODE_LOCAL (same machine) > ANY (round-robin). Delay
scheduling is modeled rather than waited out: a preferred executor whose
busy tasks already fill its slots (``cores * partitions_per_core``) is
passed over at once — no wait, no timer — and the task degrades to
NODE_LOCAL, then ANY, which is exactly the mechanism that creates the
*stale replayed copies* the Indexed DataFrame's version numbers guard
against (Section III-D).

Execution modes (``Config.scheduler_mode``):

* ``"sequential"`` — every task of a stage runs in the caller's thread,
  one after another (the original behaviour; fully deterministic).
* ``"threads"`` — a stage's tasks are launched concurrently onto a
  ``ThreadPoolExecutor`` whose width is bounded by the topology's executor
  slots (``cores * partitions_per_core`` summed over alive executors, or
  ``Config.max_concurrent_tasks``). Slot accounting (the ``busy`` map that
  drives delay scheduling) lives under a lock; per-task retry/blacklisting
  is identical to sequential mode; a ``FetchFailedError`` cancels the
  stage's in-flight siblings and propagates to the DAG scheduler; results
  are returned in partition order either way, so the two modes produce
  byte-identical query results.

**Small-job heuristic** (``threads`` mode): a stage with at most
``Config.small_stage_inline_threshold`` tasks, or whose lineage-estimated
record count is at most ``small_stage_inline_rows``, runs inline in the
caller's thread. Tiny jobs — the 51-row broadcast probes of the fig01
amortization workload — were paying more in pool dispatch than their
compute cost (0.40x of sequential when the pool first landed). Every
dispatch is counted in ``tasks_dispatched_total{mode, path}`` so the
split is observable.

Recovery behaviours (each recorded through
``MetricsCollector.record_recovery``: counted by kind in
``recovery_events_total``, a ``recovery`` span when tracing — DESIGN.md §8):

* **Retry backoff + stage attempt budget.** A retryable task failure backs
  off exponentially (``task_retry_backoff`` doubling per attempt, capped)
  and consumes from a shared per-stage budget, so correlated failures fail
  the stage promptly instead of spinning blind immediate resubmits.
* **Blacklisting.** A retry avoids every executor that already failed the
  task when an untried one is alive.
* **Dead clusters fail fast.** Zero alive executors (and no pending
  replacements) raises :class:`NoAliveExecutorsError` — a non-retryable
  ``JobFailedError`` — instead of burning the retry budget.

The cTrie and the shuffle/block/metrics registries are all safe under
concurrent tasks — the paper's whole point is many tasks hammering one
indexed cache at once — so ``"threads"`` is what actually exercises the
lock-free index.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine.dag import JobFailedError
from repro.engine.shuffle import FetchFailedError
from repro.integrity import CorruptBlockError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext
    from repro.engine.task import Stage

#: Hard cap on derived thread-pool width; topologies can describe hundreds
#: of simulated slots but the host only has so many real cores.
MAX_DERIVED_POOL_WIDTH = 32


@dataclass
class TaskFailure(Exception):
    """A task exhausted its retries."""

    stage_id: int
    partition: int
    cause: Exception

    def __str__(self) -> str:
        return f"task (stage={self.stage_id}, partition={self.partition}) failed: {self.cause}"


class NoAliveExecutorsError(JobFailedError, RuntimeError):
    """Every executor is dead and no replacement is pending: non-retryable."""


class StageCancelled(Exception):
    """Internal: a sibling task failed; this task should not start/retry."""


class TaskScheduler:
    """Runs the tasks of one stage, partition by partition or concurrently."""

    def __init__(self, context: "EngineContext") -> None:
        self.context = context
        self._round_robin = itertools.count()
        #: (executor_id, locality) choices of the last stage, for tests.
        self.last_placements: list[tuple[str, str]] = []
        #: Guards busy-slot accounting and last_placements under the pool.
        self._slot_lock = threading.Lock()
        #: executor_id -> tasks currently occupying a slot (last stage run).
        self.busy: dict[str, int] = {}
        #: Shared retry budget of the stage currently running.
        self._stage_retry_budget = 0

    # -- placement -----------------------------------------------------------------

    def _alive_executors(self) -> list[str]:
        return [
            r.executor_id for r in self.context.executors.values() if r.alive
        ]

    def choose_executor(self, stage: "Stage", split: int, busy: dict[str, int]) -> tuple[str, str]:
        """Return (executor_id, locality_level) for a task."""
        alive = self._alive_executors()
        if not alive:
            # A pending replacement can still heal an otherwise-empty
            # cluster; with none, fail the job clearly and immediately.
            revived = self.context.revive_for_empty_cluster()
            if revived is None:
                raise NoAliveExecutorsError(
                    "no alive executors and no pending replacements"
                )
            alive = [revived]
        preferred = [e for e in stage.rdd.preferred_locations(split) if e in alive]
        topology = self.context.topology
        if preferred:
            # Delay scheduling: accept the preferred executor unless it is
            # already oversubscribed beyond its core count; then fall through
            # to node-local, then ANY.
            for e in preferred:
                if busy.get(e, 0) < topology.executor(e).cores * self.context.config.partitions_per_core:
                    return e, "PROCESS_LOCAL"
            machines = {topology.machine_of(e) for e in preferred}
            node_local = [e for e in alive if topology.machine_of(e) in machines]
            for e in node_local:
                if busy.get(e, 0) < topology.executor(e).cores * self.context.config.partitions_per_core:
                    return e, "NODE_LOCAL"
        # ANY: round-robin over the alive executors for load balance.
        e = alive[next(self._round_robin) % len(alive)]
        return e, "ANY"

    def max_concurrent_tasks(self) -> int:
        """Pool width for ``"threads"`` mode: explicit knob or derived slots."""
        cfg = self.context.config
        if cfg.max_concurrent_tasks > 0:
            return cfg.max_concurrent_tasks
        topology = self.context.topology
        slots = sum(
            topology.executor(e).cores * cfg.partitions_per_core
            for e in self._alive_executors()
        )
        host = max(2, 2 * (os.cpu_count() or 1))
        return max(1, min(slots, MAX_DERIVED_POOL_WIDTH, max(host, 4)))

    # -- slot accounting --------------------------------------------------------------

    def _acquire_slot(
        self, stage: "Stage", split: int, tried: set[str], attempt: int
    ) -> tuple[str, str]:
        """Pick an executor for one task attempt and occupy one of its slots.

        Blacklisting: on a retry, an executor that already failed this task
        is avoided when any untried executor is alive (as Spark's
        blacklisting would).
        """
        blacklisted_from = None
        with self._slot_lock:
            executor_id, locality = self.choose_executor(stage, split, self.busy)
            if attempt > 0 and executor_id in tried:
                others = [e for e in self._alive_executors() if e not in tried]
                if others:
                    blacklisted_from = executor_id
                    executor_id, locality = others[0], "ANY"
            self.busy[executor_id] = self.busy.get(executor_id, 0) + 1
            self.last_placements.append((executor_id, locality))
        if blacklisted_from is not None:
            self.context.metrics.record_recovery(
                "task_blacklist",
                stage_id=stage.stage_id,
                partition=split,
                executor_id=blacklisted_from,
                detail=f"moved to {executor_id} on attempt {attempt}",
            )
        return executor_id, locality

    def _release_slot(self, executor_id: str) -> None:
        """Free the slot so late tasks of a large stage keep their locality
        (the busy-slot leak previously degraded them to ANY)."""
        with self._slot_lock:
            remaining = self.busy.get(executor_id, 0) - 1
            if remaining > 0:
                self.busy[executor_id] = remaining
            else:
                self.busy.pop(executor_id, None)

    def _consume_retry_budget(self) -> bool:
        """Take one retry from the stage's shared budget; False when dry."""
        with self._slot_lock:
            if self._stage_retry_budget <= 0:
                return False
            self._stage_retry_budget -= 1
            return True

    # -- execution -------------------------------------------------------------------

    def run_stage(
        self,
        stage: "Stage",
        partitions: list[int],
        job_index: int,
    ) -> list[Any]:
        """Execute one task per partition; returns results in partition order.

        FetchFailedError aborts the stage immediately (the DAG scheduler
        resubmits parents); any other exception is retried up to
        ``max_task_retries`` times, moving the task to a different executor
        on each attempt (as Spark's blacklisting would).
        """
        cfg = self.context.config
        mode = cfg.scheduler_mode
        if mode not in ("sequential", "threads"):
            raise ValueError(
                f"unknown scheduler_mode {mode!r} (expected 'sequential' or 'threads')"
            )
        with self._slot_lock:
            self.last_placements = []
            self.busy = {}
            self._stage_retry_budget = (
                cfg.stage_attempt_budget
                if cfg.stage_attempt_budget > 0
                else max(4, len(partitions)) * cfg.max_task_retries
            )
        self.context.registry.inc("stages_executed_total", mode=mode)
        # The stage span nests under the job span via the driver thread's
        # contextvar; worker threads receive it *explicitly* (parent_span),
        # because contextvars do not propagate into pool threads.
        stage_span = self.context.tracer.start_span(
            f"stage {stage.stage_id}",
            kind="stage",
            stage_id=stage.stage_id,
            num_tasks=len(partitions),
            mode=mode,
            job_index=job_index,
        )
        use_pool = (
            mode == "threads"
            and len(partitions) > 1
            and not self._should_inline(stage, partitions)
        )
        self.context.registry.inc(
            "tasks_dispatched_total",
            len(partitions),
            mode=mode,
            path="pooled" if use_pool else "inline",
        )
        stage_span.set_attr("dispatch", "pooled" if use_pool else "inline")
        with stage_span:
            if use_pool:
                return self._run_stage_threads(stage, partitions, job_index, stage_span)
            return self._run_stage_sequential(stage, partitions, job_index, stage_span)

    def _should_inline(self, stage: "Stage", partitions: list[int]) -> bool:
        """Small-job heuristic: skip pool dispatch when the stage is tiny.

        Two triggers, both conservative: few tasks (the pool's submit/wait
        machinery costs more than running a couple of tasks back to back),
        or a small lineage-estimated record count (a broadcast probe of a
        handful of keys spread over many partitions is still a tiny job).
        Unknown estimates (any wide edge in the lineage) never inline.
        """
        cfg = self.context.config
        if 0 < cfg.small_stage_inline_threshold >= len(partitions):
            return True
        if cfg.small_stage_inline_rows > 0:
            estimate = stage.rdd.estimated_records()
            if estimate is not None and estimate <= cfg.small_stage_inline_rows:
                return True
        return False

    def _run_stage_sequential(
        self, stage: "Stage", partitions: list[int], job_index: int, stage_span: Any = None
    ) -> list[Any]:
        results: dict[int, Any] = {}
        for split in partitions:
            results[split] = self._run_task_with_retries(
                stage, split, job_index, stage_span=stage_span
            )
        return [results[p] for p in partitions]

    def _run_stage_threads(
        self, stage: "Stage", partitions: list[int], job_index: int, stage_span: Any = None
    ) -> list[Any]:
        """Launch the stage's tasks onto a bounded thread pool.

        The first failure (FetchFailedError / TaskFailure / scheduler error)
        sets the cancellation event so queued siblings abort before running
        and retries stop; already-running tasks drain (Python threads cannot
        be interrupted). FetchFailedError wins over collateral task errors
        when both occur, because the DAG scheduler can *recover* from it by
        recomputing parents — mirroring Spark, where a fetch failure
        supersedes the task-level error it usually causes.
        """
        width = min(self.max_concurrent_tasks(), len(partitions))
        cancel = threading.Event()
        results: dict[int, Any] = {}
        fetch_failures: list[FetchFailedError] = []
        other_failures: list[Exception] = []
        with ThreadPoolExecutor(
            max_workers=max(1, width), thread_name_prefix=f"stage-{stage.stage_id}"
        ) as pool:
            futures = {
                pool.submit(
                    self._run_task_with_retries, stage, split, job_index, cancel, stage_span
                ): split
                for split in partitions
            }
            for fut in as_completed(futures):
                try:
                    results[futures[fut]] = fut.result()
                except (StageCancelled, CancelledError):
                    continue
                except FetchFailedError as failure:
                    fetch_failures.append(failure)
                except Exception as exc:  # noqa: BLE001 - collected, re-raised below
                    other_failures.append(exc)
                if (fetch_failures or other_failures) and not cancel.is_set():
                    cancel.set()
                    for sibling in futures:
                        sibling.cancel()
        if fetch_failures:
            raise fetch_failures[0]
        if other_failures:
            raise other_failures[0]
        return [results[p] for p in partitions]

    def _run_task_with_retries(
        self,
        stage: "Stage",
        split: int,
        job_index: int,
        cancel: "threading.Event | None" = None,
        stage_span: Any = None,
    ) -> Any:
        """One task's attempt loop, shared by both modes.

        ``cancel`` (threads mode) is set when a sibling fails: the task
        stops before its next attempt and wakes early from a backoff or an
        injected delay; ``stage_span`` becomes the parent of every
        attempt's task span.
        """
        cfg = self.context.config
        metrics = self.context.metrics
        attempt = 0
        tried: set[str] = set()
        while True:
            if cancel is not None and cancel.is_set():
                raise StageCancelled(stage.stage_id)
            self.context.note_task_launch()
            self.context.registry.inc("task_launches_total")
            decision = self.context.faults.on_task_start(
                stage.stage_id, split, attempt, job_index
            )
            for victim in decision.kill_executors:
                runtime = self.context.executors.get(victim)
                if runtime is not None and runtime.alive:
                    self.context.kill_executor(victim, reason="chaos")
            executor_id, _locality = self._acquire_slot(stage, split, tried, attempt)
            tried.add(executor_id)
            if decision.memory_squeeze_factor > 0:
                # Chaos memory pressure: shed the chosen executor's cached
                # blocks down to the squeezed budget before the task runs.
                # Never fails the task by itself — it only forces the
                # spill/evict tiers (and any lineage recomputes they cause).
                squeezed = self.context.executors.get(executor_id)
                if squeezed is not None and squeezed.alive:
                    squeezed.block_manager.pressure_storm(
                        decision.memory_squeeze_factor,
                        job_index=job_index,
                        stage_id=stage.stage_id,
                        partition=split,
                    )
            try:
                if decision.fail is not None:
                    metrics.record_recovery(
                        "chaos_task_failure",
                        job_index=job_index,
                        stage_id=stage.stage_id,
                        partition=split,
                        executor_id=executor_id,
                        detail=str(decision.fail),
                    )
                    raise decision.fail
                if decision.delay_seconds > 0:
                    metrics.record_recovery(
                        "chaos_straggler",
                        job_index=job_index,
                        stage_id=stage.stage_id,
                        partition=split,
                        executor_id=executor_id,
                        seconds=decision.delay_seconds,
                    )
                    # Interruptible: when the stage aborts, the sleeping
                    # straggler wakes at once instead of holding its teardown.
                    if cancel is None:
                        time.sleep(decision.delay_seconds)
                    elif cancel.wait(decision.delay_seconds):
                        raise StageCancelled(stage.stage_id)
                runtime = self.context.executor_runtime(executor_id)
                return runtime.run_task(
                    stage.stage_id,
                    split,
                    attempt,
                    job_index,
                    stage.task(split),
                    parent_span=stage_span,
                )
            except (FetchFailedError, StageCancelled):
                raise
            except Exception as exc:  # noqa: BLE001 - retry any task error
                if isinstance(exc, CorruptBlockError):
                    # A checksum tripped at a boundary inside this task:
                    # count the detection, quarantine every cached block
                    # referencing the damaged bytes, and fall through to
                    # the normal retry — the rerun misses the cache and
                    # rebuilds clean bytes from lineage.
                    self.context.registry.inc("corruption_detected_total", where=exc.where)
                    self.context.quarantine_corrupt(
                        exc,
                        job_index=job_index,
                        stage_id=stage.stage_id,
                        partition=split,
                        executor_id=executor_id,
                    )
                attempt += 1
                if attempt > cfg.max_task_retries:
                    raise TaskFailure(stage.stage_id, split, exc) from exc
                if not self._consume_retry_budget():
                    metrics.record_recovery(
                        "stage_budget_exhausted",
                        job_index=job_index,
                        stage_id=stage.stage_id,
                        partition=split,
                        executor_id=executor_id,
                        detail=f"attempt={attempt} error={type(exc).__name__}",
                    )
                    raise TaskFailure(stage.stage_id, split, exc) from exc
                backoff = 0.0
                if cfg.task_retry_backoff > 0:
                    backoff = min(
                        cfg.task_retry_backoff * (2 ** (attempt - 1)),
                        cfg.task_retry_backoff_max,
                    )
                metrics.record_recovery(
                    "task_retry",
                    job_index=job_index,
                    stage_id=stage.stage_id,
                    partition=split,
                    executor_id=executor_id,
                    seconds=backoff,
                    detail=f"attempt={attempt} error={type(exc).__name__}: {exc}",
                )
                if backoff > 0:
                    # Interruptible: a stage cancel ends the backoff early.
                    if cancel is not None:
                        cancel.wait(backoff)
                    else:
                        time.sleep(backoff)
            finally:
                self._release_slot(executor_id)
