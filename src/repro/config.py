"""Global configuration for the engine, SQL layer and the Indexed DataFrame.

Mirrors the knobs the paper exposes (Section III): row batch size (Fig. 5
sweeps 4 KB .. 128 MB, sweet spot 4 MB), broadcast-join threshold (Spark
default 10 MB) and partitions per core (Spark tuning guide: 1-4).

A :class:`Config` is attached to an :class:`~repro.engine.context.EngineContext`
and consulted by every layer; tests construct small configs, benchmarks use
paper-shaped ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any

KB = 1024
MB = 1024 * KB


def _default_scheduler_mode() -> str:
    """``REPRO_SCHEDULER_MODE`` lets CI run the whole suite under either
    execution mode (the tier-1 matrix) without touching every test."""
    return os.environ.get("REPRO_SCHEDULER_MODE", "sequential")


@dataclass
class Config:
    """Engine-wide tunables.

    Attributes
    ----------
    default_parallelism:
        Number of partitions used when an operation does not specify one.
    row_batch_size:
        Capacity in bytes of one row batch inside an indexed partition
        (paper default: 4 MB; Fig. 5 shows the read/write sweet spot there).
    max_row_size:
        Upper bound on one encoded row (paper: 1 KB). Enforced by the codec.
    broadcast_threshold:
        Estimated size in bytes under which a join side is broadcast rather
        than shuffled (Spark's ``autoBroadcastJoinThreshold``, 10 MB).
    shuffle_partitions:
        Number of reduce-side partitions for shuffles (Spark default 200 is
        scaled down for simulated clusters).
    max_task_retries:
        Attempts per task before the job is failed. Retries back off
        exponentially (``task_retry_backoff`` doubling per attempt, capped
        at ``task_retry_backoff_max``) and draw from a shared per-stage
        attempt budget (``stage_attempt_budget``) so correlated failures
        fail the stage promptly instead of spinning blind resubmits.
    partitions_per_core:
        Rule-of-thumb multiplier when deriving parallelism from a cluster.
    scheduler_mode:
        How the task scheduler executes a stage's tasks: ``"sequential"``
        runs them one by one in the driver thread (deterministic, the
        original behaviour); ``"threads"`` launches them concurrently onto
        a thread pool bounded by the topology's executor slots. Both modes
        run in the one driver process and produce identical results
        (DESIGN.md §13 records why there is no process runtime).
    max_concurrent_tasks:
        Upper bound on concurrently running tasks in ``"threads"`` mode.
        0 (the default) derives the bound from the topology:
        ``sum(cores * partitions_per_core)`` over alive executors, capped
        at 32 threads.
    executor_replacement:
        When True, a killed executor re-registers (fresh, empty block
        store) after ``executor_restart_delay_tasks`` further task
        launches — the cluster heals instead of shrinking forever. The
        scheduler's placement and pool-width logic pick the replacement up
        live (both consult the alive set on every decision).
    executor_memory_bytes:
        Per-executor byte budget for cached blocks (DESIGN.md §10). 0 (the
        default) disables metering entirely — the block store is unbounded,
        the pre-PR-4 behaviour. Under a budget, an over-limit put degrades
        through tiers: sealed indexed row batches **spill** to
        ``spill_dir``, then whole blocks are **evicted** by
        ``eviction_policy`` (re-requests rebuild them from lineage), and
        only when neither frees enough does the put raise a *retryable*
        :class:`~repro.engine.memory_manager.MemoryPressureError` — which
        the task scheduler treats like any transient task failure (backoff,
        blacklisting, per-stage attempt budget).
    spill_dir:
        Directory for spilled row-batch files (None: the system temp dir).
        Files are removed when their batch is garbage-collected, when a
        post-fault-in write invalidates them, and on block-store clears.
    eviction_policy:
        ``"lru"`` evicts the least-recently-accessed block first;
        ``"cost"`` evicts the lowest value density first — the advisor's
        recompute cost x expected reuse per byte (DESIGN.md §17) — and
        breaks ties by LRU.
    """

    default_parallelism: int = 8
    row_batch_size: int = 64 * KB
    max_row_size: int = KB
    broadcast_threshold: int = 10 * MB
    shuffle_partitions: int = 8
    max_task_retries: int = 4
    partitions_per_core: int = 2
    scheduler_mode: str = field(default_factory=_default_scheduler_mode)
    max_concurrent_tasks: int = 0
    #: Small-job heuristic (the fig01 fix): a stage with at most this many
    #: tasks runs inline in the caller's thread even in "threads" mode —
    #: tiny jobs stop paying pool dispatch overhead. 0 disables.
    small_stage_inline_threshold: int = 2
    #: Inline a stage whose lineage-estimated record count is at most this
    #: (broadcast probes of a handful of keys, tiny collects). 0 disables
    #: the row-based half of the heuristic.
    small_stage_inline_rows: int = 128
    #: Distinct keys a partition's index holds in its delta, a dict write
    #: buffer, before sealing them into a fresh immutable array base
    #: (DESIGN.md §15): a batch that brings the delta to this many goes
    #: straight to a new base, and so does the first batch into an empty
    #: index, whatever its size. 0 never seals: the delta is then the
    #: paper's cTrie, and the whole index.
    ordered_index_compact_threshold: int = 512
    #: Seconds of backoff before a task's first retry; doubles per attempt.
    task_retry_backoff: float = 0.005
    #: Upper bound on one retry's backoff sleep.
    task_retry_backoff_max: float = 0.25
    #: Total retry attempts a single stage run may consume across all its
    #: tasks; 0 derives ``max(4, num_tasks) * max_task_retries``.
    stage_attempt_budget: int = 0
    #: Heal the cluster: killed executors come back after a delay.
    executor_replacement: bool = False
    #: Task launches between an executor's death and its replacement
    #: registering (a deterministic stand-in for restart wall-clock time).
    executor_restart_delay_tasks: int = 8
    #: Per-executor cached-block budget in bytes; 0 = unbounded (no metering).
    executor_memory_bytes: int = 0
    #: Where spilled row batches live (None: the system temp directory).
    spill_dir: "str | None" = None
    #: Block eviction order under memory pressure: "lru" | "cost"
    #: (DESIGN.md §17: the advisor ranks blocks by recompute-cost x
    #: expected-reuse per byte and sheds the lowest value density first).
    eviction_policy: str = "lru"
    #: Cost-based cache advisor (DESIGN.md §17). ``auto_cache`` turns on the
    #: *active* half: recurring ``session.sql`` results whose value density
    #: clears ``advisor_score_threshold`` are transparently persisted, and
    #: the lowest-value of those auto-cached results are dropped again when
    #: the worst executor's fullness exceeds ``advisor_shed_pressure`` — a
    #: user's own ``.cache()`` is never revoked. Per-query statistics are
    #: collected only while this is on; per-block ones (measured compute
    #: cost, access recurrence) always, for ``eviction_policy="cost"``.
    auto_cache: bool = False
    #: Value-density admission bar, in (seconds x expected reuses) per MB
    #: held. 0.0 is "always-cache" mode (every recurring fingerprint is
    #: materialized on sight) — the baseline the advisor is benchmarked
    #: against.
    advisor_score_threshold: float = 0.05
    #: Memory fullness fraction above which the advisor auto-evicts.
    advisor_shed_pressure: float = 0.9
    #: Enable the span tracer (query/stage/task/operator spans + Chrome
    #: trace export). Off by default: the disabled fast path is a single
    #: attribute check per instrumented site (no allocation, no clock read).
    tracing_enabled: bool = False
    #: Run full-table filters, projections and partial aggregates over
    #: indexed data as column kernels on per-task views of the row batches
    #: (DESIGN.md §18). False is the paper-faithful row-only Indexed
    #: DataFrame — every scanned row is decoded and handled one at a time —
    #: which the Fig. 8 / Fig. 13 reproductions run on. Read when a scan
    #: executes, so the same plan serves both settings.
    indexed_column_kernels: bool = True
    #: Entries in the session's normalized-SQL plan cache (DESIGN.md §11);
    #: 0 disables plan caching (every query re-parses and re-plans).
    plan_cache_capacity: int = 256

    def with_overrides(self, **kwargs: Any) -> "Config":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> "Config":
        """Reject out-of-range or inconsistent settings with a clear error.

        Called by :class:`~repro.engine.context.EngineContext` on
        construction, so a typo'd ``advisor_shed_pressure = 9`` fails
        loudly instead of silently misbehaving deep inside a layer. Chaos
        knobs live on :class:`~repro.cluster.faults.FaultInjector`, which
        checks its own. Returns self so call sites can chain.
        """
        problems: list[str] = []
        enums = (
            ("scheduler_mode", ("sequential", "threads")),
            ("eviction_policy", ("lru", "cost")),
        )
        for name, allowed in enums:
            value = getattr(self, name)
            if value not in allowed:
                problems.append(f"{name} must be one of {allowed}, got {value!r}")
        # Advisor knobs (DESIGN.md §17), all reported together like the rest.
        if (
            not isinstance(self.advisor_score_threshold, (int, float))
            or self.advisor_score_threshold < 0
        ):
            problems.append(
                "advisor_score_threshold must be >= 0, "
                f"got {self.advisor_score_threshold!r}"
            )
        if (
            not isinstance(self.advisor_shed_pressure, (int, float))
            or not 0.0 <= self.advisor_shed_pressure <= 1.0
        ):
            problems.append(
                "advisor_shed_pressure must be in [0.0, 1.0], "
                f"got {self.advisor_shed_pressure!r}"
            )
        positive = (
            "default_parallelism",
            "row_batch_size",
            "max_row_size",
            "shuffle_partitions",
            "partitions_per_core",
        )
        for name in positive:
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                problems.append(f"{name} must be a positive int, got {value!r}")
        threshold = self.ordered_index_compact_threshold
        if not isinstance(threshold, int) or threshold < 0:
            problems.append(
                "ordered_index_compact_threshold must be an int >= 0 "
                f"(0 never seals), got {threshold!r}"
            )
        if problems:
            raise ValueError("invalid Config: " + "; ".join(problems))
        return self


#: Paper-shaped defaults: 4 MB batches, as used in all evaluation sections.
PAPER_DEFAULTS = Config(row_batch_size=4 * MB)
