"""Task/stage accounting and simulated-makespan computation.

Every task that runs in-process records a :class:`TaskMetrics`: measured
compute seconds, bytes shuffled in/out, and where it ran. The
:class:`MetricsCollector` aggregates these per stage and converts them into
a *simulated makespan* by list-scheduling the measured (NUMA-adjusted) task
times onto the topology's core slots and adding modeled transfer time for
remote shuffle fetches. This is how a single-process run produces Fig. 4 /
Fig. 6-shaped cluster numbers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cluster.network import NetworkModel
from repro.cluster.numa import NUMAModel
from repro.cluster.topology import ClusterTopology
from repro.obs.registry import MetricsRegistry


def lpt_makespan(durations: "list[float]", slots: int) -> float:
    """Longest-processing-time list schedule of ``durations`` onto ``slots``.

    Shared by the collector's stage model and by what-if deployment
    simulations (Fig. 4/6) that re-schedule one measured task set under
    different topologies.
    """
    if not durations:
        return 0.0
    loads = [0.0] * max(1, slots)
    for d in sorted(durations, reverse=True):
        i = min(range(len(loads)), key=loads.__getitem__)
        loads[i] += d
    return max(loads)


@dataclass
class TaskMetrics:
    """Observables of one task attempt."""

    stage_id: int
    partition: int
    executor_id: str
    compute_seconds: float = 0.0
    shuffle_bytes_read_local: int = 0
    shuffle_bytes_read_remote: int = 0
    shuffle_bytes_written: int = 0
    result_bytes: int = 0
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def shuffle_bytes_read(self) -> int:
        return self.shuffle_bytes_read_local + self.shuffle_bytes_read_remote


@dataclass
class StageMetrics:
    stage_id: int
    tasks: list[TaskMetrics] = field(default_factory=list)

    @property
    def total_compute(self) -> float:
        return sum(t.compute_seconds for t in self.tasks)


#: The recovery-event taxonomy (DESIGN.md §8). Everything the runtime does
#: to survive a failure lands here, so a Fig. 12-style run can report *what*
#: recovery cost — not just total wall clock.
RECOVERY_EVENT_KINDS = (
    "executor_lost",         # an executor died (manual, chaos, or scheduled)
    "executor_replaced",     # a replacement registered (fresh block store)
    "task_retry",            # a task attempt failed retryably and backed off
    "task_blacklist",        # a retry was moved off an executor that failed it
    "stage_budget_exhausted",  # a stage burned its shared retry budget
    "speculative_launch",    # a straggler got a second copy elsewhere
    "speculative_win",       # the copy finished first (original discarded)
    "speculative_loss",      # the original finished first (copy discarded)
    "stage_resubmit",        # DAG scheduler re-ran parents after a fetch failure
    "job_failed",            # a job exhausted its stage attempts
    "fetch_failed",          # a reduce fetch found a map output missing
    "chaos_task_failure",    # injected transient task failure
    "chaos_fetch_failure",   # injected flaky fetch (map output intact)
    "chaos_straggler",       # injected slow task
    "block_recomputed",      # a lost cached block was rebuilt from lineage
    "stale_partition_rebuilt",  # version guard refused a stale indexed copy
    "block_spilled",         # memory pressure moved sealed batches to disk
    "block_evicted",         # memory pressure dropped a whole cached block
    "memory_pressure",       # budget exhausted even after spill + evict
    "chaos_memory_squeeze",  # injected squeeze of an executor's budget
    "shard_lost",            # a serve shard died (manual, chaos, or missed heartbeats)
    "shard_failover",        # a routed query moved to a replica mid-flight
    "shard_repaired",        # replication restored by copying from a live replica
    "shard_recovered",       # a dead shard restarted and re-pinned its partitions
    "hot_partition_replicated",  # popularity sketch promoted a partition R-ways
    "chaos_shard_kill",      # injected shard crash (kill-one-shard scenario)
    "chaos_spill_corruption",  # injected damage to a spill file on write
    "corrupt_block_quarantined",  # checksum mismatch: block dropped everywhere
    "corrupt_block_rebuilt",  # quarantined block rebuilt from lineage
    "scrub_corruption_found",  # background scrubber caught a bad pinned batch
    "scrub_corruption_repaired",  # scrubber restored a verified copy
)


@dataclass
class RecoveryEvent:
    """One structured recovery action (kind ∈ :data:`RECOVERY_EVENT_KINDS`)."""

    kind: str
    job_index: int = -1
    stage_id: int | None = None
    partition: int | None = None
    executor_id: str | None = None
    #: Attributable cost of the action (e.g. a block rebuild), seconds.
    seconds: float = 0.0
    detail: str = ""
    #: Monotonic sequence number assigned by the collector.
    seq: int = 0


class MetricsCollector:
    """Thread-safe sink for task metrics plus the makespan model."""

    def __init__(
        self,
        topology: ClusterTopology,
        network: NetworkModel | None = None,
        numa: NUMAModel | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.topology = topology
        self.network = network or NetworkModel()
        self.numa = numa or NUMAModel()
        #: The unified registry every record also feeds (DESIGN.md §9); the
        #: engine context passes its shared one, standalone collectors get
        #: their own.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self.stages: dict[int, StageMetrics] = {}
        self.job_makespans: list[float] = []
        self.recovery_events: list[RecoveryEvent] = []

    def record(self, metrics: TaskMetrics) -> None:
        with self._lock:
            self.stages.setdefault(metrics.stage_id, StageMetrics(metrics.stage_id)).tasks.append(
                metrics
            )
        reg = self.registry
        reg.inc("tasks_completed_total")
        reg.observe("task_compute_seconds", metrics.compute_seconds)
        if metrics.shuffle_bytes_written:
            reg.inc("shuffle_bytes_written_total", metrics.shuffle_bytes_written)
        if metrics.shuffle_bytes_read_local:
            reg.inc("shuffle_bytes_read_total", metrics.shuffle_bytes_read_local, locality="local")
        if metrics.shuffle_bytes_read_remote:
            reg.inc("shuffle_bytes_read_total", metrics.shuffle_bytes_read_remote, locality="remote")
        for phase, seconds in metrics.phases.items():
            reg.observe("task_phase_seconds", seconds, phase=phase)

    def record_recovery(
        self,
        kind: str,
        job_index: int = -1,
        stage_id: int | None = None,
        partition: int | None = None,
        executor_id: str | None = None,
        seconds: float = 0.0,
        detail: str = "",
    ) -> RecoveryEvent:
        """Append one structured recovery event (thread-safe)."""
        event = RecoveryEvent(
            kind=kind,
            job_index=job_index,
            stage_id=stage_id,
            partition=partition,
            executor_id=executor_id,
            seconds=seconds,
            detail=detail,
        )
        with self._lock:
            event.seq = len(self.recovery_events)
            self.recovery_events.append(event)
        self.registry.inc("recovery_events_total", kind=kind)
        if seconds > 0:
            self.registry.inc("recovery_cost_seconds_total", seconds, kind=kind)
        return event

    def recovery_summary(self) -> dict[str, int]:
        """Event counts by kind (only kinds that occurred)."""
        with self._lock:
            counts: dict[str, int] = {}
            for e in self.recovery_events:
                counts[e.kind] = counts.get(e.kind, 0) + 1
            return counts

    def recovery_events_for_job(self, job_index: int) -> list[RecoveryEvent]:
        with self._lock:
            return [e for e in self.recovery_events if e.job_index == job_index]

    def recovery_cost_seconds(self, job_index: int | None = None) -> float:
        """Total attributable recovery cost (optionally for one job)."""
        with self._lock:
            return sum(
                e.seconds
                for e in self.recovery_events
                if job_index is None or e.job_index == job_index
            )

    def reset(self) -> None:
        with self._lock:
            self.stages.clear()
            self.job_makespans.clear()
            self.recovery_events.clear()
            self.network.reset_counters()
        self.registry.reset()

    # ------------------------------------------------------------------ model

    def simulated_task_seconds(self, task: TaskMetrics) -> float:
        """NUMA-adjusted compute time + modeled remote shuffle fetch time."""
        executor = self.topology.executor(task.executor_id)
        compute = task.compute_seconds * self.numa.task_time_factor(executor, self.topology)
        fetch = 0.0
        if task.shuffle_bytes_read_remote:
            fetch = self.network.latency + task.shuffle_bytes_read_remote / self.network.bandwidth
        if task.shuffle_bytes_read_local:
            fetch += task.shuffle_bytes_read_local / self.network.local_bandwidth
        return compute + fetch

    def stage_makespan(self, stage_id: int) -> float:
        """List-schedule the stage's tasks (longest first) onto core slots."""
        with self._lock:
            stage = self.stages.get(stage_id)
            tasks = list(stage.tasks) if stage is not None else []
        if not tasks:
            return 0.0
        return lpt_makespan(
            [self.simulated_task_seconds(t) for t in tasks],
            self.topology.total_cores,
        )

    def stage_task_times(self) -> dict[int, list[float]]:
        """Raw measured compute seconds per stage (for what-if simulations)."""
        with self._lock:
            return {
                sid: [t.compute_seconds for t in stage.tasks]
                for sid, stage in self.stages.items()
            }

    def job_makespan(self, stage_ids: list[int] | None = None) -> float:
        """Sum of stage makespans (stages separated by shuffle barriers)."""
        if stage_ids is None:
            with self._lock:
                ids = sorted(self.stages)
        else:
            ids = stage_ids
        return sum(self.stage_makespan(s) for s in ids)

    # ------------------------------------------------------------------ reports

    def total_shuffle_bytes(self) -> int:
        with self._lock:
            return sum(
                t.shuffle_bytes_written for s in self.stages.values() for t in s.tasks
            )

    def summary(self) -> dict[str, float]:
        with self._lock:
            num_stages = len(self.stages)
            tasks = [t for s in self.stages.values() for t in s.tasks]
        return {
            "stages": float(num_stages),
            "tasks": float(len(tasks)),
            "compute_seconds": sum(t.compute_seconds for t in tasks),
            "shuffle_bytes_written": float(sum(t.shuffle_bytes_written for t in tasks)),
            "shuffle_bytes_read_remote": float(
                sum(t.shuffle_bytes_read_remote for t in tasks)
            ),
            "simulated_makespan": self.job_makespan(),
        }
