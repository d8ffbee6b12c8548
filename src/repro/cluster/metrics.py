"""Task accounting and simulated-makespan computation.

Every task that runs in-process reports a :class:`TaskMetrics`: measured
compute seconds, bytes shuffled in/out, and where it ran. The
:class:`MetricsCollector` folds each one into the metrics registry and keeps
nothing else — the engine holds no per-task history. A caller that wants a
set of jobs *modelled* opens :meth:`MetricsCollector.capture` around them
and gets their task list; the makespan model is a function of such a list:
it list-schedules the measured (NUMA-adjusted) task times onto the
topology's core slots and adds modeled transfer time for remote shuffle
fetches. This is how a single-process run produces Fig. 4 / Fig. 6-shaped
cluster numbers.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.cluster.network import NetworkModel
from repro.cluster.numa import NUMAModel
from repro.cluster.topology import ClusterTopology
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer


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
    phases: dict[str, float] = field(default_factory=dict)


#: The recovery-event taxonomy (DESIGN.md §8). Everything the runtime does
#: to survive a failure is counted by kind, so a Fig. 12-style run can report
#: *what* recovery cost — not just total wall clock. Kept equal to the set of
#: kinds ``src/`` actually records by an ``ast`` pass in ``tests/test_cluster.py``.
RECOVERY_EVENT_KINDS = (
    "executor_lost",         # an executor died (manual, chaos, or scheduled)
    "executor_replaced",     # a replacement registered (fresh block store)
    "task_retry",            # a task attempt failed retryably and backed off
    "task_blacklist",        # a retry was moved off an executor that failed it
    "stage_budget_exhausted",  # a stage burned its shared retry budget
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
    "advisor_auto_evict",    # the advisor dropped a result it had auto-cached
    "shard_lost",            # a serve shard died (manual, chaos, or missed heartbeats)
    "shard_failover",        # a routed query moved to a replica mid-flight
    "shard_repaired",        # replication restored by copying from a live replica
    "shard_recovered",       # a dead shard restarted and re-pinned its partitions
    "chaos_shard_kill",      # injected shard crash (kill-one-shard scenario)
    "chaos_spill_corruption",  # injected damage to a spill file on write
    "corrupt_block_quarantined",  # checksum mismatch: block dropped everywhere
    "corrupt_block_rebuilt",  # quarantined block rebuilt from lineage
    "scrub_corruption_found",  # background scrubber caught a bad pinned batch
    "scrub_corruption_repaired",  # scrubber restored a verified copy
)


class MetricsCollector:
    """Thread-safe sink for task metrics and recovery events, plus the
    makespan model over a captured task list. Both kinds of record land in
    the registry; a recovery event's detail goes on a ``recovery`` span when
    tracing is on."""

    def __init__(
        self,
        topology: ClusterTopology,
        network: NetworkModel | None = None,
        numa: NUMAModel | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.topology = topology
        self.network = network or NetworkModel()
        self.numa = numa or NUMAModel()
        #: The one metrics plane (DESIGN.md §9); the engine context passes
        #: its shared registry and tracer, standalone collectors get their own.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._lock = threading.Lock()
        #: Task lists of the currently open :meth:`capture` scopes.
        self._captures: list[list[TaskMetrics]] = []

    def record(self, metrics: TaskMetrics) -> None:
        if self._captures:
            with self._lock:
                for tasks in self._captures:
                    tasks.append(metrics)
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

    @contextmanager
    def capture(self) -> Iterator[list[TaskMetrics]]:
        """Collect the :class:`TaskMetrics` of every task recorded while the
        scope is open — the input of the makespan model below. Scopes may
        nest or overlap; each gets every task recorded during its own span.
        """
        tasks: list[TaskMetrics] = []
        with self._lock:
            self._captures.append(tasks)
        try:
            yield tasks
        finally:
            with self._lock:
                # By identity: list.remove compares by value, and two empty
                # captures are equal.
                self._captures[:] = [t for t in self._captures if t is not tasks]

    def record_recovery(
        self,
        kind: str,
        job_index: int = -1,
        stage_id: int | None = None,
        partition: int | None = None,
        executor_id: str | None = None,
        seconds: float = 0.0,
        detail: str = "",
    ) -> None:
        """Count one recovery action by kind (and its cost, when it has one);
        with tracing on, record it as a zero-length ``recovery`` span under
        the current span."""
        self.registry.inc("recovery_events_total", kind=kind)
        if seconds > 0:
            self.registry.inc("recovery_cost_seconds_total", seconds, kind=kind)
        if self.tracer.enabled:
            self.tracer.start_span(
                kind, kind="recovery", job_index=job_index, stage_id=stage_id,
                partition=partition, executor_id=executor_id, seconds=seconds, detail=detail,
            ).end()

    def reset(self) -> None:
        self.registry.reset()

    # ------------------------------------------------------------------ model

    def simulated_task_seconds(self, task: TaskMetrics) -> float:
        """NUMA-adjusted compute time + modeled remote shuffle fetch time."""
        executor = self.topology.executor(task.executor_id)
        compute = task.compute_seconds * self.numa.task_time_factor(executor, self.topology)
        fetch = 0.0
        if task.shuffle_bytes_read_remote:
            fetch = self.network.transfer_time(task.shuffle_bytes_read_remote, cross_machine=True)
        if task.shuffle_bytes_read_local:
            fetch += self.network.transfer_time(task.shuffle_bytes_read_local, cross_machine=False)
        return compute + fetch

    def stage_makespan(self, tasks: "list[TaskMetrics]") -> float:
        """List-schedule one stage's tasks (longest first) onto core slots."""
        return lpt_makespan(
            [self.simulated_task_seconds(t) for t in tasks],
            self.topology.total_cores,
        )

    def job_makespan(self, tasks: "list[TaskMetrics]") -> float:
        """Sum of stage makespans (stages separated by shuffle barriers)."""
        return sum(self.stage_makespan(stage) for stage in _by_stage(tasks).values())

    @staticmethod
    def stage_task_times(tasks: "list[TaskMetrics]") -> dict[int, list[float]]:
        """Raw measured compute seconds per stage (for what-if simulations
        that re-schedule one captured task set under other topologies)."""
        return {
            sid: [t.compute_seconds for t in stage]
            for sid, stage in _by_stage(tasks).items()
        }

    def summary(self, tasks: "list[TaskMetrics]") -> dict[str, float]:
        """Totals of a captured task list plus its simulated makespan."""
        return {
            "stages": float(len(_by_stage(tasks))),
            "tasks": float(len(tasks)),
            "compute_seconds": sum(t.compute_seconds for t in tasks),
            "shuffle_bytes_written": float(sum(t.shuffle_bytes_written for t in tasks)),
            "shuffle_bytes_read_remote": float(
                sum(t.shuffle_bytes_read_remote for t in tasks)
            ),
            "simulated_makespan": self.job_makespan(tasks),
        }


def _by_stage(tasks: "list[TaskMetrics]") -> dict[int, list[TaskMetrics]]:
    stages: dict[int, list[TaskMetrics]] = {}
    for task in tasks:
        stages.setdefault(task.stage_id, []).append(task)
    return stages
