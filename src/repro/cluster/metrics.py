"""Task accounting and the simulated-makespan model.

Every task that runs in-process reports a :class:`TaskMetrics`: measured
compute seconds, bytes shuffled in/out, and where it ran. The
:class:`MetricsCollector` folds each one into the metrics registry and keeps
nothing else — the engine holds no per-task history. A caller that wants a
set of jobs *modelled* opens :meth:`MetricsCollector.capture` around them
and gets their task list; :func:`makespan` turns such a list and a topology
into cluster time: it list-schedules the measured (NUMA-adjusted) task times
onto the topology's core slots and adds modeled transfer time for the
shuffle bytes each task fetched. The same list evaluated under other
topologies is how a single-process run produces Fig. 4 / Fig. 6-shaped
cluster numbers (DESIGN.md §6).
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
    """Longest-processing-time list schedule of ``durations`` onto ``slots``."""
    if not durations:
        return 0.0
    loads = [0.0] * max(1, slots)
    for d in sorted(durations, reverse=True):
        i = min(range(len(loads)), key=loads.__getitem__)
        loads[i] += d
    return max(loads)


def makespan(
    tasks: "list[TaskMetrics]",
    topology: ClusterTopology,
    network: NetworkModel,
    numa: NUMAModel,
) -> float:
    """Simulated seconds for the captured ``tasks`` to run on ``topology``.

    One rule for every topology, the one the tasks ran on included, so a
    task list re-scheduled under other deployments differs only by the model:

    * a task's compute time is scaled by the topology's NUMA factor (its
      executors' factors, weighted by their cores);
    * of the shuffle bytes a task fetched from other executors, (m − 1)/m
      cross machines on an m-machine topology (latency + bytes / bandwidth)
      and the rest are copied within one;
    * each stage is list-scheduled longest first onto ``total_cores``, and
      the stages, separated by shuffle barriers, are summed.
    """
    slots = topology.total_cores
    factor = sum(numa.task_time_factor(ex, topology) * ex.cores for ex in topology.executors) / slots
    machines = topology.num_machines
    stages: dict[int, list[float]] = {}
    for task in tasks:
        seconds = task.compute_seconds * factor
        fetched = task.shuffle_bytes_read_local + task.shuffle_bytes_read_remote
        local = fetched / machines
        if fetched - local:
            seconds += network.transfer_time(fetched - local, cross_machine=True)
        if local:
            seconds += network.transfer_time(local, cross_machine=False)
        stages.setdefault(task.stage_id, []).append(seconds)
    return sum(lpt_makespan(durations, slots) for durations in stages.values())


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
    makespan model of a captured task list under its own cost models. Both kinds of record land in
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

    def job_makespan(
        self, tasks: "list[TaskMetrics]", topology: ClusterTopology | None = None
    ) -> float:
        """:func:`makespan` of ``tasks`` under ``topology`` (default: this
        collector's own) with this collector's network and NUMA models."""
        return makespan(tasks, topology or self.topology, self.network, self.numa)
