"""EngineContext: the driver (``SparkContext`` analogue).

Wires together the simulated cluster (topology + cost models + faults) and
the runtime (executors, shuffle manager, block managers, DAG/task
schedulers), and exposes the entry points ``parallelize`` / ``run_job``.
"""

from __future__ import annotations

import gc
import threading
from typing import Any, Callable, Iterator

from repro.advisor.advisor import CacheAdvisor
from repro.cluster.faults import FaultInjector
from repro.cluster.metrics import MetricsCollector
from repro.cluster.network import NetworkModel
from repro.cluster.numa import NUMAModel
from repro.cluster.topology import ClusterTopology, private_cluster
from repro.config import Config
from repro.integrity import CorruptBlockError, value_contains_corruption
from repro.engine.block_manager import BlockManagerMaster, CacheManager
from repro.engine.dag import DAGScheduler
from repro.engine.executor import ExecutorRuntime
from repro.engine.partition import TaskContext
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.engine.scheduler import TaskScheduler
from repro.engine.shuffle import ShuffleManager
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer

#: Gen-1 passes between full garbage collections (CPython's default: 10). A
#: scan that materialises 10^5 result tuples triggers a full pass every few
#: queries, each walking every long-lived object to find nothing. The index
#: is no longer most of those (sealed into arrays, DESIGN.md §15), but the
#: on/off row still reads 5 % of `analytic_scan` throughput: DESIGN.md §8.
#: Process-wide, like the integrity switch.
FULL_GC_EVERY = 30


class EngineContext:
    """Driver for one simulated cluster application.

    Parameters
    ----------
    config:
        Engine tunables; ``Config()`` defaults suit tests.
    topology:
        Cluster deployment; defaults to the paper's best private-cluster
        configuration (Fig. 4: 4 machines x 4 pinned executors x 4 cores).
    network / numa:
        Cost models feeding the simulated makespan.
    """

    def __init__(
        self,
        config: Config | None = None,
        topology: ClusterTopology | None = None,
        network: NetworkModel | None = None,
        numa: NUMAModel | None = None,
    ) -> None:
        self.config = (config or Config()).validate()
        gc.set_threshold(*gc.get_threshold()[:2], FULL_GC_EVERY)
        self.topology = topology or private_cluster()
        self.network = network or NetworkModel()
        self.numa = numa or NUMAModel()
        #: The observability spine (DESIGN.md §9): one registry + tracer per
        #: context, shared by schedulers, shuffle, cache and fault layers.
        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=self.config.tracing_enabled)
        self.metrics = MetricsCollector(
            self.topology, self.network, self.numa, registry=self.registry
        )
        self.faults = FaultInjector(
            seed=self.config.chaos_seed,
            task_failure_prob=self.config.chaos_task_failure_prob,
            fetch_failure_prob=self.config.chaos_fetch_failure_prob,
            straggler_prob=self.config.chaos_straggler_prob,
            straggler_delay=self.config.chaos_straggler_delay,
            memory_squeeze_prob=self.config.chaos_memory_squeeze_prob,
            memory_squeeze_factor=self.config.chaos_memory_squeeze_factor,
            serve_rejection_prob=self.config.chaos_serve_rejection_prob,
            corrupt_spill_prob=self.config.chaos_corrupt_spill_prob,
        )
        #: Cost-based cache advisor (DESIGN.md §17): passively accumulates
        #: recurrence + measured compute cost from every layer; actively
        #: auto-caches/auto-evicts only when ``Config.auto_cache`` is set.
        #: Created before the executors so memory managers can consult it.
        self.advisor = CacheAdvisor(self)
        self.executors: dict[str, ExecutorRuntime] = {
            spec.executor_id: ExecutorRuntime(self, spec) for spec in self.topology.executors
        }
        self.shuffle_manager = ShuffleManager(self)
        self.block_manager_master = BlockManagerMaster()
        self.cache_manager = CacheManager(self)
        self.dag_scheduler = DAGScheduler(self)
        self.task_scheduler = TaskScheduler(self)
        self._rdd_id = 0
        self._job_index = 0
        self._lock = threading.Lock()
        #: Serializes whole-job execution. The DAG scheduler (like Spark's,
        #: which runs on a single event loop) is not re-entrant: stage-id
        #: allocation and shuffle-stage registration assume one job in
        #: flight. Query-serving worker threads and the concurrent ingest
        #: loop both drive jobs, so ``run_job`` takes this RLock — tasks
        #: *within* a job still fan out across the thread pool; only job
        #: submission itself is serialized (the snapshot-pinned lookup fast
        #: path exists precisely to keep point reads off this lock).
        self.job_lock = threading.RLock()
        #: rdd_id -> how many jobs referenced it through their lineage —
        #: the DAG half of the advisor's expected-reuse signal
        #: (``block_scores``). Forgotten when the RDD is unpersisted.
        self._lineage_refs: dict[int, int] = {}
        #: executor_id -> task launches remaining until its replacement
        #: registers (executor_replacement healing).
        self._pending_restarts: dict[str, int] = {}

    # -- ids -------------------------------------------------------------------------

    def new_rdd_id(self) -> int:
        with self._lock:
            self._rdd_id += 1
            return self._rdd_id

    @property
    def job_index(self) -> int:
        return self._job_index

    # -- executor management ----------------------------------------------------------

    def executor_runtime(self, executor_id: str, allow_dead: bool = False) -> ExecutorRuntime:
        runtime = self.executors.get(executor_id)
        if runtime is None:
            if allow_dead:
                return None  # type: ignore[return-value]
            raise KeyError(executor_id)
        if not runtime.alive and not allow_dead:
            raise RuntimeError(f"executor {executor_id} is dead")
        return runtime

    def alive_executor_ids(self) -> list[str]:
        return [r.executor_id for r in self.executors.values() if r.alive]

    def kill_executor(self, executor_id: str, reason: str = "manual") -> None:
        """Simulate executor loss: blocks and map outputs disappear (Fig. 12).

        Emits an ``executor_lost`` recovery event; with
        ``Config.executor_replacement`` enabled, schedules a replacement
        after ``executor_restart_delay_tasks`` further task launches.
        """
        runtime = self.executors[executor_id]
        runtime.kill()
        lost_blocks = self.block_manager_master.remove_executor(executor_id)
        affected = self.shuffle_manager.on_executor_lost(executor_id)
        self.metrics.record_recovery(
            "executor_lost",
            job_index=self._job_index,
            executor_id=executor_id,
            detail=(
                f"reason={reason} blocks_lost={len(lost_blocks)} "
                f"shuffles_affected={len(affected)}"
            ),
        )
        if self.config.executor_replacement:
            with self._lock:
                self._pending_restarts[executor_id] = max(
                    0, self.config.executor_restart_delay_tasks
                )

    def invalidate_block(self, block_id: tuple[int, int]) -> None:
        """Drop a cached block everywhere (e.g. a *stale* indexed partition
        whose version number no longer matches — Section III-D)."""
        for runtime in self.executors.values():
            runtime.block_manager.remove(block_id)
        self.block_manager_master.remove_rdd_block(block_id)

    def quarantine_corrupt(
        self,
        exc: CorruptBlockError,
        job_index: int = -1,
        stage_id: "int | None" = None,
        partition: "int | None" = None,
        executor_id: "str | None" = None,
    ) -> int:
        """Drop every cached block referencing the corrupt bytes, everywhere.

        MVCC versions share batch objects, so a single damaged batch can
        back several cached blocks; all of them are
        removed from every executor and marked corrupt in the master —
        the retry's cache miss then rebuilds them from lineage
        (``corruption_repaired_total{how="lineage_rebuild"}`` attribution
        happens in the cache manager when the rebuild lands). Returns the
        number of blocks quarantined.
        """
        matched: set[tuple[int, int]] = set()
        for runtime in self.executors.values():
            manager = runtime.block_manager
            for block_id in manager.block_ids():
                value = manager.get(block_id)
                if value is not None and value_contains_corruption(value, exc):
                    matched.add(block_id)
        for block_id in matched:
            for runtime in self.executors.values():
                runtime.block_manager.remove(block_id)
            self.block_manager_master.mark_corrupt(block_id)
        self.metrics.record_recovery(
            "corrupt_block_quarantined",
            job_index=job_index if job_index >= 0 else self._job_index,
            stage_id=stage_id,
            partition=partition,
            executor_id=executor_id,
            detail=f"where={exc.where} blocks={sorted(matched)}",
        )
        return len(matched)

    def spill_corruption_hook(self, executor_id: "str | None" = None):
        """Chaos hook for spill writes (``Config.chaos_corrupt_spill_prob``):
        ``MemoryManager.spill_partition`` hands it to every batch it spills
        — reactive memory pressure and proactive ``spill_index`` alike — so
        files are damaged under the one seeded injector. None when the knob
        is off."""
        if self.faults.corrupt_spill_prob <= 0:
            return None

        def hook(path: str) -> "str | None":
            mode = self.faults.on_spill_write()
            if mode:
                self.metrics.record_recovery(
                    "chaos_spill_corruption",
                    executor_id=executor_id,
                    detail=f"mode={mode} path={path}",
                )
            return mode

        return hook

    def restart_executor(self, executor_id: str) -> None:
        """Bring a previously killed executor back (fresh, empty block store).

        The scheduler's placement and pool-width logic consult the alive
        set on every decision, so the replacement is picked up live.
        """
        spec = self.topology.executor(executor_id)
        self.executors[executor_id] = ExecutorRuntime(self, spec)
        with self._lock:
            self._pending_restarts.pop(executor_id, None)
        self.metrics.record_recovery(
            "executor_replaced", job_index=self._job_index, executor_id=executor_id
        )

    def note_task_launch(self) -> None:
        """Tick replacement timers; restart executors whose delay elapsed."""
        if not self._pending_restarts:
            return
        due: list[str] = []
        with self._lock:
            for executor_id in list(self._pending_restarts):
                self._pending_restarts[executor_id] -= 1
                if self._pending_restarts[executor_id] <= 0:
                    due.append(executor_id)
                    del self._pending_restarts[executor_id]
        for executor_id in due:
            if not self.executors[executor_id].alive:
                self.restart_executor(executor_id)

    def revive_for_empty_cluster(self) -> str | None:
        """Emergency heal: with *zero* alive executors, promote the pending
        replacement with the shortest remaining delay immediately (a task
        cannot launch — and tick the timers — on an empty cluster)."""
        with self._lock:
            if not self._pending_restarts:
                return None
            executor_id = min(self._pending_restarts, key=self._pending_restarts.get)
            del self._pending_restarts[executor_id]
        if not self.executors[executor_id].alive:
            self.restart_executor(executor_id)
        return executor_id

    # -- job entry points ---------------------------------------------------------------

    def parallelize(self, data: list[Any], num_partitions: int | None = None) -> RDD:
        n = num_partitions or self.config.default_parallelism
        return ParallelCollectionRDD(self, list(data), n)

    def lineage_ref_counts(self) -> dict[int, int]:
        """Snapshot of per-RDD lineage reference counts (eviction policy input)."""
        with self._lock:
            return dict(self._lineage_refs)

    def forget_cached_rdd(self, rdd_id: int) -> None:
        """``RDD.unpersist`` bookkeeping: drop everything kept per cached
        RDD id — block locations, lineage references, advisor statistics —
        so none of it outlives the caching it describes."""
        with self._lock:
            self._lineage_refs.pop(rdd_id, None)
        self.advisor.forget_rdd(rdd_id)
        self.block_manager_master.remove_rdd(rdd_id)

    def _note_lineage_refs(self, rdd: RDD) -> None:
        """Walk the job's lineage; count a reference for every cached RDD.

        This is what makes cost eviction *lineage-aware*: a cached RDD that
        many jobs' DAGs flow through accumulates references and is kept; one
        no job has touched in a while stays cheap to evict.
        """
        seen: set[int] = set()
        stack: list[RDD] = [rdd]
        counted: list[int] = []
        while stack:
            node = stack.pop()
            if node.rdd_id in seen:
                continue
            seen.add(node.rdd_id)
            if node.cached:
                counted.append(node.rdd_id)
            stack.extend(dep.rdd for dep in node.dependencies)
        with self._lock:
            for rdd_id in counted:
                self._lineage_refs[rdd_id] = self._lineage_refs.get(rdd_id, 0) + 1

    def run_job(
        self,
        rdd: RDD,
        func: Callable[[Iterator[Any], TaskContext], Any],
        partitions: list[int] | None = None,
    ) -> list[Any]:
        with self.job_lock:
            self._note_lineage_refs(rdd)
            with self._lock:
                self._job_index += 1
                job = self._job_index
            # Fault injection happens at job boundaries ("kill executor during
            # the run of query N"), matching the paper's manual kill.
            for victim in self.faults.check(job):
                if victim in self.executors and self.executors[victim].alive:
                    self.kill_executor(victim, reason="scheduled")
            return self.dag_scheduler.run_job(rdd, func, partitions, job_index=job)

    # -- serving hooks ------------------------------------------------------------------

    def memory_pressure(self) -> float:
        """Worst-case block-store fullness across alive executors, in [0, 1].

        0.0 when no executor is metered (``executor_memory_bytes == 0``).
        The query server's admission control sheds load above a threshold
        of this value — backpressure *before* a query starts, complementing
        the task-level :class:`MemoryPressureError` retries that protect
        queries already running.
        """
        worst = 0.0
        for runtime in self.executors.values():
            if not runtime.alive:
                continue
            memory = runtime.block_manager.memory
            if memory is None or memory.budget <= 0:
                continue
            worst = max(worst, memory.used_bytes / memory.budget)
        return worst

    # -- convenience ----------------------------------------------------------------------

    def default_partitioner_partitions(self) -> int:
        return self.config.shuffle_partitions

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"EngineContext(topology={self.topology.name}, "
            f"executors={len(self.executors)}, cores={self.topology.total_cores})"
        )
