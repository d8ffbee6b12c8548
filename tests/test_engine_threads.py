"""Parallel stage execution: threads mode vs sequential, under failures.

The tentpole invariants: both scheduler modes produce identical results,
slot accounting never leaks (late tasks keep their locality), task
retries/blacklisting survive the pool, a FetchFailedError cancels in-flight
siblings and still drives the DAG scheduler's lineage recovery, and an
executor ``kill()`` in the middle of a running stage converges.
"""

from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.engine.partition import TaskContext
from repro.engine.partitioner import HashPartitioner
from repro.engine.scheduler import TaskFailure
from repro.sql.session import Session
from tests.conftest import EDGE_SCHEMA, make_edges


def make_context(mode: str, **overrides) -> EngineContext:
    cfg = dict(
        default_parallelism=8,
        shuffle_partitions=8,
        scheduler_mode=mode,
        row_batch_size=8192,
    )
    cfg.update(overrides)
    return EngineContext(config=Config(**cfg), topology=private_cluster(num_machines=2))


class TestModeEquivalence:
    def test_shuffle_job_identical_across_modes(self):
        data = [(i % 13, i) for i in range(2000)]
        results = {}
        for mode in ("sequential", "threads"):
            ctx = make_context(mode)
            rdd = ctx.parallelize(data, 8).reduce_by_key(lambda a, b: a + b)
            results[mode] = sorted(rdd.collect())
        assert results["sequential"] == results["threads"]

    def test_indexed_join_identical_across_modes(self):
        edges = make_edges(n=1500, keys=60)
        results = {}
        for mode in ("sequential", "threads"):
            session = Session(
                config=Config(
                    default_parallelism=4,
                    shuffle_partitions=4,
                    scheduler_mode=mode,
                    row_batch_size=8192,
                )
            )
            df = session.create_dataframe(edges, EDGE_SCHEMA, "edges")
            idf = df.create_index("src").cache_index()
            probe = session.create_dataframe(
                [(k,) for k in range(0, 60, 3)],
                EDGE_SCHEMA.select(["src"]),
                "probe",
            )
            joined = probe.join(idf.to_df(), on=("src", "src"))
            results[mode] = sorted(joined.collect_tuples())
        assert results["sequential"] == results["threads"]
        assert results["threads"]  # non-trivial join output

    def test_chained_shuffles_threads(self):
        ctx = make_context("threads")
        rdd = (
            ctx.parallelize([(i % 7, 1) for i in range(700)], 8)
            .reduce_by_key(lambda a, b: a + b)
            .map(lambda kv: (kv[1], kv[0]))
            .reduce_by_key(lambda a, b: a + b)
        )
        assert dict(rdd.collect()) == {100: sum(range(7))}

    def test_unknown_mode_rejected(self):
        # Config.validate() rejects the mode at construction, before any
        # job could run against a half-built context.
        with pytest.raises(ValueError, match="scheduler_mode"):
            make_context("fibers")


def test_engine_is_one_process():
    """Both scheduler modes run in the driver process: nothing under
    src/repro may import ``multiprocessing`` (DESIGN.md §13)."""
    import repro

    offenders = []
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "multiprocessing" for n in names):
                offenders.append(f"{path}:{node.lineno}")
    assert offenders == []


class TestConcurrencyStress:
    def test_flaky_tasks_and_kill_mid_stage(self):
        """Shuffle-heavy job under injected task failures plus an executor
        killed by a running task: results must equal sequential mode and
        lineage recovery must converge — deterministically."""
        data = [(i % 17, i) for i in range(3000)]
        expected = sorted(
            EngineContext(config=Config(default_parallelism=8, shuffle_partitions=8))
            .parallelize(data, 8)
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )

        ctx = make_context("threads")
        state = {"fails": 0, "killed": False}
        lock = threading.Lock()

        def flaky(kv):
            with lock:
                if kv[1] % 997 == 0 and state["fails"] < 3:
                    state["fails"] += 1
                    raise OSError("transient task failure")
            return kv

        # Build the shuffle once so some executor owns map outputs.
        src = ctx.parallelize(data, 8).map(flaky)
        shuffled = src.partition_by(HashPartitioner(8))
        first = sorted(shuffled.reduce_by_key(lambda a, b: a + b).collect())
        assert first == expected
        assert state["fails"] == 3  # retries actually exercised

        # Now a reduce-side job whose first-running task kills a producer
        # executor mid-stage: in-flight siblings hit FetchFailedError /
        # dead-executor errors, the stage cancels, and the DAG scheduler
        # recomputes the lost map outputs from lineage.
        producers = {
            out.executor_id
            for slots in ctx.shuffle_manager._outputs.values()
            for out in slots
            if out is not None
        }

        def kill_once(kv):
            with lock:
                if not state["killed"]:
                    state["killed"] = True
                    victim = sorted(producers)[0]
                    if ctx.executors[victim].alive:
                        ctx.kill_executor(victim)
            return kv

        recovered = sorted(
            shuffled.map(kill_once).reduce_by_key(lambda a, b: a + b).collect()
        )
        assert recovered == expected
        assert state["killed"]

    def test_fetch_failure_recovery_threads(self):
        ctx = make_context("threads")
        shuffled = ctx.parallelize([(i % 5, i) for i in range(500)], 8).partition_by(
            HashPartitioner(8)
        )
        assert len(shuffled.collect()) == 500
        victims = list(ctx.alive_executor_ids())[:-1]
        for v in victims:
            ctx.kill_executor(v)
        assert sorted(shuffled.collect()) == sorted((i % 5, i) for i in range(500))

    def test_permanent_failure_cancels_and_raises(self):
        ctx = make_context("threads", max_task_retries=1)

        def bad(x):
            raise ValueError("always broken")

        with pytest.raises(TaskFailure):
            ctx.parallelize(range(64), 8).map(bad).collect()
        # The pool drained: every acquired slot was released.
        assert ctx.task_scheduler.busy == {}

    def test_flaky_task_retried_threads(self):
        ctx = make_context("threads")
        state = {"n": 0}
        lock = threading.Lock()

        def flaky(x):
            with lock:
                if x == 7 and state["n"] < 2:
                    state["n"] += 1
                    raise OSError("transient")
            return x

        assert sorted(ctx.parallelize(range(100), 8).map(flaky).collect()) == list(range(100))
        assert state["n"] == 2


class TestSlotAccounting:
    def test_busy_slot_leak_fixed_sequential(self):
        """Slots are released on task completion, so *every* task of a large
        stage over a cached RDD keeps PROCESS_LOCAL placement. Before the
        fix, busy[] only grew and late partitions degraded to ANY — the
        stale-copy hazard the paper's version numbers exist to catch."""
        topo = private_cluster(
            num_machines=1, executors_per_machine=1, cores_per_executor=2
        )
        ctx = EngineContext(
            config=Config(
                default_parallelism=16,
                shuffle_partitions=4,
                partitions_per_core=2,  # capacity 4 < 16 partitions
            ),
            topology=topo,
        )
        rdd = ctx.parallelize(range(160), 16).persist()
        rdd.collect()  # materialize blocks on the only executor
        rdd.collect()  # re-run: every task should see a free local slot
        placements = ctx.task_scheduler.last_placements
        assert len(placements) == 16
        assert all(lvl == "PROCESS_LOCAL" for _e, lvl in placements)

    def test_placements_coherent_under_pool(self):
        ctx = make_context("threads")
        rdd = ctx.parallelize(range(400), 16).persist()
        rdd.collect()
        rdd.collect()
        scheduler = ctx.task_scheduler
        placements = scheduler.last_placements
        # One placement per launched attempt; no failures here, so exactly
        # one per partition, every executor real and every level legal.
        assert len(placements) == 16
        valid = set(ctx.executors)
        assert all(e in valid for e, _lvl in placements)
        assert all(lvl in ("PROCESS_LOCAL", "NODE_LOCAL", "ANY") for _e, lvl in placements)
        # All slots drained after the stage.
        assert scheduler.busy == {}

    def test_pool_width_derivation(self):
        ctx = make_context("threads")
        derived = ctx.task_scheduler.max_concurrent_tasks()
        assert 1 <= derived <= 32
        ctx_explicit = make_context("threads", max_concurrent_tasks=3)
        assert ctx_explicit.task_scheduler.max_concurrent_tasks() == 3

    def test_slots_released_after_failure_sequential(self):
        ctx = make_context("sequential", max_task_retries=1)

        def bad(x):
            raise ValueError("broken")

        with pytest.raises(TaskFailure):
            ctx.parallelize(range(8), 4).map(bad).collect()
        assert ctx.task_scheduler.busy == {}


class TestShuffleRecovery:
    def test_wholly_unregistered_shuffle_recovers(self):
        """A shuffle dropped from the registry entirely (FetchFailedError
        with map_id == -1) is re-registered and recomputed on retry instead
        of escaping run_job as a bare KeyError."""
        for mode in ("sequential", "threads"):
            ctx = make_context(mode)
            shuffled = ctx.parallelize([(i % 3, i) for i in range(300)], 8).partition_by(
                HashPartitioner(8)
            )
            assert len(shuffled.collect()) == 300
            dep = shuffled.dependencies[0]
            ctx.shuffle_manager.unregister_shuffle(dep.shuffle_id)
            assert sorted(shuffled.collect()) == sorted((i % 3, i) for i in range(300))

    def test_map_output_dropped_when_shuffle_unregistered_mid_write(self):
        """write_map_output for a concurrently unregistered shuffle drops
        the bucket instead of raising KeyError inside a task."""
        ctx = make_context("sequential")
        shuffled = ctx.parallelize([(i % 2, i) for i in range(100)], 4).partition_by(
            HashPartitioner(4)
        )
        dep = shuffled.dependencies[0]
        shuffled.collect()
        ctx.shuffle_manager.unregister_shuffle(dep.shuffle_id)
        # Next run re-registers and recomputes; results intact.
        assert len(shuffled.collect()) == 100


class TestSmallJobInline:
    """The small-job heuristic: tiny stages skip the pool in threads mode."""

    def test_small_jobs_inline_large_jobs_pool(self):
        session = Session(config=Config(
            scheduler_mode="threads", default_parallelism=4, shuffle_partitions=4,
            small_stage_inline_threshold=2, small_stage_inline_rows=64,
        ))
        ctx = session.context
        # 2 partitions <= threshold: inline on the driver thread.
        assert ctx.parallelize(range(10), 2).map(lambda x: x + 1).collect()
        by_path = ctx.registry.counter_by_label("tasks_dispatched_total", "path")
        assert by_path.get("inline", 0) == 2 and not by_path.get("pooled")
        # 4 partitions with no row estimate: the thread pool.
        assert ctx.parallelize(range(5000), 4).map(lambda x: x + 1).collect()
        by_path = ctx.registry.counter_by_label("tasks_dispatched_total", "path")
        assert by_path.get("pooled", 0) == 4

    def test_records_hint_inlines_broadcast_probe(self):
        session = Session(config=Config(
            scheduler_mode="threads", default_parallelism=4, shuffle_partitions=4,
            small_stage_inline_threshold=0, small_stage_inline_rows=64,
        ))
        ctx = session.context
        rdd = ctx.parallelize(range(4000), 4).map(lambda x: x)
        assert rdd.estimated_records() == 4000
        assert rdd.with_estimated_records(12).estimated_records() == 12
        rdd.collect()
        by_path = ctx.registry.counter_by_label("tasks_dispatched_total", "path")
        assert by_path.get("inline", 0) == 4  # hinted below the row threshold


class TestComputeLocks:
    """``CacheManager`` keeps a block's compute lock only while a task holds
    or waits for it: it neither grows with every block ever cached nor lets
    two tasks compute one block at once."""

    @pytest.mark.parametrize("mode", ["sequential", "threads"])
    def test_locks_return_to_their_starting_count(self, mode):
        ctx = make_context(mode, default_parallelism=2)
        locks = ctx.cache_manager._compute_locks
        start = len(locks)
        for i in range(200):
            rdd = ctx.parallelize([i, i + 1, i + 2], 2).map(lambda x: x * 2).persist()
            assert rdd.collect() == [2 * i, 2 * i + 2, 2 * i + 4]
            assert rdd.collect() == [2 * i, 2 * i + 2, 2 * i + 4]  # a cache hit
            rdd.unpersist()
        assert len(locks) == start

    def test_one_block_is_computed_once_by_concurrent_tasks(self):
        ctx = make_context("sequential", default_parallelism=1)
        locks = ctx.cache_manager._compute_locks
        computing, release, computed = threading.Event(), threading.Event(), []

        def slow(it):
            computed.append(1)
            computing.set()
            release.wait(5)
            return it

        rdd = ctx.parallelize([1, 2, 3], 1).map_partitions(slow).persist()
        task = TaskContext(stage_id=0, partition_index=0, attempt=0,
                           executor_id=ctx.alive_executor_ids()[0])
        results = []
        threads = [threading.Thread(target=lambda: results.append(list(rdd.iterator(0, task))))
                   for _ in range(2)]
        threads[0].start()
        assert computing.wait(5)
        threads[1].start()
        deadline = time.monotonic() + 5
        while locks[rdd.rdd_id, 0][1] < 2 and time.monotonic() < deadline:
            time.sleep(0.001)  # the second task waits on the held lock, which stays
        assert locks[rdd.rdd_id, 0][1] == 2
        release.set()
        for thread in threads:
            thread.join(5)
        assert results == [[1, 2, 3], [1, 2, 3]]
        assert len(computed) == 1
        assert locks == {}

    def test_lock_counts_survive_a_thread_storm(self):
        """Eight threads, four blocks, thread switches every microsecond: each
        block is computed once and every count returns to zero."""
        ctx = make_context("sequential", default_parallelism=4)
        computed = []
        rdd = ctx.parallelize(list(range(40)), 4).map_partitions(
            lambda it: computed.append(1) or it
        ).persist()
        executor = ctx.alive_executor_ids()[0]
        counts = []

        def read(split):
            task = TaskContext(stage_id=0, partition_index=split, attempt=0, executor_id=executor)
            for _ in range(50):
                counts.append(len(list(rdd.iterator(split, task))))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i % 4,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert counts == [10] * 400
        assert len(computed) == 4
        assert ctx.cache_manager._compute_locks == {}
