"""Chaos-hardened recovery: mid-stage faults, healing, events.

The recovery subsystem under test (DESIGN.md §8):

* chaos layer — seeded mid-stage executor kills, transient task failures,
  stragglers and flaky fetches (:class:`repro.cluster.faults.FaultInjector`);
* healing — killed executors re-register after a configurable delay and the
  scheduler picks the replacement up live;
* retry backoff + per-stage attempt budget instead of blind resubmits;
* the paper's version-number staleness guard exercised through recovery;
* every recovery action counted by kind in the registry and, with tracing
  on, recorded as a ``recovery`` span carrying its detail, so a Fig.
  12-style run can attribute *what* recovery cost.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.engine.dag import JobFailedError
from repro.engine.partition import TaskContext
from repro.engine.partitioner import HashPartitioner
from repro.engine.scheduler import NoAliveExecutorsError, TaskFailure
from repro.engine.shuffle import FetchFailedError
from repro.engine.task import ResultStage
from repro.sql.session import Session
from tests.conftest import EDGE_SCHEMA, MODES, make_edges, recovery_counts, recovery_spans


def make_context(mode: str, **overrides) -> EngineContext:
    cfg = dict(
        default_parallelism=8,
        shuffle_partitions=8,
        scheduler_mode=mode,
        row_batch_size=8192,
        task_retry_backoff=0.001,
        task_retry_backoff_max=0.01,
    )
    cfg.update(overrides)
    return EngineContext(config=Config(**cfg), topology=private_cluster(num_machines=2))


# ---------------------------------------------------------------------------
# Chaos layer: determinism and convergence
# ---------------------------------------------------------------------------


class TestChaosDeterminism:
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_chaos_soup_converges_across_seeds(self, mode, seed):
        """Transient task failures + stragglers + flaky fetches, all at
        once: every seed and both modes must converge to correct results
        with no hang."""
        data = [(i % 11, i) for i in range(1500)]
        expected = sorted(
            make_context("sequential").parallelize(data, 8).reduce_by_key(lambda a, b: a + b).collect()
        )
        ctx = make_context(
            mode,
            chaos_seed=seed,
            chaos_task_failure_prob=0.15,
            chaos_straggler_prob=0.1,
            chaos_straggler_delay=0.005,
            chaos_fetch_failure_prob=0.04,
        )
        shuffled = ctx.parallelize(data, 8).reduce_by_key(lambda a, b: a + b)
        for _ in range(3):
            assert sorted(shuffled.collect()) == expected
        assert ctx.task_scheduler.busy == {}

    def test_same_seed_same_injections_sequential(self):
        """Chaos draws are keyed by (seed, decision site), so an identical
        sequential workload reproduces the identical fault schedule."""

        def run() -> tuple[list, dict]:
            ctx = make_context(
                "sequential",
                chaos_seed=42,
                chaos_task_failure_prob=0.25,
                chaos_fetch_failure_prob=0.05,
            )
            shuffled = ctx.parallelize([(i % 7, i) for i in range(700)], 8).reduce_by_key(
                lambda a, b: a + b
            )
            results = [sorted(shuffled.collect()) for _ in range(2)]
            return results, recovery_counts(ctx)

        (res_a, sum_a), (res_b, sum_b) = run(), run()
        assert res_a == res_b
        assert sum_a == sum_b
        assert sum_a.get("chaos_task_failure", 0) + sum_a.get("chaos_fetch_failure", 0) > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_transient_chaos_failures_are_retried(self, mode):
        ctx = make_context(mode, chaos_seed=5, chaos_task_failure_prob=0.3)
        got = sorted(ctx.parallelize(range(200), 8).map(lambda x: x * 2).collect())
        assert got == [x * 2 for x in range(200)]
        summary = recovery_counts(ctx)
        assert summary.get("chaos_task_failure", 0) >= 1
        assert summary.get("task_retry", 0) >= summary.get("chaos_task_failure", 0)

    @pytest.mark.parametrize("mode", MODES)
    def test_flaky_fetch_drives_cheap_resubmit(self, mode):
        """A chaos fetch failure leaves the map output intact: the DAG
        scheduler's retry recomputes nothing and just re-runs the reduce."""
        ctx = make_context(mode, chaos_seed=11, chaos_fetch_failure_prob=0.08)
        data = [(i % 5, i) for i in range(400)]
        shuffled = ctx.parallelize(data, 8).partition_by(HashPartitioner(8))
        for _ in range(4):
            assert sorted(shuffled.collect()) == sorted(data)
        summary = recovery_counts(ctx)
        assert summary.get("chaos_fetch_failure", 0) >= 1
        assert summary.get("stage_resubmit", 0) >= 1

    def test_mid_stage_kill_via_task_counter(self):
        """fail_executor_at_task kills while the stage is in flight; the
        run still converges and the kill is attributed to the job."""
        ctx = make_context("threads", tracing_enabled=True)
        data = [(i % 9, i) for i in range(900)]
        shuffled = ctx.parallelize(data, 8).partition_by(HashPartitioner(8))
        assert sorted(shuffled.collect()) == sorted(data)  # materialize maps
        victim = ctx.alive_executor_ids()[0]
        ctx.faults.fail_executor_at_task(victim, ctx.faults.task_launches + 3)
        assert sorted(shuffled.collect()) == sorted(data)
        assert not ctx.executors[victim].alive
        assert any(e == victim for _j, e in ctx.faults.killed)
        lost = recovery_spans(ctx, "executor_lost")
        assert any(e.attrs["executor_id"] == victim and "chaos" in e.attrs["detail"] for e in lost)


# ---------------------------------------------------------------------------
# Concurrent failure semantics (threads mode)
# ---------------------------------------------------------------------------


class TestConcurrentFailure:
    def test_fetch_failure_supersedes_collateral_errors(self):
        """When a stage sees both a FetchFailedError and ordinary task
        errors, the fetch failure must win: the DAG scheduler can recover
        from it, while a TaskFailure would kill the job."""
        ctx = make_context("threads", max_task_retries=0, task_retry_backoff=0.0)
        rdd = ctx.parallelize(range(8), 8)

        def func(it, tctx: TaskContext):
            if tctx.partition_index == 0:
                time.sleep(0.05)
                raise FetchFailedError(999, 1)
            if tctx.partition_index == 1:
                raise ValueError("collateral damage")
            return list(it)

        stage = ResultStage(stage_id=9999, rdd=rdd, parents=[], func=func)
        with pytest.raises(FetchFailedError):
            ctx.task_scheduler.run_stage(stage, list(range(8)), job_index=1)
        assert ctx.task_scheduler.busy == {}  # no slot leaks after the abort

    def test_kill_mid_flight_matches_sequential_and_leaks_nothing(self):
        """Kill a map-output producer *while* a threads-mode reduce stage is
        in flight: results must be byte-identical to sequential mode, the
        fetch-failure path must drive recovery, and no busy slots leak."""
        data = [(i % 13, i) for i in range(2600)]
        sequential = sorted(
            make_context("sequential")
            .parallelize(data, 8)
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )

        ctx = make_context("threads")
        shuffled = ctx.parallelize(data, 8).partition_by(HashPartitioner(8))
        assert len(shuffled.collect()) == len(data)  # materialize map outputs
        producers = sorted(
            {
                out.executor_id
                for slots in ctx.shuffle_manager._outputs.values()
                for out in slots
                if out is not None
            }
        )
        victim = producers[0]
        ctx.faults.fail_executor_at_task(victim, ctx.faults.task_launches + 2)
        got = sorted(shuffled.reduce_by_key(lambda a, b: a + b).collect())
        assert got == sequential
        assert ctx.task_scheduler.busy == {}
        summary = recovery_counts(ctx)
        assert summary.get("executor_lost", 0) >= 1
        # FetchFailedError superseded any collateral dead-executor errors:
        # the job recovered (no job_failed event) via stage resubmission.
        assert summary.get("fetch_failed", 0) >= 1
        assert summary.get("job_failed", 0) == 0


# ---------------------------------------------------------------------------
# Healing: executor replacement
# ---------------------------------------------------------------------------


class TestExecutorReplacement:
    @pytest.mark.parametrize("mode", MODES)
    def test_killed_executor_returns_after_delay(self, mode):
        ctx = make_context(
            mode, executor_replacement=True, executor_restart_delay_tasks=4, tracing_enabled=True
        )
        data = list(range(800))
        rdd = ctx.parallelize(data, 8)
        assert sorted(rdd.collect()) == data
        victim = ctx.alive_executor_ids()[0]
        ctx.kill_executor(victim)
        assert victim not in ctx.alive_executor_ids()
        assert sorted(rdd.collect()) == data  # >= 8 launches tick the timer
        assert victim in ctx.alive_executor_ids()
        replaced = recovery_spans(ctx, "executor_replaced")
        assert any(e.attrs["executor_id"] == victim for e in replaced)
        # The replacement came back with a fresh, empty block store.
        assert ctx.executors[victim].block_manager.block_ids() == []

    @pytest.mark.parametrize("mode", MODES)
    def test_replacement_picked_up_by_placement(self, mode):
        ctx = make_context(
            mode, executor_replacement=True, executor_restart_delay_tasks=2
        )
        rdd = ctx.parallelize(range(400), 8)
        rdd.collect()
        victim = ctx.alive_executor_ids()[0]
        ctx.kill_executor(victim)
        rdd.collect()  # replacement registers during this job
        placed: set[str] = set()
        for _ in range(4):  # round-robin ANY placement reaches every executor
            rdd.collect()
            placed |= {e for e, _lvl in ctx.task_scheduler.last_placements}
        assert victim in placed

    def test_all_dead_with_pending_replacement_heals(self):
        """Zero alive executors but a replacement pending: the scheduler
        promotes it immediately instead of failing the job."""
        ctx = make_context(
            "sequential", executor_replacement=True, executor_restart_delay_tasks=50
        )
        for e in list(ctx.alive_executor_ids()):
            ctx.kill_executor(e)
        assert ctx.alive_executor_ids() == []
        assert sorted(ctx.parallelize(range(40), 4).collect()) == list(range(40))
        assert len(ctx.alive_executor_ids()) >= 1


class TestAllExecutorsDead:
    @pytest.mark.parametrize("mode", MODES)
    def test_fails_fast_with_clear_error(self, mode):
        ctx = make_context(mode)
        for e in list(ctx.alive_executor_ids()):
            ctx.kill_executor(e)
        with pytest.raises(NoAliveExecutorsError):
            ctx.parallelize(range(8), 4).collect()
        # The error is a JobFailedError (clear, non-retryable) and keeps
        # backwards compatibility with RuntimeError expectations.
        assert issubclass(NoAliveExecutorsError, JobFailedError)
        assert issubclass(NoAliveExecutorsError, RuntimeError)
        # No retries were spun against the empty cluster.
        assert recovery_counts(ctx).get("task_retry", 0) == 0
        assert ctx.task_scheduler.busy == {}


# ---------------------------------------------------------------------------
# Retry backoff and the per-stage attempt budget
# ---------------------------------------------------------------------------


class TestRetryBudget:
    @pytest.mark.parametrize("mode", MODES)
    def test_stage_budget_bounds_correlated_failures(self, mode):
        ctx = make_context(
            mode, max_task_retries=4, stage_attempt_budget=2, task_retry_backoff=0.001
        )

        def bad(x):
            raise ValueError("always broken")

        with pytest.raises(TaskFailure):
            ctx.parallelize(range(64), 8).map(bad).collect()
        summary = recovery_counts(ctx)
        assert summary.get("stage_budget_exhausted", 0) >= 1
        # Only the budgeted retries ran, not 8 tasks x 4 retries.
        assert summary.get("task_retry", 0) == 2
        assert ctx.task_scheduler.busy == {}

    def test_retries_back_off_exponentially(self):
        ctx = make_context(
            "sequential", task_retry_backoff=0.01, task_retry_backoff_max=0.5,
            tracing_enabled=True,
        )
        state = {"n": 0}

        def flaky(x):
            if x == 0 and state["n"] < 3:
                state["n"] += 1
                raise OSError("transient")
            return x

        t0 = time.perf_counter()
        assert sorted(ctx.parallelize(range(8), 4).map(flaky).collect()) == list(range(8))
        elapsed = time.perf_counter() - t0
        retries = recovery_spans(ctx, "task_retry")
        assert [e.attrs["seconds"] for e in retries] == [0.01, 0.02, 0.04]
        assert elapsed >= 0.07  # the backoffs were actually slept


# ---------------------------------------------------------------------------
# Shuffle edge cases
# ---------------------------------------------------------------------------


class TestShuffleEdgeCases:
    @pytest.mark.parametrize("mode", MODES)
    def test_zero_map_shuffle_fetches_empty(self, mode):
        """A registered shuffle with zero maps has nothing to fetch — that
        is an empty result, not a FetchFailedError loop ending in
        JobFailedError after 8 stage attempts."""
        ctx = make_context(mode)
        ctx.shuffle_manager.register_shuffle(777, 0)
        tctx = TaskContext(
            stage_id=1,
            partition_index=0,
            attempt=0,
            executor_id=ctx.alive_executor_ids()[0],
            job_index=1,
        )
        assert list(ctx.shuffle_manager.fetch(777, 0, tctx)) == []
        assert ctx.shuffle_manager.missing_maps(777) == []
        assert recovery_counts(ctx).get("fetch_failed", 0) == 0

    def test_unregistered_shuffle_still_fails(self):
        ctx = make_context("sequential")
        tctx = TaskContext(
            stage_id=1,
            partition_index=0,
            attempt=0,
            executor_id=ctx.alive_executor_ids()[0],
            job_index=1,
        )
        with pytest.raises(FetchFailedError) as excinfo:
            next(ctx.shuffle_manager.fetch(31337, 0, tctx))
        assert excinfo.value.map_id == -1
        assert recovery_counts(ctx).get("fetch_failed", 0) == 1


# ---------------------------------------------------------------------------
# Staleness guard through recovery (Section III-D)
# ---------------------------------------------------------------------------


class TestStalenessGuard:
    def test_stale_replayed_copy_detected_and_rebuilt(self):
        """Plant a stale (pre-append) replayed partition where the current
        version's block should be: the version guard must refuse it, rebuild
        from lineage + replay log, and log the recovery event — never serve
        stale rows."""
        session = Session(
            config=Config(
                default_parallelism=4,
                shuffle_partitions=4,
                row_batch_size=4096,
                tracing_enabled=True,
            )
        )
        rows = make_edges(n=400, keys=40)
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        idf = df.create_index("src").cache_index()
        idf2 = idf.append_rows([(7, 999, 9.9)]).cache_index()
        ctx = session.context
        assert idf2.version == idf.version + 1

        # Replay a stale copy: overwrite every cached v1 block with the v0
        # partition object for the same split (a "replayed copy" predating
        # the append).
        planted = 0
        for split in range(idf2.num_partitions):
            stale = None
            for runtime in ctx.executors.values():
                block = runtime.block_manager.get((idf.rdd.rdd_id, split))
                if block is not None:
                    stale = block
                    break
            if stale is None:
                continue
            for runtime in ctx.executors.values():
                if runtime.block_manager.contains((idf2.rdd.rdd_id, split)):
                    runtime.block_manager.put((idf2.rdd.rdd_id, split), stale)
                    planted += 1
        assert planted > 0

        expected = sorted([r for r in rows if r[0] == 7] + [(7, 999, 9.9)])
        assert sorted(idf2.lookup_tuples(7)) == expected  # appended row served
        events = recovery_spans(ctx, "stale_partition_rebuilt")
        assert events, "the stale copy must be detected, not served"
        assert all("stale_version=0" in e.attrs["detail"] for e in events)
        assert all(e.attrs["job_index"] > 0 for e in events)  # attributed to the query

    def test_recomputed_partition_carries_current_version(self):
        """Recovery after executor loss rebuilds indexed partitions at the
        *current* version number."""
        session = Session(
            config=Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
        )
        rows = make_edges(n=300, keys=30)
        idf = (
            session.create_dataframe(rows, EDGE_SCHEMA, "edges")
            .create_index("src")
            .cache_index()
            .append_rows([(3, 111, 1.1)])
            .cache_index()
        )
        ctx = session.context
        for e in list(ctx.alive_executor_ids())[:-1]:
            ctx.kill_executor(e)

        def read_version(it, _ctx):
            return next(iter(it)).version

        assert ctx.run_job(idf.rdd, read_version) == [1] * idf.num_partitions


# ---------------------------------------------------------------------------
# Fig. 12-style chaos run (the acceptance scenario)
# ---------------------------------------------------------------------------


class TestFig12ChaosRun:
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 17])
    def test_200_queries_survive_mid_query_kill_with_replacement(self, seed):
        """Executor killed mid-query under scheduler_mode="threads" with
        replacement enabled: all 200 queries complete correctly, the
        recovery-event log attributes the index-recreation cost to the
        in-flight query, and the cluster heals."""
        ctx = EngineContext(
            config=Config(
                default_parallelism=4,
                shuffle_partitions=4,
                row_batch_size=4096,
                scheduler_mode="threads",
                executor_replacement=True,
                executor_restart_delay_tasks=8,
                chaos_seed=seed,
                tracing_enabled=True,
            ),
            topology=private_cluster(num_machines=2, executors_per_machine=2),
        )
        session = Session(context=ctx)
        rows = make_edges(n=1200, keys=48, seed=seed)
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        idf = df.create_index("src").cache_index()
        probe = session.create_dataframe(
            [(k,) for k in range(0, 48, 5)], EDGE_SCHEMA.select(["src"]), "probe"
        )
        joined = probe.join(idf.to_df(), on=("src", "src"))
        expected = sorted(joined.collect_tuples())
        assert expected

        # Kill an executor that owns indexed partitions, mid-task-stream,
        # somewhere inside the 200-query run.
        victim = None
        for split in range(idf.num_partitions):
            locs = ctx.block_manager_master.locations((idf.rdd.rdd_id, split))
            if locs:
                victim = locs[0]
                break
        assert victim is not None
        ctx.faults.fail_executor_at_task(victim, ctx.faults.task_launches + 150)

        job_ranges: list[tuple[int, int]] = []  # per query: (first_job, last_job)
        for _q in range(200):
            start = ctx.job_index + 1
            got = sorted(joined.collect_tuples())
            job_ranges.append((start, ctx.job_index))
            assert got == expected  # every query correct through recovery

        # The kill fired mid-run, inside one query's job range.
        assert ctx.faults.killed, "the scheduled mid-stream kill must fire"
        kill_job = ctx.faults.killed[0][0]

        def query_of(job: int) -> int:
            return next(q for q, (lo, hi) in enumerate(job_ranges) if lo <= job <= hi)

        kill_query = query_of(kill_job)
        assert 0 < kill_query < 199  # genuinely mid-run

        # Recovery observability: the index-recreation cost is attributed to
        # the single query that was in flight when the lost partition was
        # rebuilt (the first one to touch it after the kill — Fig. 12's
        # "query in flight pays ~13 s, the rest run at normal speed"), not
        # smeared over the run.
        rebuilds = recovery_spans(ctx, "block_recomputed")
        assert rebuilds, "lost indexed partitions must be rebuilt"
        paying_queries = {query_of(e.attrs["job_index"]) for e in rebuilds}
        assert len(paying_queries) == 1
        assert 0 <= paying_queries.pop() - kill_query <= 1
        assert sum(e.attrs["seconds"] for e in rebuilds) > 0
        assert ctx.registry.counter_value("recovery_cost_seconds_total", kind="block_recomputed") == (
            pytest.approx(sum(e.attrs["seconds"] for e in rebuilds))
        )

        # The cluster healed: the victim's replacement registered and is
        # alive at the end of the run.
        summary = recovery_counts(ctx)
        assert summary.get("executor_lost", 0) >= 1
        assert summary.get("executor_replaced", 0) >= 1
        assert victim in ctx.alive_executor_ids()
        assert ctx.task_scheduler.busy == {}
