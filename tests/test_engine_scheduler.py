"""DAG/task scheduling: stages, amortization, locality, failure recovery."""

import pytest

from repro.config import Config
from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner
from repro.engine.scheduler import TaskFailure
from repro.engine.shuffle import estimate_size


@pytest.fixture()
def ctx() -> EngineContext:
    return EngineContext(config=Config(default_parallelism=4, shuffle_partitions=4))


class TestStageAmortization:
    def test_shuffle_computed_once_across_jobs(self, ctx):
        """The Fig. 1 amortization mechanism: a shuffle's map stage is
        skipped once its outputs exist — repeated queries over a shuffled
        (indexed) RDD pay the shuffle only once."""
        map_calls = []
        src = ctx.parallelize([(i % 5, i) for i in range(50)], 4).map(
            lambda kv: map_calls.append(kv) or kv
        )
        shuffled = src.partition_by(HashPartitioner(4))
        shuffled.collect()
        first = len(map_calls)
        shuffled.collect()
        shuffled.count()
        assert len(map_calls) == first  # map stage not re-run

    def test_chained_shuffles(self, ctx):
        rdd = (
            ctx.parallelize([(i % 7, 1) for i in range(70)], 4)
            .reduce_by_key(lambda a, b: a + b)
            .map(lambda kv: (kv[1], kv[0]))
            .reduce_by_key(lambda a, b: a + b)
        )
        got = dict(rdd.collect())
        assert got == {10: sum(range(7))}


class TestLocality:
    def test_cached_partition_prefers_its_executor(self, ctx):
        rdd = ctx.parallelize(range(20), 2).cache()
        rdd.collect()
        locs0 = rdd.preferred_locations(0)
        rdd.collect()
        placements = dict(
            (p, (e, lvl)) for (e, lvl), p in zip(ctx.task_scheduler.last_placements, [0, 1])
        )
        e, lvl = placements[0]
        assert lvl == "PROCESS_LOCAL"
        assert e in locs0

    def test_falls_to_any_when_preferred_dead(self, ctx):
        rdd = ctx.parallelize(range(20), 2).cache()
        rdd.collect()
        for executor in {e for e in rdd.preferred_locations(0) + rdd.preferred_locations(1)}:
            ctx.kill_executor(executor)
        assert sorted(rdd.collect()) == list(range(20))


class TestFailureRecovery:
    def test_map_output_loss_triggers_stage_retry(self, ctx):
        shuffled = ctx.parallelize([(i % 4, i) for i in range(40)], 4).partition_by(
            HashPartitioner(4)
        )
        assert len(shuffled.collect()) == 40
        # Kill every executor that produced a map output: all outputs lost.
        victims = list(ctx.alive_executor_ids())[:-1]
        for v in victims:
            ctx.kill_executor(v)
        assert len(shuffled.collect()) == 40  # recomputed via lineage

    def test_all_executors_dead_raises(self, ctx):
        for e in list(ctx.alive_executor_ids()):
            ctx.kill_executor(e)
        with pytest.raises(RuntimeError):
            ctx.parallelize([1], 1).collect()

    def test_flaky_task_retried(self, ctx):
        attempts = {"n": 0}

        def flaky(x):
            if x == 7 and attempts["n"] < 2:
                attempts["n"] += 1
                raise OSError("transient")
            return x

        got = ctx.parallelize(range(10), 2).map(flaky).collect()
        assert got == list(range(10))
        assert attempts["n"] == 2

    def test_permanently_failing_task_fails_job(self, ctx):
        def bad(x):
            raise ValueError("always broken")

        with pytest.raises(TaskFailure):
            ctx.parallelize([1], 1).map(bad).collect()

    def test_restart_executor(self, ctx):
        victim = ctx.alive_executor_ids()[0]
        ctx.kill_executor(victim)
        assert victim not in ctx.alive_executor_ids()
        ctx.restart_executor(victim)
        assert victim in ctx.alive_executor_ids()


class TestFaultInjection:
    def test_scheduled_kill_fires_at_job_boundary(self, ctx):
        rdd = ctx.parallelize(range(10), 2).cache()
        rdd.collect()
        victim = ctx.alive_executor_ids()[0]
        ctx.faults.fail_executor_at_job(victim, ctx.job_index + 1)
        rdd.collect()  # the job that triggers the kill still succeeds
        assert victim not in ctx.alive_executor_ids()
        assert sorted(rdd.collect()) == list(range(10))


class TestShuffleAccounting:
    def test_estimate_size_scales_with_records(self):
        small = estimate_size([(1, 2)] * 10)
        large = estimate_size([(1, 2)] * 1000)
        assert large > small * 50

    def test_estimate_size_empty(self):
        assert estimate_size([]) == 0

    def test_shuffle_bytes_recorded(self, ctx):
        shuffled = ctx.parallelize([(i, "x" * 50) for i in range(200)], 4).partition_by(
            HashPartitioner(4)
        )
        shuffled.collect()
        assert ctx.registry.counter_total("shuffle_bytes_written_total") > 0

    def test_remote_reads_recorded_for_multi_machine(self, ctx):
        shuffled = ctx.parallelize([(i, i) for i in range(100)], 4).partition_by(
            HashPartitioner(4)
        )
        shuffled.collect()
        # With >1 machines in the default fixture, some reads are remote.
        assert ctx.registry.counter_value("shuffle_bytes_read_total", locality="remote") > 0
