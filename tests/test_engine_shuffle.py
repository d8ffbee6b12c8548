"""ShuffleManager internals: registration, combining, loss, fetch accounting."""

import gc

import pytest

from repro.config import Config
from repro.engine.context import EngineContext
from repro.engine.dependencies import MapSideCombiner, ShuffleDependency
from repro.engine.partition import TaskContext
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import FetchFailedError
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, Schema
from tests.conftest import MODES


@pytest.fixture()
def ctx():
    return EngineContext(config=Config(default_parallelism=2, shuffle_partitions=2))


def _ctx_for(ctx, executor_id=None):
    executor_id = executor_id or ctx.alive_executor_ids()[0]
    return TaskContext(stage_id=0, partition_index=0, attempt=0, executor_id=executor_id)


def _dep(ctx, n=2, combiner=None):
    source = ctx.parallelize([], 1)
    return ShuffleDependency(source, HashPartitioner(n), combiner=combiner)


class TestRegistration:
    def test_register_and_missing(self, ctx):
        dep = _dep(ctx)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 3)
        assert sm.is_registered(dep.shuffle_id)
        assert sm.missing_maps(dep.shuffle_id) == [0, 1, 2]

    def test_register_idempotent(self, ctx):
        dep = _dep(ctx)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 2)
        tctx = _ctx_for(ctx)
        sm.write_map_output(dep, 0, iter([(1, "a")]), tctx)
        sm.register_shuffle(dep.shuffle_id, 2)  # must not wipe outputs
        assert sm.missing_maps(dep.shuffle_id) == [1]

    def test_missing_unknown_shuffle_raises(self, ctx):
        with pytest.raises(KeyError):
            ctx.shuffle_manager.missing_maps(99999)

    def test_unregister(self, ctx):
        dep = _dep(ctx)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 1)
        sm.unregister_shuffle(dep.shuffle_id)
        assert not sm.is_registered(dep.shuffle_id)


class TestMapWriteAndFetch:
    def test_records_partitioned_correctly(self, ctx):
        dep = _dep(ctx, n=2)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 1)
        records = [(k, k * 10) for k in range(20)]
        sm.write_map_output(dep, 0, iter(records), _ctx_for(ctx))
        part = dep.partitioner
        for reduce_id in (0, 1):
            got = list(sm.fetch(dep.shuffle_id, reduce_id, _ctx_for(ctx)))
            assert got == [r for r in records if part.partition(r[0]) == reduce_id]

    def test_write_records_bytes(self, ctx):
        dep = _dep(ctx)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 1)
        tctx = _ctx_for(ctx)
        # Distinct payloads: pickle memoizes repeated identical objects, so
        # identical strings would (correctly) serialize tiny.
        sm.write_map_output(
            dep, 0, iter([(k, f"payload-{k:04d}" * 10) for k in range(50)]), tctx
        )
        assert tctx.shuffle_bytes_written > 1000

    def test_fetch_unregistered_raises(self, ctx):
        with pytest.raises(FetchFailedError):
            list(ctx.shuffle_manager.fetch(424242, 0, _ctx_for(ctx)))

    def test_fetch_missing_map_raises_with_map_id(self, ctx):
        dep = _dep(ctx)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 2)
        sm.write_map_output(dep, 0, iter([(1, 1)]), _ctx_for(ctx))
        with pytest.raises(FetchFailedError) as exc:
            list(sm.fetch(dep.shuffle_id, 0, _ctx_for(ctx)))
        assert exc.value.map_id == 1

    def test_fetch_accounts_remote_vs_same_executor(self, ctx):
        dep = _dep(ctx, n=1)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 1)
        writer = ctx.alive_executor_ids()[0]
        sm.write_map_output(dep, 0, iter([(0, "v" * 200)] * 10), _ctx_for(ctx, writer))
        # Same executor: free.
        same = _ctx_for(ctx, writer)
        list(sm.fetch(dep.shuffle_id, 0, same))
        assert same.shuffle_bytes_read_remote == 0
        assert same.shuffle_bytes_read_local == 0
        # Different machine: remote bytes.
        other = next(
            e for e in ctx.alive_executor_ids()
            if not ctx.topology.same_machine(e, writer)
        )
        remote = _ctx_for(ctx, other)
        list(sm.fetch(dep.shuffle_id, 0, remote))
        assert remote.shuffle_bytes_read_remote > 0


class TestMapSideCombiner:
    def test_combiner_reduces_map_output(self, ctx):
        combiner = MapSideCombiner(create=lambda v: v, merge_value=lambda a, b: a + b)
        dep = _dep(ctx, n=1, combiner=combiner)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 1)
        records = [(k % 3, 1) for k in range(300)]
        sm.write_map_output(dep, 0, iter(records), _ctx_for(ctx))
        got = sorted(sm.fetch(dep.shuffle_id, 0, _ctx_for(ctx)))
        assert got == [(0, 100), (1, 100), (2, 100)]  # pre-aggregated


class TestExecutorLoss:
    def test_loss_clears_only_that_executors_outputs(self, ctx):
        dep = _dep(ctx)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 2)
        e1, e2 = ctx.alive_executor_ids()[:2]
        sm.write_map_output(dep, 0, iter([(1, 1)]), _ctx_for(ctx, e1))
        sm.write_map_output(dep, 1, iter([(2, 2)]), _ctx_for(ctx, e2))
        affected = sm.on_executor_lost(e1)
        assert dep.shuffle_id in affected
        assert sm.missing_maps(dep.shuffle_id) == [0]

    def test_loss_of_uninvolved_executor_noop(self, ctx):
        dep = _dep(ctx)
        sm = ctx.shuffle_manager
        sm.register_shuffle(dep.shuffle_id, 1)
        e1 = ctx.alive_executor_ids()[0]
        other = ctx.alive_executor_ids()[1]
        sm.write_map_output(dep, 0, iter([(1, 1)]), _ctx_for(ctx, e1))
        assert sm.on_executor_lost(other) == []
        assert sm.missing_maps(dep.shuffle_id) == []


class TestShuffleRelease:
    """Map outputs live as long as their ShuffleDependency, not the context."""

    def test_collected_dependency_unregisters_its_shuffle(self, ctx):
        shuffled = ctx.parallelize([(i % 3, i) for i in range(30)], 2).partition_by(
            HashPartitioner(2)
        )
        shuffle_id = shuffled.dependencies[0].shuffle_id
        assert len(shuffled.collect()) == 30
        assert shuffle_id in ctx.shuffle_manager.registered_shuffles()
        del shuffled
        gc.collect()
        assert shuffle_id not in ctx.shuffle_manager.registered_shuffles()

    @pytest.mark.parametrize("mode", MODES)
    def test_finished_queries_release_their_shuffles(self, mode):
        """Repeated group-bys and shuffled indexed joins leave a constant
        number of registered shuffles; the index's build shuffle survives
        with its cached RDD and still drives lineage recovery."""
        session = Session(config=Config(
            default_parallelism=4, shuffle_partitions=4, scheduler_mode=mode,
            broadcast_threshold=0,  # shuffle the probe side, never broadcast
        ))
        edge = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))
        rows = [(i % 40, i, float(i)) for i in range(400)]
        idf = session.create_dataframe(rows, edge, "edges").create_index("src").cache_index()
        idf.create_or_replace_temp_view("edges")
        probe_keys = list(range(0, 40, 4))
        probe = session.create_dataframe(
            [(k,) for k in probe_keys], Schema.of(("src", LONG)), "probe"
        )
        group_by = "SELECT dst, count(*) FROM edges GROUP BY dst"
        want_join = sorted((k,) + r for r in rows for k in probe_keys if r[0] == k)
        sm = session.context.shuffle_manager

        def registered_after(repeats: int) -> list[int]:
            for _ in range(repeats):
                assert len(session.sql(group_by).collect_tuples()) == len(rows)
                joined = probe.join(idf.to_df(), on=("src", "src")).collect_tuples()
                assert sorted(joined) == want_join
            gc.collect()
            return sm.registered_shuffles()

        after_20 = registered_after(20)
        after_200 = registered_after(200)
        assert len(after_200) == len(after_20) <= 4
        build_shuffle = idf.rdd.shuffle_dep.shuffle_id
        assert build_shuffle in after_200

        # The build shuffle's map outputs are what lineage rebuilds from.
        ctx = session.context
        ctx.kill_executor(ctx.alive_executor_ids()[0])
        assert sorted(idf.to_df().collect_tuples()) == sorted(rows)
        assert build_shuffle in sm.registered_shuffles()
