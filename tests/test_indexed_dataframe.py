"""IndexedDataFrame public API: create/cache/lookup/append, MVCC, versions,
fault tolerance, staleness guard."""

import random

import pytest

from repro.config import Config
from repro.indexed import IndexedDataFrame
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))


@pytest.fixture()
def session() -> Session:
    return Session(config=Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=8192))


def make_rows(n=1000, keys=100, seed=2) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.randrange(keys), rng.randrange(keys), round(rng.random(), 6)) for _ in range(n)]


@pytest.fixture()
def rows() -> list[tuple]:
    return make_rows()


@pytest.fixture()
def idf(session, rows):
    df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
    return df.create_index("src").cache_index()


class TestCreateIndex:
    def test_via_dataframe_method(self, session, rows):
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        idf = df.create_index("src")
        assert idf.key_column == "src"
        assert idf.version == 0

    def test_missing_column_rejected(self, session, rows):
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        with pytest.raises(KeyError):
            df.create_index("nope")

    def test_one_storage_format(self, session, rows):
        """The row store is the only store: the format knobs are gone, not
        ignored (DESIGN.md §5)."""
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        with pytest.raises(TypeError):
            df.create_index("src", storage_format="columnar")
        with pytest.raises(TypeError):
            Config(index_storage_format="columnar")

    def test_count_matches_source(self, idf, rows):
        assert idf.count() == len(rows)

    def test_collect_returns_all_rows(self, idf, rows):
        assert sorted(tuple(r) for r in idf.collect()) == sorted(rows)

    def test_partitions_respect_hash_placement(self, idf):
        """Every key's rows live on the partition its hash selects."""
        placements = idf.session.context.run_job(
            idf.rdd, lambda it, _ctx: [k for k, _ in next(iter(it)).ordered.items()]
        )
        # keys stored as the raw value for LONG columns
        for pid, trie_keys in enumerate(placements):
            for k in trie_keys:
                assert idf.rdd.partition_for_key(k) == pid

    def test_installs_rules_on_session(self, session, rows):
        from repro.indexed.rules import indexed_strategy

        session.create_dataframe(rows, EDGE_SCHEMA, "e").create_index("src")
        assert indexed_strategy in session.extra_strategies
        # idempotent
        session.create_dataframe(rows, EDGE_SCHEMA, "e2").create_index("src")
        assert session.extra_strategies.count(indexed_strategy) == 1


class TestLookup:
    def test_lookup_matches_reference(self, idf, rows):
        for key in (0, 1, 42, 99):
            expect = [r for r in rows if r[0] == key]
            assert sorted(idf.lookup_tuples(key)) == sorted(expect)

    def test_lookup_missing_key(self, idf):
        assert idf.lookup_tuples(123456) == []

    def test_get_rows_returns_dataframe(self, idf, rows):
        out = idf.get_rows(7)
        expect = [r for r in rows if r[0] == 7]
        assert sorted(tuple(r) for r in out.collect()) == sorted(expect)
        assert out.columns == ["src", "dst", "w"]

    def test_lookup_runs_single_partition_job(self, idf):
        with idf.session.context.metrics.capture() as tasks:
            idf.lookup_tuples(3)
        # One result stage with exactly one task (the owning partition).
        assert len(tasks) == 1


class TestAppend:
    def test_append_creates_new_version(self, idf):
        idf2 = idf.append_rows([(5, 5, 5.0)])
        assert idf2.version == idf.version + 1
        assert idf2 is not idf

    def test_append_visible_in_child_only(self, idf, rows):
        before = len(idf.lookup_tuples(5))
        idf2 = idf.append_rows([(5, 123, 1.0)])
        assert len(idf2.lookup_tuples(5)) == before + 1
        assert len(idf.lookup_tuples(5)) == before

    def test_append_dataframe_argument(self, idf, session):
        extra = session.create_dataframe([(7, 1, 1.0), (8, 2, 2.0)], EDGE_SCHEMA, "x")
        idf2 = idf.append_rows(extra)
        assert idf2.count() == idf.count() + 2

    def test_append_wrong_width_rejected(self, idf):
        with pytest.raises(ValueError):
            idf.append_rows([(1, 2)])

    def test_fine_grained_many_appends(self, idf):
        cur = idf
        for i in range(10):
            cur = cur.append_rows([(1000 + i, i, float(i))])
        assert cur.version == 10
        assert cur.count() == idf.count() + 10
        for i in range(10):
            assert cur.lookup_tuples(1000 + i) == [(1000 + i, i, float(i))]

    def test_divergent_appends_listing2(self, idf):
        """Listing 2: two appends on one parent; materialized in reverse
        order; both visible with their own data only."""
        a = idf.append_rows([(2000, 1, 1.0)])
        b = idf.append_rows([(3000, 2, 2.0)])
        # materialize B first (reverse creation order), then A
        assert b.lookup_tuples(3000) == [(3000, 2, 2.0)]
        assert a.lookup_tuples(2000) == [(2000, 1, 1.0)]
        assert a.lookup_tuples(3000) == []
        assert b.lookup_tuples(2000) == []

    def test_replay_log_retains_appends(self, idf):
        idf.append_rows([(1, 1, 1.0)])
        idf.append_rows([(2, 2, 2.0)])
        assert len(idf.replay_log) == 2


class TestFaultTolerance:
    def test_lookup_after_executor_loss(self, idf, rows):
        ctx = idf.session.context
        ctx.kill_executor(ctx.alive_executor_ids()[0])
        for key in (0, 42, 99):
            expect = [r for r in rows if r[0] == key]
            assert sorted(idf.lookup_tuples(key)) == sorted(expect)

    def test_append_chain_replayed_after_loss(self, idf, rows):
        idf2 = idf.append_rows([(42, 777, 7.7)])
        idf3 = idf2.append_rows([(42, 888, 8.8)])
        assert len(idf3.lookup_tuples(42)) == len([r for r in rows if r[0] == 42]) + 2
        ctx = idf.session.context
        # Kill every executor but one: all cached partitions + map outputs gone.
        for e in list(ctx.alive_executor_ids())[:-1]:
            ctx.kill_executor(e)
        got = idf3.lookup_tuples(42)
        expect = sorted([r for r in rows if r[0] == 42] + [(42, 777, 7.7), (42, 888, 8.8)])
        assert sorted(got) == expect

    def test_stale_partition_version_guard(self, idf):
        """Plant a stale partition object in a block manager; the versioned
        RDD must refuse and recompute it (Section III-D)."""
        idf2 = idf.append_rows([(0, 0, 0.0)])
        idf2.cache_index()
        ctx = idf.session.context
        # Overwrite one cached v1 block with the parent's v0 partition.
        split = 0
        block_id = (idf2.rdd.rdd_id, split)
        stale = None
        for runtime in ctx.executors.values():
            v0_block = runtime.block_manager.get((idf.rdd.rdd_id, split))
            if v0_block is not None:
                stale = v0_block
                break
        assert stale is not None
        for runtime in ctx.executors.values():
            if runtime.block_manager.contains(block_id):
                runtime.block_manager.put(block_id, stale)
        # Query: the guard must detect version 0 != 1 and rebuild.
        def read_version(it, _ctx):
            return next(iter(it)).version

        versions = ctx.run_job(idf2.rdd, read_version)
        assert all(v == 1 for v in versions)


class TestMemoryStats:
    def test_stats_shape(self, idf):
        stats = idf.memory_stats()
        assert len(stats) == idf.num_partitions
        for s in stats:
            assert s["index_bytes"] > 0
            assert s["data_bytes"] > 0
            assert s["overhead"] == pytest.approx(s["index_bytes"] / s["data_bytes"])


class TestStringKeyIndex:
    def test_string_index_end_to_end(self, session):
        schema = Schema.of(("tail", STRING), ("x", LONG))
        rows = [(f"N{i % 20}", i) for i in range(200)]
        df = session.create_dataframe(rows, schema, "t")
        idf = df.create_index("tail").cache_index()
        assert sorted(idf.lookup_tuples("N3")) == sorted(r for r in rows if r[0] == "N3")
        assert idf.lookup_tuples("XX") == []
