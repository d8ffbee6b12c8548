"""DataFrame API end-to-end through the session pipeline."""

import pytest

from repro.sql.functions import avg, col, count, max_, min_, sum_
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

SCHEMA = Schema.of(("id", LONG), ("grp", STRING), ("v", DOUBLE))


@pytest.fixture()
def session() -> Session:
    return Session()


@pytest.fixture()
def df(session):
    rows = [(i, f"g{i % 4}", i * 0.5) for i in range(100)]
    return session.create_dataframe(rows, SCHEMA, "t")


class TestBasics:
    def test_collect_tuples(self, df):
        assert len(df.collect_tuples()) == 100

    def test_collect_rows_have_schema(self, df):
        r = df.limit(1).collect()[0]
        assert r.id == 0 and r.grp == "g0"

    def test_columns(self, df):
        assert df.columns == ["id", "grp", "v"]

    def test_select(self, df):
        out = df.select("grp", "id").limit(2).collect_tuples()
        assert out == [("g0", 0), ("g1", 1)]

    def test_select_star(self, df):
        assert df.select("*") is df

    def test_select_expression(self, df):
        out = df.select((col("id") * 2).alias("twice")).limit(3).collect_tuples()
        assert out == [(0,), (2,), (4,)]

    def test_where(self, df):
        assert df.where(col("id") < 10).count() == 10

    def test_where_chained(self, df):
        assert df.where(col("id") < 10).where(col("id") >= 5).count() == 5

    def test_with_column(self, df):
        out = df.with_column("vv", col("v") * 2)
        assert out.columns == ["id", "grp", "v", "vv"]
        first = out.limit(1).collect()[0]
        assert first.vv == first.v * 2

    def test_limit_and_take(self, df):
        assert len(df.take(7)) == 7
        assert df.first().id == 0

    def test_order_by(self, df):
        out = df.order_by("v", ascending=False).limit(2).collect()
        assert out[0].v >= out[1].v
        assert out[0].id == 99

    def test_order_by_multi(self, df):
        out = df.order_by("grp", "id", ascending=[True, False]).limit(2).collect()
        assert out[0].grp == "g0" and out[0].id == 96

    def test_union(self, df, session):
        other = session.create_dataframe([(999, "gx", 0.0)], SCHEMA, "o")
        assert df.union(other).count() == 101

    def test_count(self, df):
        assert df.count() == 100

    def test_show_smoke(self, df, capsys):
        df.limit(2).show()
        out = capsys.readouterr().out
        assert "id" in out and "g0" in out

    def test_explain_mentions_operators(self, df):
        text = df.where(col("id") < 5).explain()
        assert "Filter" in text


class TestAggregation:
    def test_group_by_count(self, df):
        got = dict(df.group_by("grp").agg(count().alias("n")).collect_tuples())
        assert got == {f"g{k}": 25 for k in range(4)}

    def test_group_by_multiple_aggs(self, df):
        rows = df.group_by("grp").agg(
            sum_("v").alias("s"), min_("id").alias("lo"), max_("id").alias("hi")
        ).collect()
        by_grp = {r.grp: r for r in rows}
        assert by_grp["g0"].lo == 0 and by_grp["g0"].hi == 96
        assert by_grp["g1"].s == pytest.approx(sum(i * 0.5 for i in range(1, 100, 4)))

    def test_global_agg(self, df):
        row = df.agg(avg("v").alias("m"), count().alias("n")).collect()[0]
        assert row.n == 100
        assert row.m == pytest.approx(sum(i * 0.5 for i in range(100)) / 100)

    def test_grouped_count_helper(self, df):
        got = dict(df.group_by("grp").count().collect_tuples())
        assert got[f"g0"] == 25

    def test_non_aggregate_rejected(self, df):
        with pytest.raises(ValueError):
            df.group_by("grp").agg(col("id"))


class TestJoins:
    def test_join_on_shared_name(self, session, df):
        dims = session.create_dataframe(
            [(f"g{i}", i * 10) for i in range(4)],
            Schema.of(("grp", STRING), ("weight", LONG)),
            "dims",
        )
        out = df.join(dims, on="grp")
        assert out.count() == 100
        assert out.columns == ["id", "grp", "v", "grp_r", "weight"]

    def test_join_on_pair(self, session, df):
        dims = session.create_dataframe(
            [(f"g{i}",) for i in range(2)], Schema.of(("g", STRING)), "dims"
        )
        assert df.join(dims, on=("grp", "g")).count() == 50

    def test_join_on_expression(self, session, df):
        dims = session.create_dataframe(
            [(f"g{i}",) for i in range(2)], Schema.of(("g", STRING)), "dims"
        )
        assert df.join(dims, on=(col("grp") == col("g"))).count() == 50

    def test_left_join_keeps_unmatched(self, session, df):
        dims = session.create_dataframe(
            [("g0", 1)], Schema.of(("g", STRING), ("w", LONG)), "dims"
        )
        out = df.join(dims, on=("grp", "g"), how="left").collect()
        assert len(out) == 100
        unmatched = [r for r in out if r.w is None]
        assert len(unmatched) == 75

    def test_join_invalid_condition(self, session, df):
        dims = session.create_dataframe([("g0",)], Schema.of(("g", STRING)), "d")
        with pytest.raises(ValueError):
            df.join(dims, on=(col("grp") > col("g")))


class TestCacheAndViews:
    def test_cache_returns_equivalent_df(self, df):
        cached = df.cache()
        assert sorted(cached.collect_tuples()) == sorted(df.collect_tuples())

    def test_cached_scan_is_vectorized(self, df, session):
        cached = df.cache()
        physical = session.plan_physical(cached.where(col("id") < 5).plan)
        assert "ColumnarScan" in physical.tree_string()

    def test_temp_view_roundtrip(self, session, df):
        df.create_or_replace_temp_view("mytable")
        assert session.table("mytable").count() == 100
        got = session.sql("SELECT count(*) AS n FROM mytable").collect()[0]
        assert got.n == 100

    def test_missing_view(self, session):
        with pytest.raises(KeyError):
            session.table("ghost")


class TestSQLEndToEnd:
    def test_full_query(self, session, df):
        df.create_or_replace_temp_view("t")
        out = session.sql(
            "SELECT grp, sum(v) AS total, count(*) AS n FROM t "
            "WHERE id >= 10 GROUP BY grp ORDER BY total DESC LIMIT 2"
        ).collect()
        assert len(out) == 2
        assert out[0].total >= out[1].total

    def test_sql_join(self, session, df):
        df.create_or_replace_temp_view("t")
        session.create_dataframe(
            [(f"g{i}", i) for i in range(4)],
            Schema.of(("g", STRING), ("gid", LONG)),
            "d",
        ).create_or_replace_temp_view("d")
        out = session.sql(
            "SELECT id, gid FROM t JOIN d ON grp = g WHERE id < 8"
        ).collect_tuples()
        assert sorted(out) == [(i, i % 4) for i in range(8)]


def counted_rows(frame) -> int:
    """What ``count()`` answered before it was an aggregate: the executed
    plan's rows, counted one by one."""
    return frame.session.plan_physical(frame.plan).execute().count()


class TestCount:
    """``count()`` plans ``count(*)``: the same number as counting rows."""

    def test_equals_counting_the_rows(self, session, df):
        empty = session.create_dataframe([], SCHEMA, "empty")
        dims = session.create_dataframe(
            [("g0", 1), ("g2", 2), ("g2", 3)], Schema.of(("g", STRING), ("w", LONG)), "dims"
        )
        frames = {
            "all": df,
            "empty": empty,
            "empty filtered": empty.where(col("id") > 1),
            "filtered to nothing": df.where(col("id") > 1000),
            "filtered": df.where(col("v") > 10),
            "join": df.join(dims, on=("grp", "g")),
            "limit": df.limit(7),
            "limit 0": df.limit(0),
            "limit past the end": df.where(col("id") < 50).limit(80),
            "union": df.union(df),
            "grouped": df.group_by("grp").count(),
        }
        for name, frame in frames.items():
            assert frame.count() == counted_rows(frame), name

    def test_an_indexed_view_counts_batches_and_decodes_no_row(self, session, monkeypatch):
        from repro.indexed.partition import IndexedPartition

        rows = [(i, f"g{i % 4}", i * 0.5) for i in range(300)]
        idf = session.create_dataframe(rows, SCHEMA, "t").create_index("id").cache_index()
        view = idf.to_df()
        scans, decoded = [], []
        scan_columns, scan_rows = IndexedPartition.scan_columns, IndexedPartition.scan_rows

        def spy_columns(part, names, registry=None):
            batch = scan_columns(part, names, registry)
            scans.append((list(names), len(batch.columns) + len(batch.deferred)))
            return batch

        def spy_rows(part):
            decoded.append(part)
            return scan_rows(part)

        monkeypatch.setattr(IndexedPartition, "scan_columns", spy_columns)
        monkeypatch.setattr(IndexedPartition, "scan_rows", spy_rows)
        assert view.count() == idf.count() == 300
        assert scans and all(scan == ([], 0) for scan in scans) and decoded == []
        assert view.where(col("v") > 100).count() == counted_rows(view.where(col("v") > 100)) == 99
        session.context.config.indexed_column_kernels = False
        scans.clear()
        assert view.count() == 300
        assert decoded and scans == []  # the row-only configuration folds rows
