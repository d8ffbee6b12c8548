"""Physical operators directly: scan fusion, limits, sorts, estimates."""

import pytest

from repro.config import Config
from repro.sql.cache import CachedRelation
from repro.sql.functions import col
from repro.sql.logical import Filter, Project, Relation
from repro.sql.physical import (
    ColumnarScanExec,
    FilterExec,
    LimitExec,
    ProjectExec,
    RowSourceExec,
    SortExec,
    UnionExec,
    estimate_row_bytes,
)
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

SCHEMA = Schema.of(("id", LONG), ("name", STRING), ("v", DOUBLE))
ROWS = [(i, f"n{i % 3}", i * 0.5) for i in range(60)]


@pytest.fixture()
def session():
    return Session(config=Config(default_parallelism=3, shuffle_partitions=3))


@pytest.fixture()
def cached(session):
    return CachedRelation(session.context, SCHEMA, ROWS, num_partitions=3).build()


class TestScanFusion:
    def test_filter_project_relation_fuses(self, session, cached):
        rel = Relation("t", SCHEMA, cached=cached)
        plan = Project([col("id"), col("v")], Filter(col("id") < 10, rel))
        physical = session.plan_physical(plan)
        assert isinstance(physical, ColumnarScanExec)
        assert physical.required == ["id", "v"]
        got = sorted(physical.execute().collect())
        assert got == [(i, i * 0.5) for i in range(10)]

    def test_filter_only_fuses(self, session, cached):
        rel = Relation("t", SCHEMA, cached=cached)
        physical = session.plan_physical(Filter(col("id") < 5, rel))
        assert isinstance(physical, ColumnarScanExec)
        assert physical.condition is not None
        assert len(physical.execute().collect()) == 5

    def test_computed_projection_does_not_fuse(self, session, cached):
        rel = Relation("t", SCHEMA, cached=cached)
        plan = Project([(col("id") * 2).alias("x")], rel)
        physical = session.plan_physical(plan)
        assert isinstance(physical, ProjectExec)
        assert sorted(physical.execute().collect()) == [(2 * i,) for i in range(60)]

    def test_bare_cached_relation_scans_columnar(self, session, cached):
        rel = Relation("t", SCHEMA, cached=cached)
        physical = session.plan_physical(rel)
        assert isinstance(physical, ColumnarScanExec)
        assert sorted(physical.execute().collect()) == sorted(ROWS)

    def test_uncached_relation_uses_row_source(self, session):
        rel = Relation("t", SCHEMA, rows=ROWS)
        physical = session.plan_physical(rel)
        assert isinstance(physical, RowSourceExec)


class TestOperatorEdgeCases:
    def test_limit_zero(self, session):
        rel = Relation("t", SCHEMA, rows=ROWS)
        physical = LimitExec(session, 0, RowSourceExec(session, rel))
        assert physical.execute().collect() == []

    def test_limit_larger_than_data(self, session):
        rel = Relation("t", SCHEMA, rows=ROWS[:3])
        physical = LimitExec(session, 100, RowSourceExec(session, rel))
        assert len(physical.execute().collect()) == 3

    def test_sort_multi_key_mixed_direction(self, session):
        from repro.sql.analysis import resolve_expression

        rel = Relation("t", SCHEMA, rows=ROWS)
        child = RowSourceExec(session, rel)
        keys = [
            (resolve_expression(col("name"), SCHEMA), True),
            (resolve_expression(col("id"), SCHEMA), False),
        ]
        out = SortExec(session, keys, child).execute().collect()
        assert out == sorted(ROWS, key=lambda r: (r[1], -r[0]))

    def test_sort_empty(self, session):
        rel = Relation("t", SCHEMA, rows=[])
        physical = SortExec(session, [], RowSourceExec(session, rel))
        assert physical.execute().collect() == []

    def test_union_exec(self, session):
        a = RowSourceExec(session, Relation("a", SCHEMA, rows=ROWS[:5]))
        b = RowSourceExec(session, Relation("b", SCHEMA, rows=ROWS[5:9]))
        u = UnionExec(session, a, b)
        assert len(u.execute().collect()) == 9
        assert u.estimated_rows() == 9

    def test_filter_exec_row_path(self, session):
        from repro.sql.analysis import resolve_expression

        rel = Relation("t", SCHEMA, rows=ROWS)
        cond = resolve_expression(col("v") > 10.0, SCHEMA)
        physical = FilterExec(session, cond, RowSourceExec(session, rel))
        got = physical.execute().collect()
        assert got == [r for r in ROWS if r[2] > 10.0]

    def test_tree_string_renders(self, session, cached):
        rel = Relation("t", SCHEMA, cached=cached)
        physical = session.plan_physical(Filter(col("id") < 5, rel))
        assert "ColumnarScan" in physical.tree_string()


class TestEstimates:
    def test_row_bytes_counts_strings_wider(self):
        narrow = Schema.of(("a", LONG))
        wide = Schema.of(("a", LONG), ("s", STRING))
        assert estimate_row_bytes(wide) > estimate_row_bytes(narrow)

    def test_scan_estimates_shrink_with_filter(self, session, cached):
        bare = ColumnarScanExec(session, cached)
        filtered = ColumnarScanExec(session, cached, condition=col("id") < 5)
        assert filtered.estimated_rows() < bare.estimated_rows()


class TestPhaseAccounting:
    def test_columnar_scan_records_phase(self, session, cached):
        rel = Relation("t", SCHEMA, cached=cached)
        with session.context.metrics.capture() as tasks:
            session.plan_physical(Filter(col("id") < 5, rel)).execute().collect()
        assert any("scan" in t.phases for t in tasks)


class TestVectorRowParity:
    """The vector evaluator answers as the row evaluator does, or steps aside
    for it: same rows, or the same error (int64 wrap, zero divisors, NULLs)."""

    PAIRS = Schema.of(("a", LONG), ("b", LONG))
    PAIR_ROWS = [(2**62, 4), (7, 0), (3, 2)]

    @pytest.fixture()
    def views(self):
        """The same three rows uncached (row evaluator), in the columnar cache
        and indexed — the last two evaluate vectorised."""
        import repro.indexed  # noqa: F401 - installs DataFrame.create_index

        session = Session(
            config=Config(default_parallelism=2, shuffle_partitions=2, task_retry_backoff=0.0)
        )
        df = session.create_dataframe(self.PAIR_ROWS, self.PAIRS, "pairs")
        df.create_or_replace_temp_view("pairs_rows")
        df.cache().create_or_replace_temp_view("pairs_cached")
        df.create_index("a").create_or_replace_temp_view("pairs_indexed")
        return session

    def answers(self, session, template):
        out = []
        for view in ("pairs_rows", "pairs_cached", "pairs_indexed"):
            try:
                out.append(sorted(session.sql(template.format(t=view)).collect_tuples()))
            except Exception as exc:  # the job fails with the task's error text
                out.append(str(exc).split("failed: ")[-1])
        return out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_int64_overflow_is_not_wrapped(self, views):
        rows, cached, indexed = self.answers(views, "SELECT * FROM {t} WHERE a * b > 0")
        assert rows == cached == indexed == [(3, 2), (2**62, 4)]
        rows, cached, indexed = self.answers(views, "SELECT a - b * a, a + a + a FROM {t}")
        assert rows == cached == indexed
        assert (2**62 - 4 * 2**62, 3 * 2**62) in rows

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_divisor_raises_as_the_row_path_does(self, views):
        for op in ("%", "/"):
            rows, cached, indexed = self.answers(views, f"SELECT * FROM {{t}} WHERE a {op} b = 1")
            assert isinstance(rows, str) and "by zero" in rows
            assert rows == cached == indexed
        # ... and is skipped where AND short-circuits past it.
        rows, cached, indexed = self.answers(views, "SELECT * FROM {t} WHERE b > 0 AND a % b = 1")
        assert rows == cached == indexed == [(3, 2)]

    def test_integer_sum_partials_do_not_wrap(self, views):
        for query in (
            "SELECT sum(a), count(*) FROM {t}",
            "SELECT b, sum(a * 4), min(a), max(a), avg(a) FROM {t} GROUP BY b",
        ):
            rows, cached, indexed = self.answers(views, query)
            assert rows == cached == indexed, query
        big = Session(config=Config(default_parallelism=1, shuffle_partitions=1))
        df = big.create_dataframe([(2**62, 1)] * 3, self.PAIRS, "big").cache()
        df.create_or_replace_temp_view("big")
        assert big.sql("SELECT sum(a) FROM big").collect_tuples() == [(3 * 2**62,)]

    def test_null_in_primitive_column_of_the_cache(self):
        """``from_rows`` used to crash on a NULL in a LONG/DOUBLE column."""
        import repro.indexed  # noqa: F401

        schema = Schema.of(("a", LONG), ("b", DOUBLE), ("c", STRING))
        rows = [(5, 2.0, "x"), (None, 1.0, "y"), (2, None, "z")]
        session = Session(config=Config(default_parallelism=2, shuffle_partitions=2))
        df = session.create_dataframe(rows, schema, "n")
        df.create_or_replace_temp_view("n_rows")
        df.cache().create_or_replace_temp_view("n_cached")
        df.create_index("c").create_or_replace_temp_view("n_indexed")
        for query in (
            "SELECT * FROM {t}",
            "SELECT count(a), count(b), count(*) FROM {t}",
            "SELECT sum(b), min(a), max(a), avg(a) FROM {t}",
            "SELECT c FROM {t} WHERE a IS NOT NULL AND a > 2",
            "SELECT c, a FROM {t} WHERE b IS NULL",
            "SELECT a, count(*) FROM {t} GROUP BY a",
        ):
            want = sorted(session.sql(query.format(t="n_rows")).collect_tuples(), key=repr)
            for view in ("n_cached", "n_indexed"):
                got = sorted(session.sql(query.format(t=view)).collect_tuples(), key=repr)
                assert got == want, (view, query)
        assert sorted(session.table("n_cached").collect_tuples(), key=repr) == sorted(
            rows, key=repr
        )


class TestGlobalAggregateOverNoRows:
    """A global aggregate answers exactly one row, as SQL does, whatever the
    input: checked against stdlib ``sqlite3`` over the same rows."""

    QUERIES = [
        "SELECT count(*) FROM t WHERE id > 1000",
        "SELECT max(v) FROM t WHERE id > 1000",
        "SELECT sum(v), count(*) FROM t WHERE id > 1000",
        "SELECT min(id), avg(v), count(v) FROM t WHERE id > 1000",
        "SELECT sum(v), count(*) FROM t",
        "SELECT count(*) FROM t WHERE id < 7",
        "SELECT id, count(*) FROM t WHERE id > 1000 GROUP BY id",
    ]

    @staticmethod
    def sqlite_answers(rows: list) -> dict:
        import sqlite3

        db = sqlite3.connect(":memory:")
        db.execute("CREATE TABLE t (id INTEGER, name TEXT, v REAL)")
        db.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
        return {q: db.execute(q).fetchall() for q in TestGlobalAggregateOverNoRows.QUERIES}

    @pytest.mark.parametrize("kernels", [True, False])
    @pytest.mark.parametrize("shuffle_partitions", [1, 3])
    @pytest.mark.parametrize("view", ["plain", "cached", "indexed"])
    @pytest.mark.parametrize("rows", [ROWS, []], ids=["60 rows", "empty"])
    def test_matches_sqlite(self, view, kernels, shuffle_partitions, rows):
        session = Session(config=Config(
            default_parallelism=3, shuffle_partitions=shuffle_partitions,
            indexed_column_kernels=kernels,
        ))
        df = session.create_dataframe(rows, SCHEMA, name="t")
        if view == "cached":
            df = df.cache()
        elif view == "indexed":
            df = df.create_index("id").cache_index()
        df.create_or_replace_temp_view("t")
        for query, want in self.sqlite_answers(rows).items():
            assert sorted(session.sql(query).collect_tuples()) == sorted(want), query

    def test_dataframe_count_of_no_rows(self, session):
        df = session.create_dataframe(ROWS, SCHEMA, name="t")
        assert df.where(col("id") > 1000).count() == 0
        assert session.create_dataframe([], SCHEMA, name="e").count() == 0
