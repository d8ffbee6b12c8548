"""EXPLAIN ANALYZE correctness: observed counts must match reality.

The meter wraps every physical operator's output RDD; the properties that
pin it down:

* the root operator's observed row count equals ``len(collect())`` — on
  hand-built plans, on indexed plans, and on the SNB short-read suite;
* counts are monotonically consistent down the tree: a Filter emits at most
  its child's rows, a Project exactly its child's rows;
* re-running the same node (task retries) must not inflate counts — per-(node, split) results overwrite;
* metering is scoped: after ``analyze()`` the session runs unmetered.
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.sql.functions import col, count, sum_
from repro.sql.physical import FilterExec, LimitExec, ProjectExec
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema
from repro.workloads.snb import (
    generate_snb_edges,
    generate_snb_persons,
    sample_probe_keys,
    short_queries,
)
from repro.workloads.snb import EDGE_SCHEMA as SNB_EDGE_SCHEMA
from repro.workloads.snb import PERSON_SCHEMA as SNB_PERSON_SCHEMA
from tests.conftest import MODES


EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))
DIM_SCHEMA = Schema.of(("node", LONG), ("label", STRING))


def make_session(mode: str = "sequential") -> Session:
    return Session(
        config=Config(default_parallelism=4, shuffle_partitions=4, scheduler_mode=mode)
    )


@pytest.fixture()
def session():
    return make_session()


@pytest.fixture()
def edges_df(session):
    rows = [(i % 25, (i * 7) % 25, float(i % 10) / 10) for i in range(400)]
    return session.create_dataframe(rows, EDGE_SCHEMA, "edges")


@pytest.fixture()
def dims_df(session):
    return session.create_dataframe(
        [(k, f"label{k % 4}") for k in range(25)], DIM_SCHEMA, "dims"
    )


class TestRootCounts:
    @pytest.mark.parametrize("mode", MODES)
    def test_filter_root_count_matches_collect(self, mode):
        session = make_session(mode)
        rows = [(i % 25, i % 7, float(i)) for i in range(400)]
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges").where(col("src") < 5)
        analysis = df.analyze()
        assert analysis.node_stats(analysis.physical).rows == len(df.collect_tuples())
        assert analysis.node_stats(analysis.physical).rows == len(analysis.rows)

    def test_join_root_count_matches_collect(self, edges_df, dims_df):
        joined = edges_df.join(dims_df, on=("src", "node")).select("src", "label", "w")
        analysis = joined.analyze()
        assert analysis.node_stats(analysis.physical).rows == len(joined.collect_tuples())

    def test_aggregate_root_count_matches_collect(self, edges_df):
        agg = edges_df.group_by("src").agg(count().alias("n"), sum_("w").alias("s"))
        analysis = agg.analyze()
        assert analysis.node_stats(analysis.physical).rows == len(agg.collect_tuples())

    def test_limit_root_count_matches_collect(self, edges_df):
        limited = edges_df.order_by("w", "dst", "src").limit(7)
        analysis = limited.analyze()
        assert analysis.node_stats(analysis.physical).rows == 7

    def test_indexed_plan_root_count_matches_collect(self, edges_df, dims_df):
        idf = edges_df.create_index("src")
        q = idf.to_df().where(col("src") == 3)
        analysis = q.analyze()
        assert analysis.node_stats(analysis.physical).rows == len(q.collect_tuples())
        joined = idf.to_df().join(dims_df, on=("src", "node")).select("src", "label")
        analysis = joined.analyze()
        assert analysis.node_stats(analysis.physical).rows == len(joined.collect_tuples())


    @pytest.mark.parametrize("kernels", (True, False))
    def test_fused_indexed_scan_counts_match_collect(self, edges_df, kernels):
        """The fused scan is one node: its count is the rows that survive the
        filter, whether the kernels or the row path produced them; under an
        aggregate it hands over column batches and still counts rows."""
        edges_df.session.context.config.indexed_column_kernels = kernels
        idf = edges_df.create_index("src")
        q = idf.to_df().where(col("w") > 0.3).select("dst", "w")
        analysis = q.analyze()
        assert repr(analysis.physical).startswith("IndexedScan(") and "filter=" in analysis.text()
        assert analysis.node_stats(analysis.physical).rows == len(q.collect_tuples()) == 240
        agg = idf.to_df().where(col("w") > 0.3).group_by("dst").agg(sum_("w").alias("s"))
        analysis = agg.analyze()
        assert analysis.node_stats(analysis.physical).rows == len(agg.collect_tuples())
        (scan,) = analysis.physical.children()
        assert analysis.node_stats(scan).rows == 240


class TestTreeConsistency:
    def test_filter_and_project_monotonicity(self, session, edges_df):
        q = edges_df.where(col("w") > 0.3).select("dst", (col("w") * 2).alias("w2"))
        analysis = q.analyze()
        for node, stats in analysis.nodes():
            if isinstance(node, FilterExec):
                child = analysis.node_stats(node.child)
                assert stats.rows <= child.rows
            if isinstance(node, ProjectExec):
                child = analysis.node_stats(node.child)
                assert stats.rows == child.rows
            if isinstance(node, LimitExec):
                assert stats.rows <= node.n

    def test_every_node_has_stats_and_rendering(self, edges_df, dims_df):
        joined = edges_df.join(dims_df, on=("src", "node")).where(col("w") > 0.2)
        analysis = joined.analyze()
        seen = dict(analysis.nodes())
        assert analysis.physical in seen
        text = analysis.text()
        assert "analyzed:" in text
        # Every operator line is decorated with actuals.
        for line in text.splitlines()[1:]:
            assert "[rows=" in line, line

    def test_rows_per_second_is_positive(self, edges_df):
        analysis = edges_df.where(col("src") < 10).analyze()
        root = analysis.node_stats(analysis.physical)
        assert root.rows > 0
        assert root.rows_per_second is None or root.rows_per_second > 0


class TestScoping:
    def test_meter_removed_after_analyze(self, session, edges_df):
        edges_df.where(col("src") < 5).analyze()
        assert session.exec_meter is None
        # A later un-analyzed query runs clean.
        assert edges_df.where(col("src") < 5).collect_tuples()

    def test_meter_restored_on_error(self, session):
        bad = session.create_dataframe([(1, 2, 0.5)], EDGE_SCHEMA, "edges").where(
            col("nope") == 1
        )
        with pytest.raises(Exception):
            bad.analyze()
        assert session.exec_meter is None

    def test_retried_splits_do_not_inflate_counts(self):
        session = Session(
            config=Config(
                default_parallelism=4,
                shuffle_partitions=4,
                task_retry_backoff=0.0,
            )
        )
        session.context.faults.configure(seed=13, task_failure_prob=0.25)
        rows = [(i % 25, i % 7, float(i)) for i in range(400)]
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges").where(col("src") < 12)
        expected = len(df.collect_tuples())
        analysis = df.analyze()
        assert analysis.node_stats(analysis.physical).rows == expected


class TestSqlSurface:
    def test_sql_explain_plain_and_analyze(self, session, edges_df):
        edges_df.create_or_replace_temp_view("edges")
        plain = session.sql_explain("SELECT src, w FROM edges WHERE src < 5")
        assert "rows=" not in plain
        analyzed = session.sql_explain("SELECT src, w FROM edges WHERE src < 5", analyze=True)
        assert "[rows=" in analyzed
        n = len(session.sql("SELECT src, w FROM edges WHERE src < 5").collect_tuples())
        assert f"analyzed: {n} rows" in analyzed

    def test_dataframe_explain_analyze_flag(self, edges_df):
        assert "[rows=" not in edges_df.explain()
        assert "[rows=" in edges_df.explain(analyze=True)


class TestSnbWorkload:
    @pytest.mark.parametrize("mode", MODES)
    def test_short_reads_counts_match_collect(self, mode):
        """Acceptance criterion: analyze counts == collected counts on SNB."""
        session = make_session(mode)
        edges = generate_snb_edges(2)
        persons = generate_snb_persons(2)
        edges_df = session.create_dataframe(edges, SNB_EDGE_SCHEMA, "edges")
        persons_df = session.create_dataframe(persons, SNB_PERSON_SCHEMA, "persons")
        idf = edges_df.create_index("edge_source")
        idf.create_or_replace_temp_view("edges")
        persons_df.cache().create_or_replace_temp_view("persons")
        pid = sample_probe_keys(edges, 1, seed=5)[0]
        for q in short_queries():
            text = q.sql(pid)
            expected = len(session.sql(text).collect_tuples())
            analysis = session.execute_analyzed(session.sql(text).plan)
            got = analysis.node_stats(analysis.physical).rows
            assert got == expected, f"{q.name}: analyze said {got}, collect said {expected}"
            assert len(analysis.rows) == expected


class TestRangeScanPushdown:
    """Ordered-index pushdown (DESIGN.md §15): a recognized range predicate
    must *read* strictly fewer rows than the full-scan plan for the same
    query, and the meter + metrics must both show it."""

    def test_range_scan_reads_strictly_fewer_rows_than_full_scan(self, session):
        from repro.indexed.operators import IndexedRangeScanExec

        rows = [(i % 100, i, float(i % 10) / 10) for i in range(1000)]
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        idf = df.create_index("src")
        matched = sum(1 for r in rows if 10 <= r[0] <= 14)

        indexed_q = idf.to_df().where((col("src") >= 10) & (col("src") <= 14))
        analysis = indexed_q.analyze()
        range_nodes = [
            (node, stats)
            for node, stats in analysis.nodes()
            if isinstance(node, IndexedRangeScanExec)
        ]
        assert len(range_nodes) == 1, "range predicate was not pushed down"
        _, range_stats = range_nodes[0]
        assert range_stats.rows == matched

        # Uncached baseline: Scan -> Filter, so the leaf meters every row read.
        vanilla_q = df.where((col("src") >= 10) & (col("src") <= 14))
        vanilla = vanilla_q.analyze()
        leaf_rows = max(
            stats.rows
            for node, stats in vanilla.nodes()
            if not isinstance(node, (FilterExec, ProjectExec, LimitExec))
        )
        assert leaf_rows == len(rows)
        assert range_stats.rows < leaf_rows  # the acceptance criterion
        assert len(analysis.rows) == len(vanilla.rows) == matched

    def test_scanned_vs_matched_metrics(self, session):
        rows = [(i % 100, i, 0.0) for i in range(1000)]
        idf = session.create_dataframe(rows, EDGE_SCHEMA, "edges").create_index("src")
        idf.to_df().where((col("src") >= 10) & (col("src") <= 14)).collect_tuples()
        reg = session.context.registry
        scanned = reg.counter_total("ordered_index_rows_scanned_total")
        assert reg.counter_total("ordered_index_range_scans_total") >= 1
        assert reg.counter_total("ordered_index_rows_matched_total") == scanned == 50
        assert scanned < len(rows)  # the index sought, it did not scan
        assert reg.histogram_stats("ordered_index_range_selectivity")["count"] >= 1
