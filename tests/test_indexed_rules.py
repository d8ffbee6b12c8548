"""Catalyst integration: the right physical operators get chosen, with
fallback to vanilla execution when the index cannot help (Fig. 2)."""

import random

import pytest

from repro.config import Config
from repro.indexed.operators import IndexedJoinExec, IndexedLookupExec, IndexedScanExec
from repro.indexed.rules import extract_lookup_keys
from repro.sql.functions import col, count, lit
from repro.sql.physical import FilterExec
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))


@pytest.fixture()
def session() -> Session:
    return Session(config=Config(default_parallelism=4, shuffle_partitions=4))


def make_rows(n=600, keys=60, seed=4):
    rng = random.Random(seed)
    return [(rng.randrange(keys), rng.randrange(keys), round(rng.random(), 4)) for _ in range(n)]


@pytest.fixture()
def setup(session):
    rows = make_rows()
    df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
    idf = df.create_index("src").cache_index()
    idf.create_or_replace_temp_view("edges_idx")
    return session, rows, idf


class TestExtractLookupKeys:
    def test_simple_equality(self):
        keys, residual = extract_lookup_keys(col("src") == 5, "src")
        assert keys == [5]
        assert residual is None

    def test_reversed_equality(self):
        keys, _ = extract_lookup_keys(lit(5) == col("src"), "src")
        assert keys == [5]

    def test_in_list(self):
        keys, residual = extract_lookup_keys(col("src").isin(3, 1, 2), "src")
        assert keys == [1, 2, 3]
        assert residual is None

    def test_equality_with_residual(self):
        keys, residual = extract_lookup_keys((col("src") == 5) & (col("w") > 0.5), "src")
        assert keys == [5]
        assert residual is not None

    def test_conflicting_equalities_empty(self):
        keys, _ = extract_lookup_keys((col("src") == 5) & (col("src") == 6), "src")
        assert keys == []

    def test_intersecting_in_and_eq(self):
        keys, _ = extract_lookup_keys((col("src").isin(1, 2, 3)) & (col("src") == 2), "src")
        assert keys == [2]

    def test_no_key_constraint(self):
        keys, residual = extract_lookup_keys(col("w") > 0.5, "src")
        assert keys is None and residual is None

    def test_non_key_equality_not_claimed(self):
        keys, _ = extract_lookup_keys(col("dst") == 5, "src")
        assert keys is None

    def test_range_on_key_not_claimed(self):
        keys, _ = extract_lookup_keys(col("src") > 5, "src")
        assert keys is None


class TestPlanSelection:
    def _plan(self, session, df):
        return session.plan_physical(df.plan)

    def test_point_query_uses_lookup(self, setup):
        session, _, idf = setup
        p = self._plan(session, session.sql("SELECT * FROM edges_idx WHERE src = 5"))
        assert isinstance(p, IndexedLookupExec)

    def test_in_query_uses_lookup(self, setup):
        session, _, _ = setup
        p = self._plan(session, session.sql("SELECT * FROM edges_idx WHERE src IN (1, 2)"))
        assert isinstance(p, IndexedLookupExec)

    def test_lookup_with_residual_filter(self, setup):
        session, _, _ = setup
        p = self._plan(
            session, session.sql("SELECT * FROM edges_idx WHERE src = 5 AND w > 0.5")
        )
        assert isinstance(p, FilterExec)
        assert isinstance(p.child, IndexedLookupExec)

    def test_non_equality_falls_back_to_scan(self, setup):
        session, rows, _ = setup
        p = self._plan(session, session.sql("SELECT * FROM edges_idx WHERE w > 0.5"))
        assert isinstance(p, IndexedScanExec) and p.condition is not None and p.required is None
        assert p.tree_string() == "IndexedScan(edges_idx, filter=(w > 0.5))"
        assert sorted(p.execute().collect()) == sorted(r for r in rows if r[2] > 0.5)

    def test_projection_and_filter_fuse_into_the_scan(self, setup):
        session, rows, _ = setup
        p = self._plan(session, session.sql("SELECT dst, w FROM edges_idx WHERE w > 0.5 AND dst < 30"))
        assert isinstance(p, IndexedScanExec)
        assert p.required == ["dst", "w"] and p.schema.names() == ["dst", "w"]
        assert "filter=" in repr(p) and "cols=['dst', 'w']" in repr(p)
        want = sorted((r[1], r[2]) for r in rows if r[2] > 0.5 and r[1] < 30)
        assert sorted(p.execute().collect()) == want
        # The row-only configuration runs the same plan through the row path.
        session.context.config.indexed_column_kernels = False
        assert sorted(p.execute().collect()) == want

    def test_index_claims_come_before_fusion(self, setup):
        """A Project over a filter the index can serve keeps the lookup /
        range operator; only the unclaimed remainder scans."""
        session, _, _ = setup
        p = self._plan(session, session.sql("SELECT dst FROM edges_idx WHERE src = 5 AND w > 0.5"))
        assert "IndexedLookup" in p.tree_string() and "IndexedScan" not in p.tree_string()
        p = self._plan(session, session.sql("SELECT dst FROM edges_idx WHERE src > 50"))
        assert "IndexedRangeScan" in p.tree_string() and "IndexedScan(" not in p.tree_string()

    def test_aggregate_sits_on_the_fused_scan(self, setup):
        session, rows, _ = setup
        p = self._plan(session, session.sql("SELECT avg(w) FROM edges_idx WHERE dst < 30"))
        assert isinstance(p.child, IndexedScanExec) and p.child.condition is not None
        assert p.child.execute_batches(["w"]) is not None
        kept = [r[2] for r in rows if r[1] < 30]
        ((got,),) = p.execute().collect()
        assert got == pytest.approx(sum(kept) / len(kept), rel=1e-12)

    def test_bare_scan(self, setup):
        session, _, _ = setup
        p = self._plan(session, session.sql("SELECT * FROM edges_idx"))
        assert isinstance(p, IndexedScanExec)

    def test_join_on_index_key_uses_indexed_join(self, setup):
        session, _, idf = setup
        probe = session.create_dataframe([(1,), (2,)], Schema.of(("k", LONG)), "p")
        plan = self._plan(session, probe.join(idf.to_df(), on=("k", "src")))
        assert isinstance(plan, IndexedJoinExec)
        assert plan.indexed_on_left is False

    def test_join_with_index_on_left(self, setup):
        session, _, idf = setup
        probe = session.create_dataframe([(1,), (2,)], Schema.of(("k", LONG)), "p")
        plan = self._plan(session, idf.to_df().join(probe, on=("src", "k")))
        assert isinstance(plan, IndexedJoinExec)
        assert plan.indexed_on_left is True

    def test_join_on_non_key_column_falls_back(self, setup):
        session, _, idf = setup
        probe = session.create_dataframe([(1,)], Schema.of(("k", LONG)), "p")
        plan = self._plan(session, probe.join(idf.to_df(), on=("k", "dst")))
        assert not isinstance(plan, IndexedJoinExec)
        assert "IndexedScan" in plan.tree_string()  # index data still scanned

    def test_non_indexed_query_untouched(self, setup):
        session, rows, _ = setup
        plain = session.create_dataframe(rows, EDGE_SCHEMA, "plain").cache()
        plan = self._plan(session, plain.where(col("src") == 5))
        assert "Indexed" not in plan.tree_string()


class TestResultEquivalence:
    """The indexed plans must return exactly what vanilla plans return."""

    def test_point_query_results(self, setup):
        session, rows, _ = setup
        for key in (0, 5, 59, 1234):
            got = session.sql(f"SELECT * FROM edges_idx WHERE src = {key}").collect_tuples()
            assert sorted(got) == sorted(r for r in rows if r[0] == key)

    def test_lookup_with_projection(self, setup):
        session, rows, _ = setup
        got = session.sql("SELECT dst FROM edges_idx WHERE src = 3").collect_tuples()
        assert sorted(got) == sorted((r[1],) for r in rows if r[0] == 3)

    def test_join_results_match_vanilla(self, setup):
        session, rows, idf = setup
        probe_keys = [(k,) for k in range(0, 60, 7)]
        probe = session.create_dataframe(probe_keys, Schema.of(("k", LONG)), "probe")
        indexed = probe.join(idf.to_df(), on=("k", "src")).collect_tuples()
        vanilla_df = session.create_dataframe(rows, EDGE_SCHEMA, "vanilla").cache()
        vanilla = probe.join(vanilla_df, on=("k", "src")).collect_tuples()
        assert sorted(indexed) == sorted(vanilla)

    def test_join_with_residual(self, setup):
        session, rows, idf = setup
        probe = session.create_dataframe([(k,) for k in range(60)], Schema.of(("k", LONG)), "p")
        joined = probe.join(idf.to_df(), on=(col("k") == col("src")))
        filtered = joined.where(col("w") > 0.5)
        got = filtered.collect_tuples()
        want = [(r[0],) + r for r in rows if r[2] > 0.5]
        assert sorted(got) == sorted(want)

    def test_aggregate_over_indexed_view(self, setup):
        session, rows, _ = setup
        got = session.sql(
            "SELECT src, count(*) AS n FROM edges_idx GROUP BY src ORDER BY src"
        ).collect_tuples()
        from collections import Counter

        want = sorted(Counter(r[0] for r in rows).items())
        assert got == want

    def test_self_join_on_index(self, setup):
        """Lookup feeding an indexed self-join (the SQ7 pattern)."""
        session, rows, _ = setup
        got = session.sql(
            "SELECT dst_r AS x FROM edges_idx a JOIN edges_idx b "
            "ON a.dst = b.src WHERE a.src = 3"
        ).collect_tuples()
        firsts = [r[1] for r in rows if r[0] == 3]
        want = sorted((r[1],) for r in rows if r[0] in firsts)
        # one output per (a-edge, b-edge) pair:
        want = sorted((r[1],) for f in firsts for r in rows if r[0] == f)
        assert sorted(got) == want

    def test_big_probe_uses_shuffle_path(self, setup):
        """Probe larger than the broadcast threshold goes through the
        shuffle path and still returns correct results."""
        session, rows, idf = setup
        session.context.config.broadcast_threshold = 64  # force shuffle
        try:
            probe = session.create_dataframe(
                [(k,) for k in range(60)], Schema.of(("k", LONG)), "p"
            )
            got = probe.join(idf.to_df(), on=("k", "src")).collect_tuples()
            want = [(r[0],) + r for r in rows]
            assert sorted(got) == sorted(want)
        finally:
            session.context.config.broadcast_threshold = 10 * 1024 * 1024


class TestExtractKeyRange:
    """Range-predicate recognition feeding the ordered index (DESIGN.md §15)."""

    def _extract(self, cond):
        from repro.indexed.rules import extract_key_range

        return extract_key_range(cond, "src")

    def test_single_comparisons_keep_inclusivity(self):
        kr, residual = self._extract(col("src") < 5)
        assert residual is None and kr.hi == 5 and not kr.hi_inclusive
        kr, _ = self._extract(col("src") <= 5)
        assert kr.hi == 5 and kr.hi_inclusive
        kr, _ = self._extract(col("src") > 5)
        assert kr.lo == 5 and not kr.lo_inclusive
        kr, _ = self._extract(col("src") >= 5)
        assert kr.lo == 5 and kr.lo_inclusive

    def test_literal_on_left_flips_operator(self):
        kr, _ = self._extract(lit(5) < col("src"))
        assert kr.lo == 5 and not kr.lo_inclusive

    def test_between_shape_intersects_both_bounds(self):
        kr, residual = self._extract(col("src").between(3, 7))
        assert residual is None
        assert (kr.lo, kr.lo_inclusive, kr.hi, kr.hi_inclusive) == (3, True, 7, True)

    def test_equal_keys_at_both_bounds_is_a_point(self):
        kr, _ = self._extract(col("src").between(5, 5))
        assert not kr.is_empty() and kr.matches(5) and not kr.matches(6)

    def test_reversed_bounds_claimed_as_empty_range(self):
        kr, _ = self._extract(col("src").between(9, 2))
        assert kr is not None and kr.is_empty()

    def test_exclusive_pair_keeps_both_open_bounds(self):
        # (5, 6) open: no integer inside; KeyRange is type-agnostic so it
        # is not is_empty(), but neither endpoint may match.
        kr, _ = self._extract((col("src") > 5) & (col("src") < 6))
        assert not kr.matches(5) and not kr.matches(6)
        assert (kr.lo_inclusive, kr.hi_inclusive) == (False, False)

    def test_range_with_residual(self):
        kr, residual = self._extract((col("src") >= 3) & (col("w") > 0.5))
        assert kr.lo == 3 and residual is not None

    def test_prefix_like_claimed(self):
        kr, residual = self._extract(col("src").like("ab%"))
        assert residual is None and kr.prefix == "ab"

    def test_non_prefix_like_not_claimed(self):
        kr, residual = self._extract(col("src").like("%ab"))
        assert kr is None and residual is None

    def test_non_key_comparison_not_claimed(self):
        kr, residual = self._extract(col("w") > 0.5)
        assert kr is None and residual is None

    def test_equality_not_claimed_by_range_extractor(self):
        kr, _ = self._extract(col("src") == 5)
        assert kr is None

    def test_incompatible_conjunct_stays_residual(self):
        # prefix LIKE cannot intersect a numeric range: one claims, the
        # other must remain a residual filter, never be dropped.
        kr, residual = self._extract(col("src").like("ab%") & (col("src") > 5))
        assert kr is not None and residual is not None


class TestRangePlanSelection:
    def _plan(self, session, df):
        return session.plan_physical(df.plan)

    def test_between_uses_range_scan(self, setup):
        from repro.indexed.operators import IndexedRangeScanExec

        session, _, _ = setup
        p = self._plan(
            session, session.sql("SELECT * FROM edges_idx WHERE src BETWEEN 10 AND 20")
        )
        assert isinstance(p, IndexedRangeScanExec)
        assert "IndexedRangeScan" in p.tree_string()

    def test_range_with_residual_keeps_filter(self, setup):
        from repro.indexed.operators import IndexedRangeScanExec

        session, _, _ = setup
        p = self._plan(
            session,
            session.sql("SELECT * FROM edges_idx WHERE src < 20 AND w > 0.5"),
        )
        assert isinstance(p, FilterExec)
        assert isinstance(p.child, IndexedRangeScanExec)

    def test_equality_still_prefers_point_lookup(self, setup):
        session, _, _ = setup
        p = self._plan(
            session, session.sql("SELECT * FROM edges_idx WHERE src = 5 AND src < 20")
        )
        tree = p.tree_string()
        assert "IndexedLookup" in tree and "IndexedRangeScan" not in tree


class TestRangeBoundaryResults:
    """End-to-end bound handling: < and <= must never be conflated, empty
    and reversed ranges return exactly nothing."""

    def test_half_open_vs_closed_at_occupied_boundary(self, setup):
        session, rows, _ = setup
        lt = session.sql("SELECT src FROM edges_idx WHERE src < 30").collect_tuples()
        le = session.sql("SELECT src FROM edges_idx WHERE src <= 30").collect_tuples()
        assert sorted(lt) == sorted((r[0],) for r in rows if r[0] < 30)
        assert sorted(le) == sorted((r[0],) for r in rows if r[0] <= 30)
        boundary = sum(1 for r in rows if r[0] == 30)
        assert boundary > 0 and len(le) - len(lt) == boundary

    def test_equal_keys_at_both_bounds(self, setup):
        session, rows, _ = setup
        got = session.sql(
            "SELECT src, dst FROM edges_idx WHERE src BETWEEN 7 AND 7"
        ).collect_tuples()
        assert sorted(got) == sorted((r[0], r[1]) for r in rows if r[0] == 7)

    def test_reversed_bounds_return_nothing(self, setup):
        session, _, _ = setup
        assert (
            session.sql("SELECT * FROM edges_idx WHERE src BETWEEN 40 AND 10").collect_tuples()
            == []
        )

    def test_exclusive_empty_range(self, setup):
        session, _, _ = setup
        got = session.sql(
            "SELECT * FROM edges_idx WHERE src > 10 AND src < 11"
        ).collect_tuples()
        assert got == []

    def test_range_scan_metrics_scanned_vs_matched(self, setup):
        session, rows, _ = setup
        reg = session.context.registry
        session.sql("SELECT src FROM edges_idx WHERE src BETWEEN 10 AND 19").collect_tuples()
        matched = sum(1 for r in rows if 10 <= r[0] <= 19)
        assert reg.counter_total("ordered_index_range_scans_total") >= 1
        assert reg.counter_total("ordered_index_rows_matched_total") == matched
        # Integer keys cannot collide, so the seek decodes only matches.
        assert reg.counter_total("ordered_index_rows_scanned_total") == matched
        stats = reg.histogram_stats("ordered_index_range_selectivity")
        assert stats["count"] >= 1
