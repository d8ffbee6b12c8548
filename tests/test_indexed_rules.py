"""Catalyst integration: the right physical operators get chosen, with
fallback to vanilla execution when the index cannot help (Fig. 2)."""

import random
import sys

import pytest

from repro.config import Config
from repro.indexed.operators import (
    IndexedJoinExec,
    IndexedLookupExec,
    IndexedRangeScanExec,
    IndexedScanExec,
)
from repro.indexed.ordered_index import KeyRange
from repro.indexed.rules import extract_lookup_keys
from repro.serve import ShardRouter
from repro.sql.functions import col, lit
from repro.sql.physical import FilterExec, RowwiseExec
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, Schema

from .conftest import USER_SCHEMA, make_users

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

    def test_range_scan_records_one_registry_call_per_partition(self, session):
        """A 4-partition range records, on the job and on the direct path
        alike, the totals each partition's ``range_lookup`` reports, in one
        registry call per partition read, and touches the
        ``ordered_index_*`` series through nothing else."""
        rows = make_rows()
        idf = session.create_dataframe(rows, EDGE_SCHEMA, "edges").create_index("src", num_partitions=4)
        idf.create_or_replace_temp_view("edges4")
        reg = session.context.registry
        krange = KeyRange(lo=10, hi=29)
        reads = [part.range_lookup(krange) for part in idf.materialize_partitions()]
        scanned = [n for _, n in reads]
        matched = sum(1 for r in rows if 10 <= r[0] <= 29)
        assert sum(len(part_rows) for part_rows, _ in reads) == matched
        want = {
            "ordered_index_range_scans_total": 4.0,
            "ordered_index_rows_scanned_total": float(sum(scanned)),
            "ordered_index_rows_matched_total": float(matched),
        }
        seen = {name: [] for name in ("inc", "observe", "count_and_observe")}

        def recording(name, real):
            def call(first, *args, **kwargs):
                seen[name].append(first)  # a series name, or a key
                return real(first, *args, **kwargs)

            return call

        for name in seen:
            setattr(reg, name, recording(name, getattr(reg, name)))
        text = "SELECT * FROM edges4 WHERE src BETWEEN 10 AND 29"
        physical = session.plan_physical(session.sql_logical(text))
        assert isinstance(physical, IndexedRangeScanExec)
        for path, read in (("job", lambda: physical.execute().collect()), ("direct", lambda: session.execute(physical))):
            before = {name: reg.counter_total(name) for name in want}
            hist = reg.histogram_stats("ordered_index_range_selectivity")["count"]
            seen["count_and_observe"].clear()
            assert sorted(read()) == sorted(r for r in rows if 10 <= r[0] <= 29), path
            assert {name: reg.counter_total(name) - before[name] for name in want} == want, path
            assert reg.histogram_stats("ordered_index_range_selectivity")["count"] - hist == sum(
                1 for n in scanned if n), path
            assert len(seen["count_and_observe"]) == 4, path  # one registry call per partition read
        assert not [n for n in seen["inc"] + seen["observe"] if n.startswith("ordered_index_")]


def leaf_of(plan):
    while isinstance(plan, RowwiseExec):
        plan = plan.child
    return plan


def outcome(run):
    """``("rows", rows)``, or ``("raises", exception type)``."""
    try:
        return "rows", run()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raises", type(exc)


class TestTemplateBind:
    """A prepared statement's index leaf binds from values: the plan it
    builds is the one planning the bound statement builds, and binding it
    neither rebuilds an expression nor re-extracts keys or ranges."""

    #: Every shape a ``?`` can take in a claimed conjunct, and residuals.
    TEMPLATES = {
        "SELECT * FROM users WHERE uid = ?": 1,
        "SELECT * FROM users WHERE ? = uid": 1,
        "SELECT * FROM users WHERE uid IN (?, 7, ?)": 2,
        "SELECT * FROM users WHERE uid IN (?, ?) AND uid = ?": 3,
        "SELECT name FROM users WHERE uid = ? AND score > ?": 2,
        "SELECT * FROM users WHERE uid BETWEEN ? AND ?": 2,
        "SELECT * FROM users WHERE ? < uid AND uid <= ?": 2,
        "SELECT * FROM users WHERE uid >= ? AND uid < 150": 1,
        "SELECT * FROM users WHERE uid > ? AND uid > ?": 2,
        "SELECT uid FROM users WHERE uid BETWEEN ? AND ? AND score < ?": 3,
        "SELECT * FROM users WHERE uid <= ? AND uid > 20 LIMIT 4": 1,
        "SELECT * FROM names WHERE name LIKE 'user1%' AND name >= ?": 1,
        "SELECT * FROM names WHERE name = ? OR name = 'user3'": 1,
        "SELECT uid FROM names WHERE ? > name AND name > ?": 2,
    }

    @pytest.fixture()
    def served(self, session):
        users = make_users(200)
        router = ShardRouter(session, 3)
        for view, key in (("users", "uid"), ("names", "name")):
            idf = session.create_dataframe(users, USER_SCHEMA, view).create_index(key)
            router.publish(view, idf)
        yield session, router
        router.shutdown()

    @staticmethod
    def value(rng, template):
        if "names" in template:
            return rng.choice([None, "user1", "user10", "user3", "user5", "user9", "zz"])
        return rng.choice([None, rng.randrange(-5, 210), rng.randrange(-5, 210), 7, 7.0, 150])

    def test_bound_template_equals_planning_the_bound_statement(self, served):
        session, router = served
        rng = random.Random(40)
        bindings = 0
        for text, arity in self.TEMPLATES.items():
            statement = session.prepare(text)
            for _ in range(25):
                params = [self.value(rng, text) for _ in range(arity)]
                if arity > 1 and rng.random() < 0.3:
                    params[1] = params[0]  # a duplicate key / equal bounds
                if "score" in text:
                    params[-1] = rng.choice([None, 0.0, 50.0])
                bound = statement.plan(params)
                planned = session.plan_physical(statement.bind(params))
                # The same leaf: keys in the same order, the same range.
                assert repr(leaf_of(bound)) == repr(leaf_of(planned)), (text, params)
                want = outcome(lambda: session.execute(planned))
                assert outcome(lambda: session.execute(bound)) == want, (text, params)
                routed = outcome(lambda: sorted(router.query(text, params=params).rows, key=repr))
                # A residual comparison with NULL raises on every path (ROADMAP item 14).
                assert routed[0] == want[0], (text, params)
                if want[0] == "rows":
                    assert routed[1] == sorted(want[1], key=repr), (text, params)
                bindings += 1
        assert bindings >= 200

    def test_binding_rebuilds_no_expression_and_extracts_nothing(self, served, monkeypatch):
        session, router = served
        calls = []

        def counting(name, real):
            return lambda *a, **k: (calls.append(name), real(*a, **k))[1]

        for module in ("repro.sql.prepared", "repro.sql.physical", "repro.indexed.operators", "repro.indexed.rules"):
            for name in ("bind_expression", "extract_lookup_keys", "extract_key_range"):
                real = getattr(sys.modules[module], name, None)
                if real is not None:
                    monkeypatch.setattr(sys.modules[module], name, counting(name, real))
        point = session.prepare("SELECT * FROM users WHERE uid = ?")
        span = session.prepare("SELECT * FROM users WHERE uid BETWEEN ? AND ?")
        for i in range(1000):
            assert len(point.execute([i % 200])) == 1
            assert len(span.execute([i % 190, i % 190 + 9])) == 10
        for i in range(100):
            assert len(router.query(point.text, params=[i]).rows) == 1
        assert calls == []

    def test_only_expressions_holding_a_parameter_are_bound(self, served, monkeypatch):
        session, _router = served
        calls = []
        for module in ("repro.sql.physical", "repro.indexed.operators"):
            real = sys.modules[module].bind_expression
            monkeypatch.setattr(
                sys.modules[module], "bind_expression",
                lambda expr, values, real=real: (calls.append(expr), real(expr, values))[1],
            )
        fixed = session.prepare("SELECT name FROM users WHERE uid = ? AND score > 1")
        for i in range(100):
            assert fixed.execute([i]) == session.sql(
                f"SELECT name FROM users WHERE uid = {i} AND score > 1").collect_tuples()
        assert calls == []  # the residual and the projection hold no ?
        varying = session.prepare("SELECT name FROM users WHERE uid = ? AND score > ?")
        for i in range(100):
            score = i % 3 * 25.0
            assert varying.execute([i, score]) == session.sql(
                f"SELECT name FROM users WHERE uid = {i} AND score > {score}").collect_tuples()
        assert len(calls) == 100  # the residual, once an execution; the projection never
