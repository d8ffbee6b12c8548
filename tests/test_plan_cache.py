"""Plan cache + prepared statements: keying, reuse, epoch invalidation."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.engine.context import EngineContext
from repro.sql.parser import SQLParseError
from repro.sql.plan_cache import PlanCache, normalize_sql
from repro.sql.session import Session

from .conftest import USER_SCHEMA, make_users


def make_session(**overrides) -> Session:
    config = Config(
        default_parallelism=4, shuffle_partitions=4, row_batch_size=4096, **overrides
    )
    session = Session(context=EngineContext(config=config))
    session.create_dataframe(
        make_users(60), USER_SCHEMA, name="users"
    ).create_or_replace_temp_view("users")
    return session


class TestNormalizeSQL:
    def test_case_and_whitespace_fold(self):
        assert normalize_sql("SELECT  *\nFROM Users") == normalize_sql("select * from users")

    def test_string_literals_keep_case_and_spacing(self):
        a = normalize_sql("SELECT * FROM t WHERE name = 'Ada  B'")
        b = normalize_sql("select * from t where name = 'ada  b'")
        assert a != b
        assert "'Ada  B'" in a

    def test_escaped_quote_inside_literal(self):
        norm = normalize_sql("SELECT * FROM t WHERE name = 'O''Brien'  ")
        assert "'O''Brien'" in norm


class TestLogicalPlanCache:
    def test_identical_text_reuses_logical_plan(self):
        session = make_session()
        p1 = session.sql_logical("SELECT * FROM users WHERE uid = 3")
        p2 = session.sql_logical("select  *  from users where uid = 3")
        assert p1 is p2
        stats = session.plan_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_physical_plan_reused_after_first_execution(self):
        session = make_session()
        text = "SELECT name, SUM(score) AS s FROM users GROUP BY name"
        first = session.sql(text).collect_tuples()
        logical = session.sql_logical(text)
        physical_1 = session.plan_physical(logical)
        physical_2 = session.plan_physical(session.sql_logical(text))
        assert physical_1 is physical_2
        assert sorted(session.sql(text).collect_tuples()) == sorted(first)

    def test_catalog_change_invalidates_entry(self):
        session = make_session()
        text = "SELECT * FROM users WHERE uid = 1"
        p1 = session.sql_logical(text)
        epoch_before = session.catalog.epoch
        session.create_dataframe(
            make_users(5), USER_SCHEMA, name="other"
        ).create_or_replace_temp_view("other")
        assert session.catalog.epoch > epoch_before
        p2 = session.sql_logical(text)
        assert p1 is not p2  # stale entry evicted, re-parsed

    def test_new_indexed_version_is_visible_through_cache(self):
        """The invalidation property that matters for serving: republish a
        view at a new MVCC version and cached plans must not serve the old
        one."""
        session = make_session()
        idf = session.table("users").create_index("uid")
        idf.create_or_replace_temp_view("users")
        text = "SELECT * FROM users WHERE uid = 4242"
        assert session.sql(text).collect_tuples() == []
        child = idf.append_rows([(4242, "fresh", 1.0)])
        child.create_or_replace_temp_view("users")
        assert session.sql(text).collect_tuples() == [(4242, "fresh", 1.0)]

    def test_capacity_zero_disables_caching(self):
        session = make_session(plan_cache_capacity=0)
        text = "SELECT * FROM users WHERE uid = 1"
        p1 = session.sql_logical(text)
        p2 = session.sql_logical(text)
        assert p1 is not p2
        assert len(session.plan_cache) == 0

    def test_lru_eviction_respects_capacity(self):
        cache = PlanCache(capacity=2)
        from repro.sql.plan_cache import CachedPlan

        entries = [CachedPlan(f"q{i}", 0, object()) for i in range(3)]
        for e in entries:
            cache.store(e)
        assert len(cache) == 2
        assert cache.lookup("q0", 0) is None  # oldest evicted
        assert cache.lookup("q2", 0) is entries[2]

    def test_registry_counters_flow(self):
        session = make_session()
        text = "SELECT * FROM users WHERE uid = 2"
        session.sql_logical(text)
        session.sql_logical(text)
        registry = session.context.registry
        assert registry.counter_value("plan_cache_requests_total", outcome="miss") >= 1
        assert registry.counter_value("plan_cache_requests_total", outcome="hit") >= 1


class TestPreparedStatements:
    def test_bind_and_execute_multiple_times(self):
        session = make_session()
        statement = session.prepare("SELECT * FROM users WHERE uid = ?")
        rows = {r[0]: r for r in make_users(60)}
        for uid in (0, 7, 59):
            assert statement.execute([uid]) == [rows[uid]]
        assert statement.execute([999]) == []

    def test_multiple_parameters(self):
        session = make_session()
        statement = session.prepare(
            "SELECT name FROM users WHERE uid = ? AND score > ?"
        )
        reference = session.sql(
            "SELECT name FROM users WHERE uid = 5 AND score > 0"
        ).collect_tuples()
        assert statement.execute([5, 0]) == reference
        assert statement.execute([5, 1e9]) == []

    def test_wrong_arity_rejected(self):
        session = make_session()
        statement = session.prepare("SELECT * FROM users WHERE uid = ?")
        with pytest.raises(ValueError):
            statement.execute([])
        with pytest.raises(ValueError):
            statement.execute([1, 2])

    def test_template_parse_is_cached(self):
        session = make_session()
        s1 = session.prepare("SELECT * FROM users WHERE uid = ?")
        s2 = session.prepare("select * from users where uid = ?")
        assert s1.template is s2.template

    def test_an_unplannable_template_is_tried_once_per_epoch(self, monkeypatch):
        """A ``?`` whose type the template's plan needs: the statement binds
        first, and plans the template at most once per catalog epoch."""
        session = make_session()
        text = "SELECT uid, ? AS x FROM users WHERE uid = ?"
        templates: list = []
        plan_physical = session.plan_physical

        def counting(logical):
            templates.append(logical)
            return plan_physical(logical)

        monkeypatch.setattr(session, "plan_physical", counting)
        for epoch in range(2):
            statement = session.prepare(text)
            for uid in range(10):
                plain = session.sql(f"SELECT uid, 7 AS x FROM users WHERE uid = {uid}")
                assert statement.execute([7, uid]) == plain.collect_tuples() == [(uid, 7)]
            assert sum(logical is statement.template for logical in templates) == 1, epoch
            more = session.create_dataframe(make_users(5), USER_SCHEMA, name="more")
            more.create_or_replace_temp_view("more")  # a new catalog epoch

    def test_plain_sql_rejects_parameter_marker(self):
        session = make_session()
        with pytest.raises(SQLParseError):
            session.sql("SELECT * FROM users WHERE uid = ?")

    def test_prepared_fast_path_equivalence_through_indexed_view(self):
        session = make_session()
        idf = session.table("users").create_index("uid")
        idf.create_or_replace_temp_view("users")
        statement = session.prepare("SELECT name, score FROM users WHERE uid = ?")
        for uid in (1, 30, 59):
            assert statement.execute([uid]) == session.sql(
                f"SELECT name, score FROM users WHERE uid = {uid}"
            ).collect_tuples()
