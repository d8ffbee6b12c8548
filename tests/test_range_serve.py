"""Serve-tier range path: range-kind recognition, snapshot range
lookups, and shard fan-out with failover.

A recognized single-range query must serve from the pinned snapshot's
ordered indexes (``path == "range"``) with exact oracle agreement —
including inclusive/exclusive bounds and parameter binding — and the
sharded router must fan the range out to live replicas, surviving a
killed shard with a complete answer (replicated) or an explicitly
``degraded`` partial one (unreplicated), never a silent wrong answer.
"""

from __future__ import annotations

import random

import pytest

from repro.config import Config
from repro.serve.router import RouterConfig, ShardRouter
from repro.serve.server import QueryServer, ServeConfig
from repro.sql.session import Session
from repro.sql.types import LONG, STRING, Schema

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("tag", STRING))
KEYS = 200


def make_rows(n=2000, seed=7):
    rng = random.Random(seed)
    return [(rng.randrange(KEYS), i, f"user{i % 50:04d}") for i in range(n)]


def normalize(rows):
    return sorted(tuple(r) for r in rows)


@pytest.fixture()
def session():
    return Session(config=Config(default_parallelism=4, shuffle_partitions=4))


@pytest.fixture()
def rows():
    return make_rows()


@pytest.fixture()
def served(session, rows):
    idf = session.create_dataframe(rows, EDGE_SCHEMA).create_index("src").cache_index()
    server = QueryServer(session, ServeConfig())
    server.publish("edges_idx", idf)
    yield server, idf
    server.shutdown()


class TestServerRangePath:
    def test_between_served_on_range_path(self, served, rows):
        server, _ = served
        res = server.query("SELECT src, dst FROM edges_idx WHERE src BETWEEN 50 AND 59")
        assert res.path == "range"
        assert normalize(res.rows) == normalize(
            (s, d) for s, d, _ in rows if 50 <= s <= 59
        )

    def test_parameterized_half_open_bounds(self, served, rows):
        server, _ = served
        lt = server.query(
            "SELECT src FROM edges_idx WHERE src >= ? AND src < ?", params=[100, 110]
        )
        le = server.query(
            "SELECT src FROM edges_idx WHERE src >= ? AND src <= ?", params=[100, 110]
        )
        assert lt.path == "range" and le.path == "range"
        assert normalize(lt.rows) == normalize((s,) for s, _, _ in rows if 100 <= s < 110)
        assert normalize(le.rows) == normalize((s,) for s, _, _ in rows if 100 <= s <= 110)
        # The boundary key exists, so conflating < with <= must show up.
        assert len(le.rows) > len(lt.rows)

    def test_prefix_like_on_string_key(self, session):
        rows = [(f"user{i % 30:03d}", i) for i in range(500)]
        idf = (
            session.create_dataframe(rows, Schema.of(("name", STRING), ("uid", LONG)))
            .create_index("name")
            .cache_index()
        )
        server = QueryServer(session, ServeConfig())
        server.publish("users_idx", idf)
        res = server.query("SELECT name, uid FROM users_idx WHERE name LIKE 'user01%'")
        assert res.path == "range"
        assert normalize(res.rows) == normalize(
            r for r in rows if r[0].startswith("user01")
        )
        server.shutdown()

    def test_empty_and_reversed_ranges(self, served):
        server, _ = served
        rev = server.query("SELECT src FROM edges_idx WHERE src BETWEEN 90 AND 10")
        assert rev.path == "range" and rev.rows == []
        empty = server.query(
            "SELECT src FROM edges_idx WHERE src > ? AND src < ?", params=[50, 51]
        )
        assert empty.path == "range" and empty.rows == []

    def test_equality_still_owns_the_point_path(self, served):
        server, _ = served
        res = server.query("SELECT dst FROM edges_idx WHERE src = 42")
        assert res.path == "fastpath"

    def test_range_recognition_is_memoized(self, served):
        server, _ = served
        for _ in range(3):
            server.query("SELECT src FROM edges_idx WHERE src BETWEEN 10 AND 20")
        reg = server.registry
        assert reg.counter_total("ordered_index_range_scans_total") == 0  # no jobs ran
        # Same text thrice: the plan cache should have resolved the route
        # without re-parsing each time (hits >= 2).
        assert reg.counter_value("plan_cache_requests_total", outcome="hit") >= 2


class TestRouterRangeFanOut:
    def make_router(self, session, idf, num_shards=3, **cfg):
        router = ShardRouter(session, num_shards, RouterConfig(**cfg))
        router.publish("edges_idx", idf)
        return router

    def test_fan_out_matches_oracle(self, session, rows):
        idf = session.create_dataframe(rows, EDGE_SCHEMA).create_index("src").cache_index()
        router = self.make_router(session, idf)
        res = router.query("SELECT src, dst FROM edges_idx WHERE src BETWEEN 50 AND 79")
        assert res.path == "range" and not res.degraded
        assert normalize(res.rows) == normalize(
            (s, d) for s, d, _ in rows if 50 <= s <= 79
        )
        router.shutdown()

    def test_kill_one_shard_replicated_answer_stays_complete(self, session, rows):
        idf = session.create_dataframe(rows, EDGE_SCHEMA).create_index("src").cache_index()
        router = self.make_router(session, idf, replication_factor=2)
        want = normalize((s, d) for s, d, _ in rows if 50 <= s <= 79)
        router.kill_shard(0)
        res = router.query("SELECT src, dst FROM edges_idx WHERE src BETWEEN 50 AND 79")
        assert res.path == "range"
        assert not res.degraded
        assert normalize(res.rows) == want
        router.shutdown()

    def test_unreplicated_loss_degrades_explicitly(self, session, rows):
        idf = session.create_dataframe(rows, EDGE_SCHEMA).create_index("src").cache_index()
        router = self.make_router(
            session, idf, num_shards=2, replication_factor=1, auto_repair=False
        )
        router.kill_shard(1)
        res = router.query("SELECT src, dst FROM edges_idx WHERE src BETWEEN 0 AND 199")
        assert res.path == "range"
        assert res.degraded and res.missing_partitions
        want = normalize((s, d) for s, d, _ in rows)
        got = normalize(res.rows)
        assert len(got) < len(want)  # partial, and flagged as such
        assert set(got) <= set(want)  # but never wrong
        router.shutdown()

    def test_range_with_residual_predicate(self, session, rows):
        idf = session.create_dataframe(rows, EDGE_SCHEMA).create_index("src").cache_index()
        router = self.make_router(session, idf)
        res = router.query(
            "SELECT src, dst FROM edges_idx WHERE src BETWEEN 50 AND 79 AND dst < 500"
        )
        assert res.path == "range"
        assert normalize(res.rows) == normalize(
            (s, d) for s, d, _ in rows if 50 <= s <= 79 and d < 500
        )
        router.shutdown()
