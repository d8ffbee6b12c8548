"""Differential oracle suite for range/prefix scans and range joins.

Satellite (a) of the ordered-index PR: 100 seeded random queries —
``BETWEEN``, ``<``/``<=``/``>``/``>=``, ``NOT BETWEEN``, prefix ``LIKE``,
range + residual conjunctions, and an indexed range scan feeding an
equi-join — each checked against an **unindexed full-scan oracle**: a
pure-Python filter over the raw row lists, sharing no code with the
engine's seek path. Runs in all three scheduler modes under seeded chaos
(task kills, executor replacement, memory squeezes), so retries and
lineage rebuilds are exercised on the exact plans under test.

Bound-conflation bugs are the target: the generator draws ``lo``/``hi``
independently (reversed and empty ranges arise naturally) and both
endpoints are drawn from the live key domain, so inclusive-vs-exclusive
mistakes at an occupied boundary always change the answer.
"""

from __future__ import annotations

import random

import pytest

from repro.config import Config
from repro.sql.functions import col
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema
from tests.conftest import MODES

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))
DIM_SCHEMA = Schema.of(("node", LONG), ("label", STRING))
USER_SCHEMA = Schema.of(("name", STRING), ("uid", LONG))

SEEDS = list(range(100))
KEYS = 100


def normalize(rows):
    return sorted(tuple(r) for r in rows)


def make_data():
    rng = random.Random(2024)
    edges = [
        (rng.randrange(KEYS), rng.randrange(KEYS), round(rng.random(), 4))
        for _ in range(600)
    ]
    dims = [(k, f"label{k % 5}") for k in range(KEYS)]
    users = [(f"user{rng.randrange(80):03d}", i) for i in range(400)]
    return edges, dims, users


def make_session(mode: str) -> Session:
    session = Session(
        config=Config(
            default_parallelism=3,
            shuffle_partitions=3,
            scheduler_mode=mode,
            executor_replacement=True,
            task_retry_backoff=0.0,
        )
    )
    session.context.faults.configure(seed=7, task_failure_prob=0.05, memory_squeeze_prob=0.05)
    return session


class RangeQueryGenerator:
    """One seeded random range query: SQL/DataFrame build + Python oracle."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def _bound(self):
        return self.rng.randrange(KEYS)

    def build(self, session, edges, dims, users, edges_idf, dims_df):
        rng = self.rng
        kind = rng.randrange(6)
        if kind == 0:  # BETWEEN (inclusive both ends); reversed bounds happen
            lo, hi = self._bound(), self._bound()
            sql = f"SELECT src, dst FROM edges_idx WHERE src BETWEEN {lo} AND {hi}"
            oracle = [(s, d) for s, d, _ in edges if lo <= s <= hi]
            return session.sql(sql).collect_tuples(), oracle
        if kind == 1:  # single comparison, all four operators
            op = rng.choice(["<", "<=", ">", ">="])
            v = self._bound()
            sql = f"SELECT src, dst, w FROM edges_idx WHERE src {op} {v}"
            cmp = {
                "<": lambda s: s < v,
                "<=": lambda s: s <= v,
                ">": lambda s: s > v,
                ">=": lambda s: s >= v,
            }[op]
            oracle = [r for r in edges if cmp(r[0])]
            return session.sql(sql).collect_tuples(), oracle
        if kind == 2:  # NOT BETWEEN (stays a full scan; still must agree)
            lo, hi = sorted((self._bound(), self._bound()))
            sql = f"SELECT src FROM edges_idx WHERE src NOT BETWEEN {lo} AND {hi}"
            oracle = [(s,) for s, _, _ in edges if not (lo <= s <= hi)]
            return session.sql(sql).collect_tuples(), oracle
        if kind == 3:  # range + residual conjunction (residual stays a Filter)
            lo, hi = self._bound(), self._bound()
            c = round(rng.random(), 4)
            sql = (
                "SELECT src, dst, w FROM edges_idx "
                f"WHERE src >= {lo} AND src <= {hi} AND w > {c}"
            )
            oracle = [r for r in edges if lo <= r[0] <= hi and r[2] > c]
            return session.sql(sql).collect_tuples(), oracle
        if kind == 4:  # prefix LIKE on a string-keyed index
            p = f"user{rng.randrange(10)}"
            sql = f"SELECT name, uid FROM users_idx WHERE name LIKE '{p}%'"
            oracle = [r for r in users if r[0].startswith(p)]
            return session.sql(sql).collect_tuples(), oracle
        # kind == 5: indexed range scan feeding an equi-join
        lo, hi = self._bound(), self._bound()
        q = (
            edges_idf.to_df()
            .where(col("src").between(lo, hi))
            .join(dims_df, on=("src", "node"))
            .select("src", "dst", "label")
        )
        dim_label = dict(dims)
        oracle = [(s, d, dim_label[s]) for s, d, _ in edges if lo <= s <= hi]
        return q.collect_tuples(), oracle


@pytest.fixture(scope="module")
def data():
    return make_data()


@pytest.mark.parametrize("mode", MODES)
def test_100_seed_range_differential(data, mode):
    """Acceptance criterion: zero mismatches over 100 seeds per mode."""
    edges, dims, users = data
    session = make_session(mode)
    edges_idf = session.create_dataframe(edges, EDGE_SCHEMA, "edges").create_index(
        "src"
    ).cache_index()
    edges_idf.create_or_replace_temp_view("edges_idx")
    users_idf = session.create_dataframe(users, USER_SCHEMA, "users").create_index(
        "name"
    ).cache_index()
    users_idf.create_or_replace_temp_view("users_idx")
    dims_df = session.create_dataframe(dims, DIM_SCHEMA, "dims").cache()

    mismatches = []
    for seed in SEEDS:
        got, want = RangeQueryGenerator(seed).build(
            session, edges, dims, users, edges_idf, dims_df
        )
        if normalize(got) != normalize(want):
            mismatches.append(seed)
    assert mismatches == [], f"range queries diverged for seeds {mismatches} in {mode} mode"


@pytest.mark.parametrize("mode", MODES)
def test_range_differential_across_mvcc_versions(data, mode):
    """Range scans must honor MVCC: a parent version keeps answering range
    queries from *its* ordered index after child appends, and every child
    answers as if freshly built from the concatenated rows."""
    edges, _, _ = data
    session = make_session(mode)
    rng = random.Random(777)
    base = edges[:400]
    batch = [
        (rng.randrange(KEYS), rng.randrange(KEYS), round(rng.random(), 4))
        for _ in range(60)
    ]
    v0 = session.create_dataframe(base, EDGE_SCHEMA, "edges").create_index("src")
    v1 = v0.append_rows(batch)

    for idf, rows in ((v0, base), (v1, base + batch)):
        for lo, hi in ((10, 30), (55, 55), (90, 10), (0, KEYS)):
            got = idf.to_df().where(col("src").between(lo, hi)).collect_tuples()
            want = [r for r in rows if lo <= r[0] <= hi]
            assert normalize(got) == normalize(want), (
                f"v{idf.version} [{lo}, {hi}] diverged in {mode} mode"
            )
