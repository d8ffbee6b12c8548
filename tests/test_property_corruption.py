"""Differential oracle suite under seeded corruption chaos.

Satellite (c) of the integrity PR: 50 seeded random queries — point
lookups, SQL equality and range predicates, full scans, and group-by
aggregates — run against a session with ``chaos_corrupt_spill_prob``
turned on, each checked against a **pure-Python oracle** computed from the
raw row list (no engine code shared). The index is periodically spilled
so the spill fault-in boundary keeps getting re-armed.

The invariants are the tentpole's acceptance criteria: zero wrong
answers, zero unhandled crashes, and at the end of each run
``corruption_detected_total == corruption_repaired_total`` with at least
one corruption actually injected (the chaos seed is fixed, so "the chaos
fired" is deterministic, not flaky).

A second scenario covers the sharded serve tier: one replica of a pinned
snapshot is damaged, the scrubber repairs it, and 50 seeded routed
queries must all match the oracle without degraded results.
"""

from __future__ import annotations

import random

import pytest

from repro.config import Config
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, Schema
from tests.conftest import MODES

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))

SEEDS = list(range(50))
KEYS = 40
SPILL_EVERY = 7  # re-spill the index every few queries to re-arm the boundary


def normalize(rows):
    return sorted(tuple(r) for r in rows)


def make_edges():
    rng = random.Random(4096)
    return [
        (rng.randrange(KEYS), rng.randrange(KEYS), round(rng.random(), 4))
        for _ in range(3000)
    ]


def chaos_session(mode: str, spill_dir: str) -> Session:
    return Session(
        config=Config(
            default_parallelism=3,
            shuffle_partitions=3,
            scheduler_mode=mode,
            row_batch_size=4096,  # multiple sealed batches per partition, so
            spill_dir=spill_dir,  # spill_index() actually moves bytes to disk
            chaos_seed=29,
            chaos_corrupt_spill_prob=0.6,
            task_retry_backoff=0.0,
        )
    )


class CorruptionQueryGenerator:
    """One seeded random query: engine execution + pure-Python oracle."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def build(self, session, edges, idf):
        rng = self.rng
        kind = rng.randrange(5)
        if kind == 0:  # point lookup through the cTrie
            k = rng.randrange(KEYS)
            oracle = [r for r in edges if r[0] == k]
            return idf.lookup_tuples(k), oracle
        if kind == 1:  # SQL equality predicate (indexed lookup)
            k = rng.randrange(KEYS)
            sql = f"SELECT src, dst, w FROM edges_idx WHERE src = {k}"
            oracle = [r for r in edges if r[0] == k]
            return session.sql(sql).collect_tuples(), oracle
        if kind == 2:  # SQL range predicate; reversed bounds arise naturally
            lo, hi = rng.randrange(KEYS), rng.randrange(KEYS)
            sql = f"SELECT src, dst FROM edges_idx WHERE src BETWEEN {lo} AND {hi}"
            oracle = [(s, d) for s, d, _ in edges if lo <= s <= hi]
            return session.sql(sql).collect_tuples(), oracle
        if kind == 3:  # full scan
            return idf.to_df().collect_tuples(), list(edges)
        # kind == 4: group-by aggregate (drives a shuffle)
        sql = "SELECT src, count(*) AS n FROM edges_idx GROUP BY src"
        counts: dict[int, int] = {}
        for s, _d, _w in edges:
            counts[s] = counts.get(s, 0) + 1
        return session.sql(sql).collect_tuples(), list(counts.items())


@pytest.fixture(scope="module")
def edges():
    return make_edges()


@pytest.mark.parametrize("mode", MODES)
def test_50_seed_corruption_differential(edges, mode, tmp_path):
    """Zero wrong answers and detected == repaired over 50 seeds per mode."""
    session = chaos_session(mode, str(tmp_path))
    idf = (
        session.create_dataframe(edges, EDGE_SCHEMA, "edges")
        .create_index("src")
        .cache_index()
    )
    idf.create_or_replace_temp_view("edges_idx")

    mismatches = []
    for i, seed in enumerate(SEEDS):
        if i % SPILL_EVERY == 0:
            # Re-arm the spill boundary: sealed batches go to disk (the
            # chaos hook may damage the files) and fault back in on the
            # next query, where verification must catch any damage.
            idf.spill_index()
        got, want = CorruptionQueryGenerator(seed).build(session, edges, idf)
        if normalize(got) != normalize(want):
            mismatches.append(seed)
    assert mismatches == [], (
        f"corruption chaos changed answers for seeds {mismatches} in {mode} mode"
    )

    reg = session.context.registry
    detected = reg.counter_total("corruption_detected_total")
    repaired = reg.counter_total("corruption_repaired_total")
    assert detected > 0, f"chaos never fired in {mode} mode (seed drift?)"
    assert detected == repaired, (
        f"{detected} corruptions detected but {repaired} repaired in {mode} mode"
    )
    assert session.context.faults.corruptions  # chaos ledger non-empty


def test_sharded_serve_corrupted_replica_matches_oracle(edges):
    """One replica of a pinned snapshot is damaged; after a scrub cycle all
    50 seeded routed point queries match the oracle, undegraded."""
    from repro.integrity import corrupt_buffer
    from repro.serve.router import RouterConfig, ShardRouter
    from repro.serve.scrub import SnapshotScrubber

    session = Session(
        config=Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=4096,
            task_retry_backoff=0.0,
        )
    )
    idf = (
        session.create_dataframe(edges, EDGE_SCHEMA, "edges")
        .create_index("src")
        .cache_index()
    )
    with ShardRouter(session, 3, RouterConfig(replication_factor=2)) as router:
        router.publish("v", idf)
        owner = router.routing_table("v")[0][0]
        part = router.shards[owner].snapshot("v").parts[0]
        for batch, wm in zip(part.batches, part.visible_watermarks()):
            if wm:
                corrupt_buffer(batch.buf, wm, "bit_flip")
                break
        stats = SnapshotScrubber(router).scrub_once()
        assert stats["found"] == 1 and stats["repaired"] == 1

        rng = random.Random(17)
        mismatches = []
        for seed in SEEDS:
            k = rng.randrange(KEYS)
            res = router.query(f"SELECT src, dst, w FROM v WHERE src = {k}")
            assert not res.degraded, f"seed {seed}: degraded result after repair"
            want = [r for r in edges if r[0] == k]
            if normalize(res.rows) != normalize(want):
                mismatches.append(seed)
        assert mismatches == [], f"post-repair routed queries diverged: {mismatches}"

    reg = session.context.registry
    assert reg.counter_total("corruption_detected_total") == reg.counter_total(
        "corruption_repaired_total"
    )
