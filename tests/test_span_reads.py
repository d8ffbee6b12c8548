"""Span reads of a key-ordered base, batch-grouped gathers, and the joins
that read runs (DESIGN.md §15, Runs).

A range over a first build whose delta is unwritten reads one span of
records between two ``searchsorted`` bounds; every other index state takes
the run reader or the chain walk. Each case below must return exactly the
rows — in the same order: keys ascending, each key newest first — that a
pure-Python oracle over the inserted rows gives, and that the chain walk
of a never-sealed index (threshold 0) gives. Batches are small, so runs
straddle batch boundaries, and keys repeat. The source ``range_read``
returns (the ``indexed_key_reads_total`` label a scan counts) says which
path each partition read took.
"""

from __future__ import annotations

import random

import pytest

from repro.config import Config
from repro.indexed.ordered_index import KeyRange
from repro.indexed.partition import IndexedPartition
from repro.sql.session import Session
from repro.sql.types import DOUBLE, INTEGER, LONG, STRING, Schema
from tests.test_indexed_operators import join_answers

KEY_TYPES = {"long": LONG, "integer": INTEGER, "double": DOUBLE}
#: 35-byte records: seven a batch, so a key's run often crosses into the next.
BATCH = 256


def schema_of(key_type) -> Schema:
    return Schema.of(("k", key_type), ("v", LONG), ("w", DOUBLE))


def make_rows(rng: random.Random, kind: str, n: int, domain: int, tag: int = 0) -> list[tuple]:
    rows = []
    for i in range(n):
        k = rng.randrange(domain)
        rows.append((k / 2 if kind == "double" else k, tag * 10_000 + i, rng.random()))
    return rows


def partition(kind: str, rows: list[tuple], threshold: int = 512) -> IndexedPartition:
    p = IndexedPartition(
        schema_of(KEY_TYPES[kind]), "k", batch_size=BATCH, ordered_compact_threshold=threshold
    )
    p.insert_rows(rows)
    return p


def oracle(rows: list[tuple], krange: KeyRange) -> list[tuple]:
    """Keys ascending, each key's rows newest (last inserted) first."""
    keys = sorted({r[0] for r in rows if r[0] is not None and krange.matches(r[0])})
    return [r for k in keys for r in reversed([row for row in rows if row[0] == k])]


def ranges(rng: random.Random, rows: list[tuple]) -> list[KeyRange]:
    """Inclusive, exclusive and open bounds at the first and last keys, one
    step outside the domain, between keys, and empty and reversed ranges."""
    keys = sorted({r[0] for r in rows if r[0] is not None})
    lo_key, hi_key = keys[0], keys[-1]
    points = [lo_key, hi_key, lo_key - 1, hi_key + 1, rng.choice(keys), rng.choice(keys) + 0.25]
    out = [KeyRange(), KeyRange(lo_key, lo_key), KeyRange(hi_key, hi_key)]
    out += [KeyRange(hi_key + 1, hi_key + 5), KeyRange(lo_key - 5, lo_key - 1)]
    out += [KeyRange(lo_key, lo_key, False, True), KeyRange(hi_key, lo_key)]  # empty, reversed
    for _ in range(12):
        lo, hi = rng.choice(points + [None]), rng.choice(points + [None])
        out.append(KeyRange(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return out


def read(p: IndexedPartition, krange: KeyRange) -> tuple[list[tuple], dict]:
    rows, scanned, source = p.range_read(krange)
    assert scanned == len(rows)  # integer keys: no collision to decode and drop
    assert p.range_lookup(krange) == (rows, scanned)
    return rows, {source: 1}


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("kind", sorted(KEY_TYPES))
def test_span_reads_answer_like_the_chain_walk(kind, seed):
    rng = random.Random(seed)
    domain = rng.choice((3, 12, 60))
    rows = make_rows(rng, kind, rng.randrange(2, 160), domain)
    appended = make_rows(rng, kind, rng.randrange(2, 12), domain + 4, tag=1)
    nulls = [(None, -1, 0.5), (None, -2, 0.75)]
    fresh = partition(kind, rows)
    assert fresh.ordered.base.runs and not fresh.ordered.delta_writes
    chains = partition(kind, rows, threshold=0)
    # An append the delta holds (the run reader, shadowed keys walked), a
    # seal over appends (a plain base: every key walked), NULL keys in the
    # delta, and the never-sealed cTrie.
    delta = fresh.snapshot(1)
    delta.insert_rows(appended)
    assert delta.ordered.delta_writes and delta.ordered.base.runs
    sealed = partition(kind, rows, threshold=1)
    sealed.insert_rows(appended)
    assert not sealed.ordered.base.runs
    null = fresh.snapshot(2)
    null.insert_rows(nulls)
    cases = [
        (fresh, rows, {"span"}),
        (chains, rows, {"walk"}),
        (delta, rows + appended, {"run", "walk"}),
        (sealed, rows + appended, {"walk"}),
        (null, rows + nulls, {"run"}),
    ]
    for krange in ranges(rng, rows):
        for p, inserted, sources in cases:
            got, counted = read(p, krange)
            assert got == oracle(inserted, krange), (p, krange)
            assert set(counted) <= sources and sum(counted.values()) == 1, (counted, krange)
        assert read(fresh, krange)[0] == read(chains, krange)[0]


@pytest.mark.parametrize("threshold", [512, 0])
def test_sql_ranges_keep_the_chain_walks_order(threshold):
    """Through SQL, over three partitions of small batches, a range returns
    the threshold-0 chain walk's list — order included — and the oracle's rows."""
    rng = random.Random(threshold)
    rows = make_rows(rng, "long", 900, 80)
    answers = {}
    for t in (threshold, 0):
        session = Session(config=Config(
            default_parallelism=3, row_batch_size=BATCH, ordered_index_compact_threshold=t,
        ))
        idf = session.create_dataframe(rows, schema_of(LONG), "t").create_index("k")
        idf.create_or_replace_temp_view("t")
        answers[t] = [
            session.sql(f"SELECT * FROM t WHERE k {cond}").collect_tuples()
            for cond in ("BETWEEN 10 AND 30", "> 75", "< 3", "BETWEEN 30 AND 10", ">= 0")
        ]
    assert answers[threshold] == answers[0]
    assert sorted(answers[0][0]) == sorted(r for r in rows if 10 <= r[0] <= 30)


def test_key_reads_count_where_rows_come_from():
    """A fresh fixed-width LONG-keyed table reads spans and runs only; a
    table with a STRING column walks; after a 200-row append the keys the
    delta shadows walk."""
    session = Session(config=Config(default_parallelism=4, shuffle_partitions=4))
    registry = session.context.registry
    rng = random.Random(3)
    rows = make_rows(rng, "long", 2000, 300)
    edges = session.create_dataframe(rows, schema_of(LONG), "edges").create_index("k")
    edges.create_or_replace_temp_view("edges")
    session.create_dataframe([(k,) for k in range(0, 320, 7)], Schema.of(("pk", LONG)), "p") \
        .create_or_replace_temp_view("p")

    def sources(query: str) -> dict:
        before = registry.counter_by_label("indexed_key_reads_total", "source")
        session.sql(query).collect_tuples()
        after = registry.counter_by_label("indexed_key_reads_total", "source")
        return {s: n - before.get(s, 0) for s, n in after.items() if n != before.get(s, 0)}

    assert sources("SELECT * FROM edges WHERE k BETWEEN 20 AND 90") == {"span": 4}
    assert sources("SELECT * FROM p JOIN edges ON pk = k") == {"run": 4}

    users = [(f"user{i % 97}", i, float(i)) for i in range(600)]
    user_schema = Schema.of(("name", STRING), ("uid", LONG), ("score", DOUBLE))
    session.create_dataframe(users, user_schema, "users").create_index("uid") \
        .create_or_replace_temp_view("users")
    assert sources("SELECT * FROM users WHERE uid BETWEEN 20 AND 90") == {"walk": 4}

    appended = edges.append_rows(make_rows(rng, "long", 200, 300, tag=1))
    appended.create_or_replace_temp_view("edges")
    assert set(sources("SELECT * FROM edges WHERE k BETWEEN 0 AND 299")) == {"walk"}
    assert set(sources("SELECT * FROM p JOIN edges ON pk = k")) <= {"run", "walk"}
    got = session.sql("SELECT * FROM edges WHERE k BETWEEN 0 AND 299").collect_tuples()
    assert len(got) == 2200


@pytest.mark.parametrize("seed", range(20))
def test_broadcast_and_shuffle_joins_agree_with_the_plain_join(seed):
    """The broadcast join (keys evaluated once, on the driver) against the
    shuffle join (``broadcast_threshold=0``) against a plain join: inner and
    left, a residual, the index on either side, duplicate, absent and NULL
    probe keys, with and without an append the delta shadows."""
    rng = random.Random(1000 + seed)
    domain = rng.choice((4, 50, 400))
    rows = [(rng.randrange(domain), i, rng.random()) for i in range(rng.randrange(40, 900))]
    probe = [
        (None if rng.random() < 0.15 else rng.randrange(domain + 10), rng.randrange(3))
        for _ in range(rng.randrange(1, 60))
    ]
    probe += probe[: rng.randrange(6)]
    appended = [(rng.randrange(domain + 5), -i, 0.25) for i in range(rng.randrange(2, 20))]
    appended = appended if seed % 2 else []
    broadcast, _ = join_answers(rows, appended, probe, True, threshold=512)
    shuffled, _ = join_answers(rows, appended, probe, False, threshold=512)
    plain, _ = join_answers(rows, appended, probe, True)
    assert broadcast == shuffled == plain
