"""Indexed physical operators: broadcast prefiltering, left joins, scans."""

import random

import pytest

from repro.config import Config
from repro.serve import QueryServer, ServeConfig
from repro.sql.functions import col
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, Schema

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))
PROBE_SCHEMA = Schema.of(("k", LONG))
DOUBLE_SCHEMA = Schema.of(("d", DOUBLE), ("x", LONG))


def make_rows(n=400, keys=40, seed=8):
    rng = random.Random(seed)
    return [(rng.randrange(keys), rng.randrange(keys), round(rng.random(), 4)) for _ in range(n)]


@pytest.fixture()
def env():
    session = Session(config=Config(default_parallelism=4, shuffle_partitions=4))
    rows = make_rows()
    df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
    idf = df.create_index("src").cache_index()
    return session, rows, idf


class TestBroadcastPath:
    def test_broadcast_join_prefilters_by_partition(self, env):
        """The broadcast fallback buckets probe rows by the index's
        partitioner, so each partition only probes keys it can own."""
        session, rows, idf = env
        probe = session.create_dataframe([(k,) for k in range(40)], PROBE_SCHEMA, "p")
        # Small probe => broadcast path (default 10 MB threshold).
        joined = probe.join(idf.to_df(), on=("k", "src"))
        got = sorted(joined.collect_tuples())
        want = sorted((r[0],) + r for r in rows)
        assert got == want

    def test_broadcast_accounts_network(self, env):
        session, rows, idf = env
        session.context.network.reset_counters()
        probe = session.create_dataframe([(1,), (2,)], PROBE_SCHEMA, "p")
        probe.join(idf.to_df(), on=("k", "src")).collect_tuples()
        assert session.context.network.bytes_cross_machine > 0
        assert "broadcast" in session.phase_timer.phases


class TestLeftJoin:
    def test_left_join_probe_preserved(self, env):
        session, rows, idf = env
        probe = session.create_dataframe(
            [(1,), (2,), (99999,)], PROBE_SCHEMA, "p"
        )
        joined = probe.join(idf.to_df(), on=("k", "src"), how="left")
        from repro.indexed.operators import IndexedJoinExec

        physical = session.plan_physical(joined.plan)
        assert isinstance(physical, IndexedJoinExec)
        got = joined.collect_tuples()
        matched = [t for t in got if t[0] != 99999]
        unmatched = [t for t in got if t[0] == 99999]
        assert unmatched == [(99999, None, None, None)]
        want = sorted((k,) + r for k in (1, 2) for r in rows if r[0] == k)
        assert sorted(matched) == want

    def test_left_join_with_indexed_left_falls_back(self, env):
        """A left-outer join preserving the indexed side cannot use the
        lookup-based operator; it must fall back and stay correct."""
        session, rows, idf = env
        probe = session.create_dataframe([(1,)], PROBE_SCHEMA, "p")
        joined = idf.to_df().join(probe, on=("src", "k"), how="left")
        from repro.indexed.operators import IndexedJoinExec

        physical = session.plan_physical(joined.plan)
        assert not isinstance(physical, IndexedJoinExec)
        got = joined.collect_tuples()
        assert len(got) == len(rows)  # every indexed row preserved
        assert all((t[3] == 1) == (t[0] == 1) for t in got)


class TestIndexedJoinResidual:
    def test_residual_via_sql(self, env):
        session, rows, idf = env
        idf.create_or_replace_temp_view("edges")
        session.create_dataframe(
            [(k,) for k in range(40)], PROBE_SCHEMA, "p"
        ).create_or_replace_temp_view("p")
        got = session.sql(
            "SELECT k, dst FROM p JOIN edges ON k = src AND w > 0.5"
        ).collect_tuples()
        want = sorted((r[0], r[1]) for r in rows if r[2] > 0.5)
        assert sorted(got) == want


class TestIndexedScan:
    def test_scan_preserves_partitioning(self, env):
        session, _, idf = env
        from repro.indexed.operators import IndexedScanExec

        scan = IndexedScanExec(session, idf)
        rdd = scan.execute()
        assert rdd.partitioner == idf.partitioner

    def test_scan_feeds_downstream_shuffle_free_group_by(self, env):
        """group_by on the index key over indexed data: the scan's preserved
        partitioning lets reduce_by_key-style ops skip a shuffle when keyed
        identically; results must match regardless."""
        session, rows, idf = env
        from collections import Counter

        got = dict(
            idf.to_df().group_by("src").count().collect_tuples()
        )
        assert got == dict(Counter(r[0] for r in rows))


class TestLookupExec:
    def test_multi_key_lookup_spans_partitions(self, env):
        session, rows, idf = env
        keys = [0, 1, 2, 3, 17, 39]
        got = sorted(
            idf.to_df().where(col("src").isin(*keys)).collect_tuples()
        )
        want = sorted(r for r in rows if r[0] in keys)
        assert got == want

    def test_lookup_duplicated_in_keys(self, env):
        session, rows, idf = env
        got = idf.to_df().where(col("src").isin(5, 5, 5)).collect_tuples()
        assert sorted(got) == sorted(r for r in rows if r[0] == 5)


class TestIntegralKeys:
    def test_an_int_finds_a_double_keyed_row_on_every_read(self):
        """``7 == 7.0`` and so ``hash64(7) == hash64(7.0)``: a point query, a
        lookup, a served read and a LONG probe find what the plain table finds."""
        session = Session(config=Config(default_parallelism=4, shuffle_partitions=4))
        rows = [(float(i % 100), i) for i in range(1500)]
        plain = session.create_dataframe(rows, DOUBLE_SCHEMA, "plain")
        plain.create_or_replace_temp_view("plain")
        idf = plain.create_index("d")
        idf.create_or_replace_temp_view("t")
        probe = session.create_dataframe([(k,) for k in range(0, 120, 3)], PROBE_SCHEMA, "p")
        probe.create_or_replace_temp_view("p")
        server = QueryServer(session, ServeConfig(num_workers=1))
        server.publish("t", idf)
        with server:
            for k in range(10):
                want = sorted(session.sql(f"SELECT * FROM plain WHERE d = {k}").collect_tuples())
                assert len(want) == 15
                assert sorted(session.sql(f"SELECT * FROM t WHERE d = {k}").collect_tuples()) == want
                assert sorted(idf.lookup_tuples(k)) == want
                served = server.query("SELECT * FROM t WHERE d = ?", params=[k]).rows
                assert sorted(served) == want
        query = "SELECT * FROM p JOIN t ON k = d"
        assert "IndexedJoin(" in session.sql_explain(query)
        joined = sorted(session.sql(query).collect_tuples())
        assert joined == sorted(session.sql("SELECT * FROM p JOIN plain ON k = d").collect_tuples())
        assert len(joined) == 34 * 15


JOIN_SCHEMA = Schema.of(("k", LONG), ("v", LONG), ("w", DOUBLE))
DOUBLE_KEYED = Schema.of(("dk", DOUBLE), ("dv", LONG))
PROBE_ROWS = Schema.of(("pk", LONG), ("x", LONG))
JOIN_QUERIES = (
    "SELECT * FROM p JOIN t ON pk = k",
    "SELECT * FROM t JOIN p ON k = pk",
    "SELECT * FROM p LEFT JOIN t ON pk = k",
    "SELECT * FROM p JOIN t ON pk = k AND w > 0.5",
    "SELECT * FROM p LEFT JOIN t ON pk = k AND v % 3 = x",
    "SELECT * FROM p JOIN d ON pk = dk",
)


def join_answers(rows, appended, probe, broadcast, threshold=None):
    """Every query's rows, sorted; ``threshold`` None joins plain tables."""
    config = Config(
        default_parallelism=4,
        shuffle_partitions=4,
        ordered_index_compact_threshold=threshold or 0,
        **({} if broadcast else {"broadcast_threshold": 0}),
    )
    session = Session(config=config)
    doubles = [(float(k), v) for k, v, _ in rows]
    if threshold is None:
        t = session.create_dataframe(rows + appended, JOIN_SCHEMA, "t")
        d = session.create_dataframe(doubles, DOUBLE_KEYED, "d")
    else:
        t = session.create_dataframe(rows, JOIN_SCHEMA, "t").create_index("k")
        t = t.append_rows(appended) if appended else t
        d = session.create_dataframe(doubles, DOUBLE_KEYED, "d").create_index("dk")
    t.create_or_replace_temp_view("t")
    d.create_or_replace_temp_view("d")
    session.create_dataframe(probe, PROBE_ROWS, "p").create_or_replace_temp_view("p")
    answers = []
    for query in JOIN_QUERIES:
        if threshold is not None:
            assert "IndexedJoin(" in session.sql_explain(query), query
        answers.append(sorted(session.sql(query).collect_tuples(), key=repr))
    runs = [] if threshold is None else [p.ordered.base.runs for p in t.materialize_partitions()]
    return answers, runs


@pytest.mark.parametrize("seed", range(50))
def test_run_reader_joins_like_the_chain_walk(seed):
    """Runs (threshold 512: a first build seals a key-ordered base) against
    chain walks (threshold 0) and a plain join: inner and left, a residual,
    the index on either side, duplicate, absent and NULL probe keys, an
    append the delta shadows, a LONG probe of a DOUBLE key."""
    rng = random.Random(seed)
    domain = rng.choice((4, 50, 400))
    rows = [(rng.randrange(domain), i, rng.random()) for i in range(rng.randrange(40, 1200))]
    probe = [
        (None if rng.random() < 0.1 else rng.randrange(domain + 10), rng.randrange(3))
        for _ in range(rng.randrange(1, 40))
    ]
    probe += probe[: rng.randrange(4)]
    appended = [(rng.randrange(domain + 5), -i, 0.25) for i in range(rng.randrange(20))]
    appended = appended if rng.random() < 0.5 else []
    broadcast = rng.random() < 0.7
    by_runs, runs = join_answers(rows, appended, probe, broadcast, threshold=512)
    by_chains, chains = join_answers(rows, appended, probe, broadcast, threshold=0)
    plain, _ = join_answers(rows, appended, probe, broadcast)
    assert any(runs) and not any(chains)
    assert by_runs == by_chains == plain
