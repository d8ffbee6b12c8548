"""Randomized query equivalence harness.

The strongest correctness property this system can offer: for *arbitrary*
queries, three executions must agree —

1. unoptimized plan over uncached data,
2. optimized plan over the columnar cache (vanilla Spark),
3. optimized plan over the Indexed DataFrame (indexed rules installed).

A seeded generator builds random query plans (filters with random
predicates, projections, equi-joins, aggregations, sorts/limits) through
the public DataFrame API; hypothesis drives the seeds.

The same generator, in its ``wide`` form, drives the column-kernel
differential: every query runs over indexed data with
``Config.indexed_column_kernels`` on and off and over uncached rows, and the
three row multisets must be equal — across all scheduler modes and over the
inputs that decide between the kernel and its row fallback (NULLs, strings
around the fixed-width columns, a non-contiguous MVCC sibling, appends after
a scan, spilled batches) and unique keys, whose record starts come from the
index.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.sql.expressions import IsNull
from repro.sql.functions import avg, col, count, max_, min_, sum_
from repro.sql.planner import Planner
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema
from tests.conftest import MODES

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))
DIM_SCHEMA = Schema.of(("node", LONG), ("label", STRING))
#: EDGE_SCHEMA with a string before and after the fixed-width columns, and
#: two columns that may hold NULL.
WIDE_SCHEMA = Schema.of(
    ("tag", STRING), ("src", LONG), ("dst", LONG), ("w", DOUBLE), ("opt", LONG), ("note", STRING)
)


def _norm(value):
    if isinstance(value, float):
        return round(value, 6)
    if value is None or isinstance(value, str):
        return value
    try:
        return int(value)
    except (TypeError, ValueError):  # pragma: no cover
        return value


def normalize(rows):
    # repr as the sort key: NULLs do not order against numbers.
    return sorted((tuple(_norm(v) for v in row) for row in rows), key=repr)


class QueryGenerator:
    """Builds one random query over (edges, dims) given a seeded RNG.
    ``wide``: the edges have WIDE_SCHEMA, and predicates, projections and
    aggregates also reach its strings, its nullable columns and arithmetic
    (always NULL-safe: no generated query raises)."""

    def __init__(self, rng: random.Random, keys: int, wide: bool = False) -> None:
        self.rng = rng
        self.keys = keys
        self.wide = wide

    def wide_predicate(self):
        rng = self.rng
        kind = rng.randrange(6)
        if kind == 0:
            return col("tag").like(f"t{rng.randrange(4)}%")
        if kind == 1:
            return (col("dst") * col("w") > rng.randrange(self.keys)) & (col("tag") != "t0")
        if kind == 2:
            return col("dst") % rng.randrange(2, 7) == 0
        if kind == 3:
            return IsNull(col("opt"), negated=True) & (col("opt") > rng.randrange(100))
        if kind == 4:
            return IsNull(col("note")) | (col("w") < rng.random())
        return (col("src") > rng.randrange(self.keys)) & (col("note") == f"n{rng.randrange(5)}")

    def wide_shape(self, df):
        rng = self.rng
        shape = rng.randrange(6)
        if shape == 0:
            return df.select("tag", "w", "note")
        if shape == 1:
            return df  # SELECT *
        if shape == 2:
            return df.agg(
                avg("w").alias("a"), min_("dst").alias("lo"), max_("w").alias("hi"),
                count("opt").alias("c"), sum_("opt").alias("s"), count().alias("n"),
            )
        if shape == 3:
            return df.group_by((col("dst") % 8).alias("bucket")).agg(
                count().alias("n"), sum_("dst").alias("s"), avg("w").alias("a")
            )
        if shape == 4:
            return df.group_by("tag", "src").agg(min_("w").alias("lo"), max_("dst").alias("hi"))
        return df.select("dst", "opt")

    def predicate(self):
        rng = self.rng
        if self.wide and rng.random() < 0.5:
            return self.wide_predicate()
        kind = rng.randrange(5)
        if kind == 0:
            return col("src") == rng.randrange(self.keys)
        if kind == 1:
            return col("w") > rng.random()
        if kind == 2:
            return (col("src") == rng.randrange(self.keys)) & (col("w") < rng.random())
        if kind == 3:
            return col("dst").isin(*[rng.randrange(self.keys) for _ in range(3)])
        return (col("src") > rng.randrange(self.keys)) | (col("w") >= rng.random())

    def build(self, edges_df, dims_df):
        rng = self.rng
        df = edges_df
        if rng.random() < 0.8:
            df = df.where(self.predicate())
        if self.wide and rng.random() < 0.6:
            return self.wide_shape(df)
        shape = rng.randrange(4)
        if shape == 0:  # projection
            return df.select("dst", (col("w") * 2).alias("w2"))
        if shape == 1:  # join with the dimension table
            joined = df.join(dims_df, on=("src", "node"))
            if rng.random() < 0.5:
                joined = joined.where(col("w") > rng.random())
            return joined.select("src", "label", "w")
        if shape == 2:  # aggregation
            return df.group_by("src").agg(
                count().alias("n"), sum_("w").alias("s"), max_("dst").alias("m")
            )
        # sort + limit (ordered by a unique-ish composite to be deterministic)
        return df.order_by("w", "dst", "src").limit(rng.randrange(1, 20))


@pytest.fixture(scope="module")
def data():
    rng = random.Random(99)
    keys = 30
    edges = [
        (rng.randrange(keys), rng.randrange(keys), round(rng.random(), 4))
        for _ in range(500)
    ]
    dims = [(k, f"label{k % 4}") for k in range(keys)]
    return edges, dims, keys


def run_unoptimized(session, plan):
    analyzed = session.analyzer.analyze(plan)
    return Planner(session).plan(analyzed).execute().collect()


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=25, deadline=None)
def test_three_way_equivalence(data, seed):
    edges, dims, keys = data
    session = Session(config=Config(default_parallelism=3, shuffle_partitions=3))
    edges_df = session.create_dataframe(edges, EDGE_SCHEMA, "edges")
    dims_df = session.create_dataframe(dims, DIM_SCHEMA, "dims").cache()

    vanilla = edges_df.cache()
    indexed = edges_df.create_index("src")

    def build(source_df):
        # Fresh RNG per build: all three executions must see the SAME query.
        return QueryGenerator(random.Random(seed), keys).build(source_df, dims_df)

    # 1. unoptimized over uncached rows
    baseline = normalize(run_unoptimized(session, build(edges_df).plan))
    # 2. optimized over the columnar cache
    cached = normalize(build(vanilla).collect_tuples())
    # 3. optimized over the Indexed DataFrame (indexed rules active)
    idx = normalize(build(indexed.to_df()).collect_tuples())

    # Sort+limit queries are only deterministic when the sort key is unique;
    # compare those by multiset of the *sorted prefix domain* instead.
    assert cached == baseline
    assert idx == baseline


#: Satellite (a): at least 50 seeded random queries per scheduler mode.
DIFFERENTIAL_SEEDS = list(range(50))


@pytest.mark.parametrize("mode", MODES)
def test_differential_indexed_vs_vanilla_50_seeds(data, mode):
    """Fixed dataset, one index build, 50 generated queries: the indexed
    plans must agree with the columnar-cache plans under both scheduler
    modes (the threads run is what exercises the concurrent cTrie)."""
    edges, dims, keys = data
    session = Session(
        config=Config(default_parallelism=3, shuffle_partitions=3, scheduler_mode=mode)
    )
    edges_df = session.create_dataframe(edges, EDGE_SCHEMA, "edges")
    dims_df = session.create_dataframe(dims, DIM_SCHEMA, "dims").cache()
    vanilla = edges_df.cache()
    indexed = edges_df.create_index("src")

    mismatches = []
    for seed in DIFFERENTIAL_SEEDS:
        want = normalize(
            QueryGenerator(random.Random(seed), keys).build(vanilla, dims_df).collect_tuples()
        )
        got = normalize(
            QueryGenerator(random.Random(seed), keys)
            .build(indexed.to_df(), dims_df)
            .collect_tuples()
        )
        if got != want:
            mismatches.append(seed)
    assert mismatches == [], f"indexed != vanilla for seeds {mismatches} in {mode} mode"


@pytest.mark.parametrize("mode", MODES)
def test_differential_across_mvcc_versions(data, mode):
    """Appends are versioned (MVCC): every version must answer queries as if
    it were a fresh DataFrame over the concatenated rows, the parent must
    stay queryable after a child append, and both scheduler modes agree."""
    edges, dims, keys = data
    session = Session(
        config=Config(default_parallelism=3, shuffle_partitions=3, scheduler_mode=mode)
    )
    rng = random.Random(4242)
    base = edges[:300]
    batch1 = [
        (rng.randrange(keys), rng.randrange(keys), round(rng.random(), 4)) for _ in range(40)
    ]
    batch2 = [
        (rng.randrange(keys), rng.randrange(keys), round(rng.random(), 4)) for _ in range(25)
    ]
    dims_df = session.create_dataframe(dims, DIM_SCHEMA, "dims").cache()

    v0 = session.create_dataframe(base, EDGE_SCHEMA, "edges").create_index("src")
    v1 = v0.append_rows(batch1)
    v2 = v1.append_rows(batch2)
    assert (v0.version, v1.version, v2.version) == (0, 1, 2)

    versions = [(v0, base), (v1, base + batch1), (v2, base + batch1 + batch2)]
    for query_seed in (3, 17, 29, 58, 91):
        for idf, rows in versions:
            reference = session.create_dataframe(rows, EDGE_SCHEMA, "edges_ref").cache()
            want = normalize(
                QueryGenerator(random.Random(query_seed), keys)
                .build(reference, dims_df)
                .collect_tuples()
            )
            got = normalize(
                QueryGenerator(random.Random(query_seed), keys)
                .build(idf.to_df(), dims_df)
                .collect_tuples()
            )
            assert got == want, (
                f"version {idf.version} diverged on seed {query_seed} in {mode} mode"
            )
    # The parent is still intact after both child appends.
    assert normalize(v0.to_df().collect_tuples()) == normalize(base)


# -- column kernels on vs off (DESIGN.md §18) ------------------------------------------

KERNEL_SEEDS = list(range(30))


def wide_rows(n, keys, seed, null_key=None):
    """WIDE_SCHEMA rows; rows of ``null_key`` hold NULLs, so exactly the
    partition owning that key loses its column views."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        src = rng.randrange(keys)
        null = src == null_key and i % 2 == 0
        rows.append(
            (
                f"t{rng.randrange(4)}" + "é" * rng.randrange(3),
                src,
                rng.randrange(keys),
                round(rng.random(), 4),
                None if null else rng.randrange(200),
                None if null else f"n{rng.randrange(5)}",
            )
        )
    return rows


def kernel_session(mode, tmp_path=None, **overrides) -> Session:
    config = Config(
        default_parallelism=3, shuffle_partitions=3, scheduler_mode=mode, row_batch_size=2048,
        task_retry_backoff=0.001, task_retry_backoff_max=0.01, **overrides,
    )
    if tmp_path is None:
        return Session(config=config)
    config.spill_dir = str(tmp_path)
    topology = private_cluster(num_machines=1, executors_per_machine=2)
    return Session(context=EngineContext(config=config, topology=topology))


def same_rows(got, want):
    """Two row lists, each sorted by the ``repr`` of its ``_norm``ed rows:
    equal value for value, but a float need only be within 1e-9 (relative)
    of its counterpart. An average summed in another row order can land on
    either side of a rounding tie, which ``round(v, 6)`` would split."""
    return len(got) == len(want) and all(
        len(a) == len(b)
        and all(
            math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
            if isinstance(x, float) and isinstance(y, float)
            else x == y
            for x, y in zip(a, b)
        )
        for a, b in zip(got, want)
    )


def assert_kernels_agree(session, idf, rows, dims_df, keys, what):
    """Every generated query: kernels on == kernels off == uncached rows."""
    config = session.context.config
    reference = session.create_dataframe(rows, WIDE_SCHEMA, "wide_ref")
    mismatches = []
    for seed in KERNEL_SEEDS:
        def run(source_df):
            query = QueryGenerator(random.Random(seed), keys, wide=True).build(source_df, dims_df)
            return sorted(query.collect_tuples(), key=lambda row: repr(tuple(map(_norm, row))))

        want = run(reference)
        config.indexed_column_kernels = True
        on = run(idf.to_df())
        config.indexed_column_kernels = False
        try:
            off = run(idf.to_df())
        finally:
            config.indexed_column_kernels = True
        if not (same_rows(on, want) and same_rows(off, want)):
            mismatches.append(seed)
    assert mismatches == [], f"{what}: kernels on/off/reference differ for seeds {mismatches}"


def viewable(idf) -> list[bool]:
    """Per partition: does the kernel path get column views?"""
    return [p.scan_columns(["src"]) is not None for p in idf.materialize_partitions()]


@pytest.mark.parametrize("mode", MODES)
def test_differential_column_kernels_on_off(mode):
    keys = 30
    session = kernel_session(mode)
    dims_df = session.create_dataframe(
        [(k, f"label{k % 4}") for k in range(keys)], DIM_SCHEMA, "dims"
    ).cache()

    def index(rows):
        return session.create_dataframe(rows, WIDE_SCHEMA, "wide").create_index("src").cache_index()

    # Strings before/after the fixed columns, no NULL: every partition views.
    plain = wide_rows(600, keys, seed=1)
    v0 = index(plain)
    assert all(viewable(v0))
    assert_kernels_agree(session, v0, plain, dims_df, keys, "plain")

    # Unique keys: the index's pointers give every batch's record starts.
    unique = [(r[0], i, *r[2:]) for i, r in enumerate(wide_rows(600, keys, seed=6))]
    registry = session.context.registry
    walks = registry.counter_by_label("indexed_scan_starts_total", "source").get("walk")
    assert_kernels_agree(session, index(unique), unique, dims_df, keys, "unique keys")
    starts = registry.counter_by_label("indexed_scan_starts_total", "source")
    assert starts["index"] > 0 and starts.get("walk") == walks

    # NULLs in one key's rows: that partition falls back, the others do not.
    with_nulls = wide_rows(600, keys, seed=2, null_key=7)
    nulls = index(with_nulls)
    assert sorted(viewable(nulls)) == [False, True, True]
    assert_kernels_agree(session, nulls, with_nulls, dims_df, keys, "nulls")

    # An append after the scans above: new rows visible in the new version,
    # the old version unchanged.
    batch1 = wide_rows(24, keys, seed=3)
    v1 = v0.append_rows(batch1).cache_index()
    assert_kernels_agree(session, v1, plain + batch1, dims_df, keys, "appended")
    assert_kernels_agree(session, v0, plain, dims_df, keys, "parent after append")

    # A sibling of v1 diverging from v0: where both fit in v0's tail batch it
    # appends behind v1's rows, and that partition is no longer contiguous.
    batch2 = wide_rows(24, keys, seed=4)
    sibling = v0.append_rows(batch2).cache_index()
    assert not all(viewable(sibling))
    assert_kernels_agree(session, sibling, plain + batch2, dims_df, keys, "diverged sibling")
    assert_kernels_agree(session, v1, plain + batch1, dims_df, keys, "v1 beside its sibling")


@pytest.mark.parametrize("mode", MODES)
def test_differential_column_kernels_over_spilled_batches(mode, tmp_path):
    """Under a memory budget the sealed row batches spill; the kernels view
    them through the same ``.buf`` that faults them back in."""
    keys = 30
    session = kernel_session(mode, tmp_path, executor_memory_bytes=40_000)
    dims_df = session.create_dataframe(
        [(k, f"label{k % 4}") for k in range(keys)], DIM_SCHEMA, "dims"
    ).cache()
    rows = wide_rows(1500, keys, seed=5)
    idf = (
        session.create_dataframe(rows, WIDE_SCHEMA, "wide")
        .create_index("src", num_partitions=4)
        .cache_index()
    )
    assert_kernels_agree(session, idf, rows, dims_df, keys, "spilled")
    registry = session.context.registry
    assert registry.counter_total("memory_spills_total") > 0
    assert registry.counter_total("memory_faulted_back_bytes_total") > 0
