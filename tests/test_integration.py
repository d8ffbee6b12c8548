"""Cross-module integration scenarios straight from the paper's evaluation.

These are behavioural reproductions at test scale: Fig. 1 (amortization),
Fig. 9 (read-after-write correctness), Fig. 12 (executor kill mid-run),
and the threat-detection pattern (streaming appends + interactive lookups).
"""

import gc
import random

import pytest

from repro.cluster.metrics import TaskMetrics
from repro.config import Config
from repro.engine.context import EngineContext
from repro.sql.functions import col
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, Schema
from repro.workloads import broconn
from tests.conftest import MODES

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))


@pytest.fixture()
def session() -> Session:
    return Session(config=Config(default_parallelism=4, shuffle_partitions=4))


def make_edges(n=800, keys=80, seed=6):
    rng = random.Random(seed)
    return [(rng.randrange(keys), rng.randrange(keys), round(rng.random(), 4)) for _ in range(n)]


class TestAmortization:
    def test_index_shuffle_runs_once_for_repeated_joins(self, session):
        """Fig. 1: the index build (shuffle + insert) happens once; repeated
        joins reuse it, while vanilla re-collects and re-builds each time."""
        rows = make_edges()
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        idf = df.create_index("src").cache_index()
        probe = session.create_dataframe([(k,) for k in range(0, 80, 9)],
                                         Schema.of(("k", LONG)), "p")
        registry = session.context.registry
        before = registry.counter_total("shuffle_bytes_written_total")
        joined = probe.join(idf.to_df(), on=("k", "src"))
        first = joined.collect_tuples()
        shuffle_after_first = registry.counter_total("shuffle_bytes_written_total") - before
        for _ in range(4):
            assert joined.collect_tuples() == first
        shuffle_after_five = registry.counter_total("shuffle_bytes_written_total") - before
        # No additional index-side shuffle: the only shuffles would be tiny
        # probe-side ones (broadcast path avoids even those).
        assert shuffle_after_five <= shuffle_after_first * 1.01


class TestHeapFlatInQueries:
    @pytest.mark.parametrize("mode", MODES)
    def test_point_lookups_leave_no_per_task_state(self, mode):
        """The engine keeps no per-task history: the tracked heap after
        2 000 SQL point lookups is the warm heap, not warm + k * tasks."""
        session = Session(
            config=Config(default_parallelism=4, shuffle_partitions=4, scheduler_mode=mode)
        )
        rows = [(i % 40, i, float(i)) for i in range(400)]
        idf = session.create_dataframe(rows, EDGE_SCHEMA, "edges").create_index("src")
        idf.cache_index().create_or_replace_temp_view("edges")

        def tracked_after(lookups: int) -> int:
            for i in range(lookups):
                got = session.sql(f"SELECT * FROM edges WHERE src = {i % 40}").collect_tuples()
                assert len(got) == 10
            gc.collect()
            return len(gc.get_objects())

        warm = tracked_after(200)
        assert tracked_after(2000) - warm < 200
        assert not any(isinstance(o, TaskMetrics) for o in gc.get_objects())


class TestReadAfterWrite:
    def test_interleaved_joins_and_appends_stay_correct(self, session):
        """Fig. 9's pattern: join, append every few queries, join again."""
        rows = make_edges()
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        idf = df.create_index("src").cache_index()
        reference = {k: [r for r in rows if r[0] == k] for k in range(80)}
        rng = random.Random(1)
        current = idf
        for step in range(20):
            key = rng.randrange(80)
            got = current.lookup_tuples(key)
            assert sorted(got) == sorted(reference[key]), f"step {step}"
            if step % 5 == 4:
                new_row = (key, 10_000 + step, float(step))
                current = current.append_rows([new_row])
                reference[key].append(new_row)


class TestFig12ExecutorKill:
    def test_kill_mid_run_recovers_and_results_stay_correct(self, session):
        rows = make_edges(n=600)
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        idf = df.create_index("src").cache_index()
        probe = session.create_dataframe([(k,) for k in range(0, 80, 11)],
                                         Schema.of(("k", LONG)), "p")
        joined = probe.join(idf.to_df(), on=("k", "src"))
        expected = sorted(joined.collect_tuples())
        ctx = session.context
        victim = ctx.alive_executor_ids()[0]
        ctx.faults.fail_executor_at_job(victim, ctx.job_index + 3)
        for query in range(10):
            assert sorted(joined.collect_tuples()) == expected, f"query {query}"
        assert victim not in ctx.alive_executor_ids()
        assert ctx.faults.killed


class TestThreatDetectionScenario:
    def test_streaming_appends_with_interactive_lookups(self, session):
        """The Section II use case: connections stream in (fine-grained
        appends); analysts run point lookups on suspicious hosts."""
        base = broconn.generate_broconn(400, num_hosts=30)
        conn_df = session.create_dataframe(base, broconn.CONN_SCHEMA, "conn")
        current = conn_df.create_index("orig_h").cache_index()
        all_rows = list(base)
        stream = broconn.generate_broconn(100, num_hosts=30, seed=99)
        for i in range(0, 100, 20):
            batch = stream[i : i + 20]
            current = current.append_rows(batch)
            all_rows.extend(batch)
            suspect = batch[0][2]
            got = current.lookup_tuples(suspect)
            want = [r for r in all_rows if r[2] == suspect]
            assert sorted(got, key=repr) == sorted(want, key=repr)
        assert current.version == 5
        assert current.count() == 500


class TestVanillaVsIndexedFullEquivalence:
    @pytest.mark.parametrize("query_key", [0, 7, 79])
    def test_lookup(self, session, query_key):
        rows = make_edges()
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        vanilla = df.cache()
        idf = df.create_index("src").cache_index()
        v = sorted(vanilla.where(col("src") == query_key).collect_tuples())
        i = sorted(idf.to_df().where(col("src") == query_key).collect_tuples())
        assert v == i

    def test_scan_filter_projection_aggregate(self, session):
        rows = make_edges()
        df = session.create_dataframe(rows, EDGE_SCHEMA, "edges")
        vanilla = df.cache()
        idf = df.create_index("src").cache_index()
        for build in (
            lambda d: d.where(col("w") > 0.25).select("dst"),
            lambda d: d.select("src", "dst"),
            lambda d: d.group_by("src").count(),
        ):
            v = sorted(build(vanilla).collect_tuples())
            i = sorted(build(idf.to_df()).collect_tuples())
            assert v == i
