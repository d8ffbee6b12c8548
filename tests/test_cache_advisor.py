"""Cost-based cache advisor (DESIGN.md §17): model, eviction order, decisions.

Four layers under test:

* the cost model — lineage depth, decayed recurrence, value density;
* the memory manager's ``eviction_policy="cost"`` and the spill-churn bound;
* the auto-cache loop — admission, cached hits, epoch invalidation,
  pressure-driven auto-evict, bounded statistics — always differential
  (advisor answers == plain answers);
* the three-way benchmark property: under one fixed budget the advisor
  does no more memory work than always-cache and no more recompute work
  than never-cache, on the same workload with identical rows.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.advisor.advisor import _PlanStats
from repro.advisor.cost_model import DecayedCounter, Ewma, lineage_depth, value_density
from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.engine.scheduler import TaskFailure
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema
from tests.conftest import MODES, recovery_counts, recovery_spans

SCHEMA = Schema.of(("k", LONG), ("v", DOUBLE), ("payload", STRING))


def make_rows(n=2000, keys=40, seed=0, width=100) -> list[tuple]:
    rng = random.Random(seed)
    return [
        (rng.randrange(keys), round(rng.random(), 6), "x" * rng.randrange(width // 2, width))
        for _ in range(n)
    ]


def make_session(mode="sequential", tmp_path=None, **overrides) -> Session:
    cfg = dict(
        default_parallelism=4,
        shuffle_partitions=4,
        scheduler_mode=mode,
        row_batch_size=8192,
        task_retry_backoff=0.001,
        task_retry_backoff_max=0.01,
    )
    if tmp_path is not None:
        cfg.setdefault("spill_dir", str(tmp_path))
    cfg.update(overrides)
    config = Config(**cfg)
    config.validate()
    ctx = EngineContext(
        config=config,
        topology=private_cluster(num_machines=1, executors_per_machine=2),
    )
    session = Session(context=ctx)
    session.create_dataframe(make_rows(), SCHEMA, name="t").create_or_replace_temp_view("t")
    return session


def rows_of(session: Session, text: str) -> list[tuple]:
    return sorted(session.sql(text).collect_tuples())


# ---------------------------------------------------------------------------
# Cost model units
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_lineage_depth_source_is_one(self):
        ctx = EngineContext(config=Config(default_parallelism=2))
        source = ctx.parallelize([1, 2, 3], 2)
        assert lineage_depth(source) == 1

    def test_lineage_depth_grows_with_chain(self):
        ctx = EngineContext(config=Config(default_parallelism=2))
        rdd = ctx.parallelize(list(range(10)), 2)
        for _ in range(5):
            rdd = rdd.map(lambda x: x + 1)
        assert lineage_depth(rdd) == 6

    def test_lineage_depth_diamond_takes_longest_path(self):
        ctx = EngineContext(config=Config(default_parallelism=2))
        source = ctx.parallelize([(1, 2), (3, 4)], 2)
        left = source.map(lambda x: x)  # depth 2
        right = source.map(lambda x: x).map(lambda x: x)  # depth 3
        joined = left.union(right)
        assert lineage_depth(joined) == 4

    def test_lineage_depth_memoizes_across_calls(self):
        ctx = EngineContext(config=Config(default_parallelism=2))
        cache: dict[int, int] = {}
        base = ctx.parallelize([1], 1).map(lambda x: x)
        assert lineage_depth(base, cache) == 2
        child = base.map(lambda x: x)
        assert lineage_depth(child, cache) == 3
        assert cache[base.rdd_id] == 2  # reused, not recomputed

    def test_value_density_orders_by_worth(self):
        # Expensive, deep, reused, small  >  cheap, shallow, unused, large.
        hot = value_density(0.5, 4, 10.0, 64 * 1024)
        cold = value_density(0.001, 1, 0.1, 8 << 20)
        assert hot > cold
        assert value_density(0.5, 4, 0.0, 1024) == 0.0  # no reuse -> worthless

    def test_value_density_scales_inverse_with_bytes(self):
        small = value_density(0.1, 1, 1.0, 1 << 20)
        big = value_density(0.1, 1, 1.0, 4 << 20)
        assert small == pytest.approx(4 * big)

    def test_decayed_counter_plain_at_decay_one(self):
        c = DecayedCounter()
        for t in range(1, 6):
            c.bump(t, 1.0)
        assert c.read(100, 1.0) == 5.0

    def test_decayed_counter_decays(self):
        c = DecayedCounter()
        c.bump(1, 0.5)
        assert c.read(1, 0.5) == 1.0
        assert c.read(3, 0.5) == pytest.approx(0.25)
        assert c.read(600, 0.5) == 0.0  # deep past: underflow shortcut

    def test_decayed_counter_bump_applies_pending_decay(self):
        c = DecayedCounter()
        c.bump(1, 0.5)
        c.bump(3, 0.5)  # 1.0 decayed two ticks -> 0.25, then +1
        assert c.read(3, 0.5) == pytest.approx(1.25)

    def test_ewma_adopts_first_then_smooths(self):
        e = Ewma()
        assert e.update(1.0) == 1.0
        assert 1.0 < e.update(2.0) < 2.0


# ---------------------------------------------------------------------------
# Config validation: every problem reported together
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_advisor_knob_problems_reported_together(self):
        cfg = Config(advisor_score_threshold=-1.0, advisor_shed_pressure=1.5)
        with pytest.raises(ValueError) as exc:
            cfg.validate()
        message = str(exc.value)
        for fragment in ("advisor_score_threshold", "advisor_shed_pressure"):
            assert fragment in message

    def test_cost_policy_accepted(self):
        Config(eviction_policy="cost").validate()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="eviction_policy"):
            Config(eviction_policy="clairvoyant").validate()

    def test_defaults_valid(self):
        Config().validate()


# ---------------------------------------------------------------------------
# Cost eviction policy in the memory manager
# ---------------------------------------------------------------------------


class TestCostEvictionPolicy:
    def test_low_value_blocks_are_first_victims(self):
        session = make_session(
            executor_memory_bytes=1 << 20, eviction_policy="cost"
        )
        ctx = session.context
        mm = ctx.executors["m0e0"].memory_manager
        bm = ctx.executors["m0e0"].block_manager
        cheap, hot = (101, 0), (202, 0)
        bm.put(cheap, [b"c" * 2000])
        bm.put(hot, [b"h" * 2000])
        # Teach the advisor that block 202 is expensive to rebuild and hot,
        # while 101 has never been recomputed or re-read.
        fat_rdd = ctx.parallelize([1], 1).map(lambda x: x).map(lambda x: x)
        ctx.advisor.note_block_compute(hot, fat_rdd, seconds=0.25)
        for _ in range(6):
            ctx.advisor.note_block_access(hot)
        order = mm._victim_order(protect=None)
        assert order.index(cheap) < order.index(hot)

    def test_cost_policy_publishes_score_gauges(self):
        session = make_session(executor_memory_bytes=1 << 20, eviction_policy="cost")
        ctx = session.context
        bm = ctx.executors["m0e0"].block_manager
        bm.put((7, 0), [b"x" * 512])
        ctx.executors["m0e0"].memory_manager._victim_order(protect=None)
        assert ctx.registry.gauge_value("cache_advisor_score", rdd=7) is not None


# ---------------------------------------------------------------------------
# Anti-thrash regression (the evict -> rebuild -> re-evict churn loop)
# ---------------------------------------------------------------------------


def churn_run(tmp_path, budget=120_000):
    """The fig06-shaped working-set-over-budget loop: index + repeated
    probes under a budget about half the working set (0 = unbounded)."""
    session = make_session(tmp_path=tmp_path, executor_memory_bytes=budget)
    df = session.create_dataframe(make_rows(1500, seed=3), SCHEMA, "big")
    idf = df.create_index("k", num_partitions=8).cache_index()
    rows = []
    for k in (1, 5, 9, 1, 5, 9, 1, 5, 9, 2, 1, 5):
        rows.append(sorted(idf.lookup_tuples(k)))
    reg = session.context.registry
    return rows, {
        "spills": reg.counter_total("memory_spills_total"),
        "evictions": reg.counter_total("memory_evictions_total"),
        "faulted_back": reg.counter_total("memory_faulted_back_bytes_total"),
    }


class TestAntiThrash:
    def test_spill_churn_bounded(self, tmp_path):
        rows, counts = churn_run(tmp_path / "b")
        unbounded_rows, unbounded = churn_run(tmp_path / "u", budget=0)
        assert rows == unbounded_rows  # differential: same answers
        assert unbounded["spills"] == 0
        # The regression gate: the repeated-probe loop must stay well under
        # the 24-spill storm PR 4 measured for this working-set/budget shape.
        assert 0 < counts["spills"] < 24


# ---------------------------------------------------------------------------
# The auto-cache loop (differential end to end)
# ---------------------------------------------------------------------------

HOT = "SELECT k, SUM(v) AS s FROM t GROUP BY k"


class TestAutoCache:
    def test_hot_query_gets_cached_and_served(self):
        session = make_session(auto_cache=True, advisor_score_threshold=0.0)
        first = rows_of(session, HOT)
        for _ in range(3):
            assert rows_of(session, HOT) == first
        reg = session.context.registry
        assert reg.counter_total("cache_advisor_hits_total") >= 2
        decisions = reg.counter_by_label("cache_advisor_decisions_total", "action")
        assert decisions.get("auto_cache", 0) >= 1

    def test_threshold_requires_recurrence(self):
        # With a realistic threshold the *first* sighting is never cached
        # (exec time unknown, recurrence 1): caching needs repetition.
        session = make_session(auto_cache=True, advisor_score_threshold=10_000.0)
        for _ in range(3):
            rows_of(session, HOT)
        reg = session.context.registry
        decisions = reg.counter_by_label("cache_advisor_decisions_total", "action")
        assert decisions.get("auto_cache", 0) == 0
        assert reg.counter_total("cache_advisor_hits_total") == 0

    def test_disabled_by_default(self):
        session = make_session()
        for _ in range(3):
            rows_of(session, HOT)
        reg = session.context.registry
        assert reg.counter_total("cache_advisor_decisions_total") == 0
        assert reg.counter_total("cache_advisor_hits_total") == 0
        # Nothing reads per-query statistics with auto_cache off, so none
        # are collected: the report has no row for the fingerprint.
        assert "sum(v)" not in session.cache_advisor_report()

    def test_epoch_invalidation_never_serves_stale_rows(self):
        session = make_session(auto_cache=True, advisor_score_threshold=0.0)
        old = rows_of(session, HOT)
        assert rows_of(session, HOT) == old  # now served by the advisor
        # Catalog change: same view name, different rows -> new epoch.
        session.create_dataframe(
            make_rows(500, seed=9), SCHEMA, name="t"
        ).create_or_replace_temp_view("t")
        fresh = rows_of(session, HOT)
        assert fresh != old
        reference = make_session()  # never-cached reference session
        reference.create_dataframe(
            make_rows(500, seed=9), SCHEMA, name="t"
        ).create_or_replace_temp_view("t")
        assert fresh == rows_of(reference, HOT)

    def test_prepared_statement_bindings_never_cross(self):
        session = make_session(auto_cache=True, advisor_score_threshold=0.0)
        statement = session.prepare("SELECT * FROM t WHERE k = ?")
        for k in (1, 2, 3, 1, 2, 3):
            got = sorted(statement.execute([k]))
            want = rows_of(session, f"SELECT * FROM t WHERE k = {k}")
            assert got == want

    def test_a_skipped_advisor_put_is_no_pressure_error(self, tmp_path):
        """A result the budget cannot hold is served uncached and counted as
        a skipped put, not as a memory pressure error: the error counts
        only rejections that fail a task, as a put the user asked for does."""
        query = "SELECT * FROM t WHERE k < 20"
        session = make_session(
            tmp_path=tmp_path,
            auto_cache=True,
            advisor_score_threshold=0.0,
            executor_memory_bytes=2_000,
            max_task_retries=1,
        )
        reference = rows_of(make_session(), query)
        for _ in range(3):
            assert rows_of(session, query) == reference
        reg = session.context.registry
        assert reg.counter_total("cache_advisor_put_skipped_total") > 0
        assert reg.counter_total("memory_pressure_errors_total") == 0
        with pytest.raises(TaskFailure):
            session.create_dataframe(make_rows(300, seed=7), SCHEMA, "pinned").cache()
        assert reg.counter_total("memory_pressure_errors_total") > 0

    def test_pressure_shed_keeps_answers(self, tmp_path):
        session = make_session(
            tmp_path=tmp_path,
            auto_cache=True,
            advisor_score_threshold=0.0,
            advisor_shed_pressure=0.0,  # shed at every query boundary
            executor_memory_bytes=400_000,
        )
        queries = [HOT, "SELECT * FROM t WHERE k = 3", "SELECT COUNT(*) AS n FROM t"]
        reference = {q: rows_of(make_session(), q) for q in queries}
        for _ in range(4):
            for q in queries:
                assert rows_of(session, q) == reference[q]
        reg = session.context.registry
        decisions = reg.counter_by_label("cache_advisor_decisions_total", "action")
        assert decisions.get("auto_evict", 0) >= 1
        assert recovery_counts(session.context).get("advisor_auto_evict", 0) >= 1

    def test_shed_only_touches_what_the_advisor_persisted(self):
        session = make_session(
            auto_cache=True,
            advisor_score_threshold=0.0,
            advisor_shed_pressure=0.0,  # shed at every query boundary
            executor_memory_bytes=1 << 22,
        )
        pinned = session.create_dataframe(make_rows(300, seed=7), SCHEMA, "pinned").cache()
        baseline = sorted(pinned.collect_tuples())
        # Enough advisor ticks for the pin's access counter to decay to ~0:
        # however cold, a user's .cache() is not the advisor's to revoke.
        for _ in range(60):
            rows_of(session, "SELECT COUNT(*) AS n FROM t")
        decisions = session.context.registry.counter_by_label(
            "cache_advisor_decisions_total", "action"
        )
        assert decisions.get("auto_evict", 0) >= 1  # its own results were shed
        misses_before = session.context.registry.counter_total("cache_misses_total")
        assert sorted(pinned.collect_tuples()) == baseline
        assert session.context.registry.counter_total("cache_misses_total") == misses_before

    def test_spans_and_report(self):
        session = make_session(
            auto_cache=True, advisor_score_threshold=0.0, tracing_enabled=True
        )
        for _ in range(3):
            rows_of(session, HOT)
        tracer = session.context.tracer
        assert tracer.integrity_errors() == []
        assert any(s.kind == "advisor" for s in tracer.finished_spans())
        report = session.cache_advisor_report()
        assert "auto_cached" in report and "auto_cache" in report


# ---------------------------------------------------------------------------
# Statistics live as long as what they describe
# ---------------------------------------------------------------------------


def live_plan_stats() -> int:
    gc.collect()
    return sum(isinstance(o, _PlanStats) for o in gc.get_objects())


class TestBoundedState:
    @pytest.mark.parametrize("auto_cache", [False, True])
    def test_plan_statistics_live_and_die_with_plan_cache_entries(self, auto_cache):
        before = live_plan_stats()
        session = make_session(auto_cache=auto_cache, advisor_score_threshold=10_000.0)
        capacity = session.context.config.plan_cache_capacity
        for i in range(1000):
            df = session.sql(f"SELECT * FROM t WHERE k = {i}")
            if i % 100 == 0:
                df.collect_tuples()
        assert len(session.plan_cache) == capacity
        # Collected only for their one reader, and evicted with their entry.
        assert live_plan_stats() - before == (capacity if auto_cache else 0)

    def test_per_rdd_state_is_forgotten_with_the_rdd(self):
        session = make_session(auto_cache=True, advisor_score_threshold=0.0)
        ctx, advisor = session.context, session.context.advisor
        for _ in range(3):
            rows_of(session, HOT)  # admitted and computed, then two hits
        (cached,) = advisor._auto.values()
        rdd_id = cached.rdd.rdd_id
        # "t" is an uncached relation: the result is the one cached RDD.
        assert set(advisor._rdds) == set(advisor._depth_cache) == {rdd_id}
        assert set(ctx.lineage_ref_counts()) == {rdd_id}
        advisor._drop_rdd(cached.rdd)
        assert not advisor._rdds and not advisor._depth_cache
        assert not ctx.lineage_ref_counts()


# ---------------------------------------------------------------------------
# Advisor vs always-cache vs never-cache, one fixed budget
# ---------------------------------------------------------------------------


def mixed_workload(session: Session) -> list[list[tuple]]:
    """Two hot queries repeated among a stream of one-off queries."""
    out = []
    for i in range(10):
        out.append(rows_of(session, HOT))
        out.append(rows_of(session, "SELECT k, COUNT(*) AS n FROM t GROUP BY k"))
        out.append(rows_of(session, f"SELECT * FROM t WHERE k = {i}"))  # one-off
    return out


class TestAdvisorBeatsBothBaselines:
    def test_three_way_same_rows_less_work(self, tmp_path):
        budget = dict(executor_memory_bytes=600_000)
        never = make_session(tmp_path=tmp_path / "n", **budget)
        always = make_session(
            tmp_path=tmp_path / "a",
            auto_cache=True,
            advisor_score_threshold=0.0,
            **budget,
        )
        advisor = make_session(
            tmp_path=tmp_path / "d",
            auto_cache=True,
            advisor_score_threshold=0.05,
            **budget,
        )
        results = {name: mixed_workload(s) for name, s in
                   (("never", never), ("always", always), ("advisor", advisor))}
        assert results["never"] == results["always"] == results["advisor"]

        def reg(s):
            return s.context.registry

        # vs never-cache: the hot queries stop being recomputed.
        assert reg(advisor).counter_total("cache_advisor_hits_total") >= 16
        # vs always-cache: the one-off queries are never materialized, so
        # the advisor admits far fewer results and does no more memory work.
        always_admits = reg(always).counter_by_label(
            "cache_advisor_decisions_total", "action"
        ).get("auto_cache", 0)
        advisor_admits = reg(advisor).counter_by_label(
            "cache_advisor_decisions_total", "action"
        ).get("auto_cache", 0)
        assert 1 <= advisor_admits <= 2 < always_admits
        assert reg(advisor).counter_total("memory_put_bytes_total") <= reg(
            always
        ).counter_total("memory_put_bytes_total")
        def churn(s):
            return reg(s).counter_total("memory_spills_total") + reg(s).counter_total(
                "memory_evictions_total"
            )

        assert churn(advisor) <= churn(always)


# ---------------------------------------------------------------------------
# Advisor results displacing an index that fits (ROADMAP item 13)
# ---------------------------------------------------------------------------

EDGES = Schema.of(("src", LONG), ("dst", LONG), ("weight", DOUBLE))


def index_evictions(tmp_path, auto_cache: bool) -> int:
    """Evictions of a cached index's blocks over twelve cycles shaped like
    the ``bounded_memory`` benchmark's (a join, then a filtered scan), under
    the cost policy and a budget the indexed table fits."""
    rng = random.Random(0)
    rows = [(rng.randrange(300), rng.randrange(10**6), round(rng.random(), 6)) for _ in range(3000)]
    session = make_session(
        tmp_path=tmp_path, executor_memory_bytes=40_000, eviction_policy="cost",
        auto_cache=auto_cache, tracing_enabled=True,
    )
    idf = session.create_dataframe(rows, EDGES, "edges").create_index("src", num_partitions=4)
    idf.cache_index().create_or_replace_temp_view("edges")
    for i in range(4):
        probe = session.create_dataframe([(k,) for k in range(i, 300, 4)], Schema.of(("k", LONG)))
        probe.create_or_replace_temp_view(f"p{i}")
    for cycle in range(12):
        rows_of(session, f"SELECT * FROM p{cycle % 4} JOIN edges ON p{cycle % 4}.k = edges.src")
        rows_of(session, "SELECT * FROM edges WHERE weight > 0.9")
    index = f"rdd={idf.rdd.rdd_id} "
    return sum(
        event.attrs["detail"].startswith(index)
        for event in recovery_spans(session.context, "block_evicted")
    )


class TestAdvisorResultsAndTheIndex:
    def test_the_indexed_table_fits_its_budget(self, tmp_path):
        assert index_evictions(tmp_path, auto_cache=False) == 0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 13: auto-cached results displace index blocks",
    )
    def test_an_auto_cached_result_evicts_no_index_block(self, tmp_path):
        assert index_evictions(tmp_path, auto_cache=True) == 0


# ---------------------------------------------------------------------------
# Property: the advisor never changes answers (50 seeds x 3 modes x chaos)
# ---------------------------------------------------------------------------

PROPERTY_SEEDS = list(range(50))


def seeded_query(seed: int) -> str:
    rng = random.Random(seed)
    kind = rng.randrange(4)
    if kind == 0:
        return f"SELECT * FROM t WHERE k = {rng.randrange(12)}"
    if kind == 1:
        return (
            f"SELECT k, SUM(v) AS s FROM t WHERE k < {rng.randrange(4, 30)} GROUP BY k"
        )
    if kind == 2:
        return "SELECT k, COUNT(*) AS n FROM t GROUP BY k"
    return f"SELECT * FROM t WHERE k = {rng.randrange(6)} AND v > 0.5"


@pytest.mark.parametrize("mode", MODES)
def test_advisor_is_answer_invariant_under_chaos(mode, tmp_path):
    """50 seeded queries per scheduler mode, repeated (so caching engages),
    with pressure storms between batches: an advisor session under a tight
    budget must answer exactly like a plain unbounded session."""
    plain = make_session(mode=mode)
    advised = make_session(
        mode=mode,
        tmp_path=tmp_path,
        auto_cache=True,
        advisor_score_threshold=0.01,
        advisor_shed_pressure=0.5,
        executor_memory_bytes=500_000,
        eviction_policy="cost",
    )
    rng = random.Random(4242)
    mismatches = []
    for i, seed in enumerate(PROPERTY_SEEDS):
        text = seeded_query(seed % 17)  # collisions on purpose: recurrence
        want = rows_of(plain, text)
        if rows_of(advised, text) != want:
            mismatches.append(seed)
        if i % 7 == 6:  # chaos squeeze between queries
            for runtime in advised.context.executors.values():
                runtime.block_manager.pressure_storm(rng.choice([0.0, 0.3, 0.6]))
        if rows_of(advised, text) != want:  # post-storm re-ask
            mismatches.append(seed)
    assert mismatches == [], f"advisor changed answers for seeds {mismatches} ({mode})"
