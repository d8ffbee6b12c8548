"""Serving layer: admission control, fast path, concurrent ingest, chaos.

The server's contract under test everywhere here: it may *reject*
(retryably), but it never returns a wrong answer.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.config import Config
from repro.engine.context import EngineContext
from repro.indexed.operators import (
    IndexedLeafExec,
    IndexedLookupExec,
    IndexedRangeScanExec,
    IndexedScanExec,
    ResidentPartitions,
)
from repro.serve import (
    IngestLoop,
    PinnedSnapshot,
    QueryServer,
    ServeConfig,
    ServeRejected,
    ShardRouter,
)
from repro.sql.parser import SQLParseError
from repro.sql.physical import RowwiseExec
from repro.sql.session import Session

from .conftest import MODES, USER_SCHEMA, make_users


def make_server(
    config: Config | None = None,
    serve: ServeConfig | None = None,
    n_users: int = 200,
    chaos: dict | None = None,
):
    """A server over ``n_users`` published users; ``chaos`` is handed to
    ``faults.configure`` before the first job."""
    config = config or Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
    session = Session(context=EngineContext(config=config))
    session.context.faults.configure(**(chaos or {}))
    df = session.create_dataframe(make_users(n_users), USER_SCHEMA, name="users")
    idf = df.create_index("uid")
    server = QueryServer(session, serve or ServeConfig(num_workers=2))
    server.publish("users", idf)
    return session, idf, server


# -- fast path correctness ---------------------------------------------------------


class TestFastPath:
    def test_point_lookup_matches_general_pipeline(self):
        session, _, server = make_server()
        with server:
            for uid in (0, 7, 42, 199, 777):  # 777 is absent
                text = f"SELECT * FROM users WHERE uid = {uid}"
                result = server.query(text)
                assert result.path == "fastpath"
                assert sorted(result.rows) == sorted(session.sql(text).collect_tuples())

    def test_in_list_residual_projection_and_limit(self):
        session, _, server = make_server()
        with server:
            text = (
                "SELECT name, score FROM users "
                "WHERE uid IN (3, 4, 5, 6) AND score > 20 LIMIT 3"
            )
            result = server.query(text)
            assert result.path == "fastpath"
            reference = session.sql(
                "SELECT name, score FROM users WHERE uid IN (3, 4, 5, 6) AND score > 20"
            ).collect_tuples()
            assert len(result.rows) == min(3, len(reference))
            assert all(r in reference for r in result.rows)

    def test_prepared_statement_fast_path(self):
        session, _, server = make_server()
        with server:
            for uid in range(20):
                result = server.query("SELECT * FROM users WHERE uid = ?", params=[uid])
                assert result.path == "fastpath"
                assert result.rows == session.sql(
                    f"SELECT * FROM users WHERE uid = {uid}"
                ).collect_tuples()

    def test_fast_path_submits_no_jobs(self):
        session, _, server = make_server()
        registry = session.context.registry
        with server:
            server.query("SELECT * FROM users WHERE uid = 1")  # warm the template
            before = registry.counter_value("jobs_submitted_total")
            for uid in range(25):
                result = server.query("SELECT * FROM users WHERE uid = ?", params=[uid])
                assert result.path == "fastpath"
            assert registry.counter_value("jobs_submitted_total") == before

    def test_non_point_queries_fall_back_to_general(self):
        """Aggregates take the general pipeline; a non-key predicate over a
        published view is a scan of the pin, and a computed projection over
        a point lookup is a row operator over the served lookup."""
        session, _, server = make_server()
        with server:
            for text, path in (
                ("SELECT name, SUM(score) AS s FROM users GROUP BY name", "general"),
                ("SELECT * FROM users WHERE score > 50", "scan"),  # non-key predicate
                ("SELECT uid, score * 2 AS d FROM users WHERE uid = 3", "fastpath"),
            ):
                result = server.query(text)
                assert result.path == path
                assert sorted(result.rows) == sorted(session.sql(text).collect_tuples())

    def test_recognize_rejects_unserved_and_unindexed(self):
        """The planned leaf names its catalog view; a front end serves only
        the views it published, and nothing that is not indexed."""
        session, idf, server = make_server()
        with server:
            text = "SELECT * FROM users WHERE uid = 3"
            leaf = session.plan_physical(session.sql_logical(text))
            assert (type(leaf), leaf.view) == (IndexedLookupExec, "users")
            assert server.query(text).path == "fastpath"
            # An indexed view in the catalog that this server does not serve
            # is planned (the leaf names it) and answers on "general".
            idf.create_or_replace_temp_view("other_view")
            other = "SELECT * FROM other_view WHERE uid = 3"
            assert session.plan_physical(session.sql_logical(other)).view == "other_view"
            result = server.query(other)
            assert result.path == "general"
            assert result.rows == session.sql(text).collect_tuples()
            # Plain (non-indexed) relation never fast-paths.
            session.create_dataframe(
                make_users(10), USER_SCHEMA, name="plain"
            ).create_or_replace_temp_view("plain")
            plain = "SELECT * FROM plain WHERE uid = 3"
            assert "Indexed" not in session.sql_explain(plain)
            assert server.query(plain).path == "general"

    def test_serve_spans_nest_cleanly(self):
        config = Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=4096,
            tracing_enabled=True,
        )
        session, _, server = make_server(config=config)
        with server:
            server.query("SELECT * FROM users WHERE uid = 3")
            server.query("SELECT name, SUM(score) AS s FROM users GROUP BY name")
        tracer = session.context.tracer
        assert tracer.integrity_errors() == []
        kinds = {s.kind for s in tracer.finished_spans()}
        assert "serve" in kinds


# -- one read path: every front end answers through the planner's plan ----------------

#: (view, WHERE as literals, WHERE with ``?``, params). ``users`` is keyed on
#: ``uid`` (LONG), ``people`` on ``name`` (STRING); None = no WHERE clause /
#: no parameter form (a LIKE pattern is a string literal, never a ``?``).
WHERE_SHAPES = [
    ("users", "uid = 17", "uid = ?", [17]),
    ("users", "17 = uid", "? = uid", [17]),
    ("users", "uid = 777", "uid = ?", [777]),  # absent key
    ("users", "uid IN (3, 4, 5)", "uid IN (?, ?, ?)", [3, 4, 5]),
    ("users", "uid IN (3, 4) AND score > 20", "uid IN (?, ?) AND score > ?", [3, 4, 20]),
    ("users", "uid = 9 AND uid < 50", "uid = ? AND uid < ?", [9, 50]),  # equality + range
    ("users", "uid = 9 AND uid > 50", "uid = ? AND uid > ?", [9, 50]),
    ("users", "uid BETWEEN 10 AND 19", "uid BETWEEN ? AND ?", [10, 19]),
    ("users", "uid < 12", "uid < ?", [12]),
    ("users", "uid <= 12", "uid <= ?", [12]),
    ("users", "uid > 187", "uid > ?", [187]),
    ("users", "uid >= 187", "uid >= ?", [187]),
    ("users", "12 > uid", "? > uid", [12]),  # literal on the left flips
    ("users", "187 <= uid", "? <= uid", [187]),
    ("users", "uid > 10 AND uid <= 15", "uid > ? AND uid <= ?", [10, 15]),
    ("users", "uid >= 10 AND score < 50", "uid >= ? AND score < ?", [10, 50]),
    ("users", "uid = 3 OR uid = 5", "uid = ? OR uid = ?", [3, 5]),
    ("users", "uid < 5 OR score > 99", "uid < ? OR score > ?", [5, 99]),
    ("users", "score > 50", "score > ?", [50]),  # non-key column
    ("users", "name = 'user3'", "name = ?", ["user3"]),
    ("users", "uid != 4", "uid != ?", [4]),
    ("users", None, None, None),  # key-free
    ("people", "name = 'user3'", "name = ?", ["user3"]),
    ("people", "name LIKE 'user1%'", None, None),
    ("people", "name LIKE 'user1%' AND uid < 100", "name LIKE 'user1%' AND uid < ?", [100]),
    ("people", "name LIKE 'user%3'", None, None),  # not a prefix: stays residual
    ("people", "name LIKE '%'", None, None),  # empty prefix bounds nothing
    ("people", "name >= 'user12' AND name < 'user14'", "name >= ? AND name < ?", ["user12", "user14"]),
    ("people", "uid = 17", "uid = ?", [17]),  # people's key is name, not uid
]
WHERE_FORMS = [
    pytest.param(view, where, params, id=f"{view}-{where}")
    for view, literal, parameterized, values in WHERE_SHAPES
    for where, params in [(literal, None)] + ([(parameterized, values)] if parameterized else [])
]


def indexed_leaves(node):
    own = [node] if isinstance(node, IndexedLeafExec) else []
    return own + [op for child in node.children() for op in indexed_leaves(child)]


class TestRecognizerPlannerAgreement:
    """The planner's index rule is the one recogniser: a prepared
    statement's plan, planned once and bound, has the index operator the
    bound query planned fresh has; every front end — a QueryServer and
    routers of one and three shards, on one session, so on one plan cache —
    reports that operator as its path and answers with the general
    pipeline's rows. The general pipeline reads a point or range directly
    (DESIGN.md §13), and that list is the job's."""

    KINDS = {IndexedLookupExec: "point", IndexedRangeScanExec: "range", IndexedScanExec: "scan"}
    #: The path each front end reports per kind: the QueryServer keeps the
    #: label its counters have always used for a point read.
    SERVER_PATHS = {"point": "fastpath", "range": "range", "scan": "scan"}

    @pytest.fixture(scope="class")
    def tier(self):
        config = Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
        session = Session(context=EngineContext(config=config))
        df = session.create_dataframe(make_users(200), USER_SCHEMA, name="users")
        server = QueryServer(session, ServeConfig(num_workers=1))
        routers = [ShardRouter(session, 1), ShardRouter(session, 3)]
        for view, key in (("users", "uid"), ("people", "name")):
            idf = df.create_index(key)
            for front_end in (server, *routers):
                front_end.publish(view, idf)
        yield session, server, routers
        server.shutdown()
        for router in routers:
            router.shutdown()

    @pytest.mark.parametrize("view, where, params", WHERE_FORMS)
    def test_kind_is_the_planned_operator_and_rows_agree(self, tier, view, where, params):
        session, server, routers = tier
        text = f"SELECT uid, name FROM {view}" + (f" WHERE {where}" if where else "")
        if params is None:
            bound = session.sql_logical(text)
            used = session.plan_physical(bound)
        else:
            statement = session.prepare(text)
            bound, used = statement.bind(params), statement.plan(params)
        physical = session.plan_physical(bound)
        (planned,) = indexed_leaves(physical)
        kind = self.KINDS[type(planned)]
        assert [type(leaf) for leaf in indexed_leaves(used)] == [type(planned)]
        registry = session.context.registry
        answered = registry.counter_value("sql_direct_reads_total", outcome="answered")
        general = session.execute(bound)
        direct = registry.counter_value("sql_direct_reads_total", outcome="answered") > answered
        assert direct == (kind != "scan")
        assert general == physical.execute().collect() == used.execute().collect()
        expected = sorted(general)
        single = server.query(text, params=params)
        assert single.path == self.SERVER_PATHS[kind]
        assert sorted(single.rows) == expected
        for router in routers:
            routed = router.query(text, params=params)
            assert routed.path == kind and not routed.degraded
            assert sorted(routed.rows) == expected

    def test_republish_keeps_every_front_end_on_one_version(self, tier):
        _, server, routers = tier
        child = server.pinned("users").idf.append_rows([(5_000, "late", 1.0)])
        for front_end in (server, *routers):
            front_end.publish("users", child)
        versions = {front_end.pinned("users").version for front_end in (server, *routers)}
        assert versions == {child.version}
        text = "SELECT uid, name FROM users WHERE uid = ?"
        assert server.query(text, params=[5_000]).rows == [(5_000, "late")]
        for router in routers:
            assert router.query(text, params=[5_000]).rows == [(5_000, "late")]

    def test_front_ends_serving_different_views_keep_their_fast_paths(self):
        """A QueryServer and a ShardRouter on one session share the plan
        cache, and each plan's leaf names its view: each front end serves
        only the view it published, whichever plan is cached first."""
        session, idf, server = make_server()
        router = ShardRouter(session, 2)
        router.publish("routed_users", idf)
        with server, router:
            for _ in range(3):  # both orders, memo warm and cold
                for view, mine, other in (
                    ("users", server, router),
                    ("routed_users", router, server),
                ):
                    text = f"SELECT * FROM {view} WHERE uid = ?"
                    assert mine.query(text, params=[7]).path in ("fastpath", "point")
                    assert other.query(text, params=[7]).path == "general"
                    assert mine.query(text, params=[7]).path in ("fastpath", "point")
                    assert mine.query(text, params=[7]).rows == other.query(text, params=[7]).rows


# -- prepared statements: planned once, bound per execution -----------------------------


def outcome(run):
    """``("rows", rows)``, or ``("raises", exception type)``."""
    try:
        return "rows", run()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raises", type(exc)


def resident_read(plan):
    """``plan``'s direct read of the session's resident partitions — a
    scan's too, which the session itself runs as a job — or None."""
    leaf = plan
    while isinstance(leaf, RowwiseExec):
        leaf = leaf.child
    if not isinstance(leaf, IndexedLeafExec):
        return None
    return plan.direct_rows(ResidentPartitions(leaf.idf.rdd))


def _maybe_null(rng, value):
    return None if rng.random() < 0.15 else value


#: (statement, seeded binding). ``users`` is keyed on ``uid`` (0..199 plus
#: absent keys), ``people`` on ``name`` ("user0".."user16", duplicated).
STATEMENTS = [
    (
        "SELECT * FROM users WHERE uid IN (?, ?, ?, ?)",  # duplicates and NULL
        lambda rng: [_maybe_null(rng, rng.choice([3, 3, 17, 150, 205])) for _ in range(4)],
    ),
    ("SELECT * FROM users WHERE uid = ?", lambda rng: [_maybe_null(rng, rng.randrange(220))]),
    (
        "SELECT uid, name FROM users WHERE uid BETWEEN ? AND ?",  # NULL and reversed bounds
        lambda rng: [_maybe_null(rng, rng.randrange(210)), _maybe_null(rng, rng.randrange(210))],
    ),
    (
        "SELECT name, score FROM users WHERE uid >= ? AND score < ? LIMIT 5",
        lambda rng: [rng.randrange(200), rng.randrange(100)],
    ),
    (
        "SELECT uid, score * 2 AS d FROM users WHERE uid IN (?, ?) AND score > ?",
        lambda rng: [rng.randrange(200), rng.randrange(200), rng.randrange(100)],
    ),
    ("SELECT uid FROM users WHERE score > ? LIMIT 7", lambda rng: [rng.randrange(100)]),
    (
        "SELECT name, uid FROM people WHERE name LIKE 'user1%' AND uid < ?",
        lambda rng: [_maybe_null(rng, rng.randrange(200))],
    ),
    (
        "SELECT name, uid FROM people WHERE name >= ? AND name < ?",
        lambda rng: [_maybe_null(rng, f"user{rng.randrange(17)}"), f"user{rng.randrange(17)}"],
    ),
    ("SELECT count(*) FROM users WHERE uid = ?", lambda rng: [rng.randrange(220)]),
    (  # a `?` the template's plan needs the type of: bound before planning
        "SELECT uid, score + ? AS s FROM users WHERE uid = ?",
        lambda rng: [rng.randrange(10), rng.randrange(220)],
    ),
]


class TestPreparedPlanDifferential:
    """A prepared statement's plan is planned once and bound per execution;
    over seeded bindings that bound plan gives the rows — or raises the
    exception type — the bound logical plan planned fresh gives, on the
    job, on the session's direct read and on both front ends."""

    @pytest.fixture(scope="class")
    def tier(self):
        config = Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
        session = Session(context=EngineContext(config=config))
        df = session.create_dataframe(make_users(200), USER_SCHEMA, name="users")
        server = QueryServer(session, ServeConfig(num_workers=1))
        router = ShardRouter(session, 2)
        for view, key in (("users", "uid"), ("people", "name")):
            idf = df.create_index(key).cache_index()
            for front_end in (server, router):
                front_end.publish(view, idf)
        yield session, server, router
        server.shutdown()
        router.shutdown()

    @pytest.mark.parametrize("text, draw", STATEMENTS, ids=[t for t, _ in STATEMENTS])
    def test_bound_plan_equals_fresh_plan(self, tier, text, draw):
        session, server, router = tier
        statement = session.prepare(text)
        rng = random.Random(text)
        for i in range(25):
            params = draw(rng) if i else [None] * statement.num_params
            fresh = session.plan_physical(statement.bind(params))
            plan = statement.plan(params)
            job = outcome(lambda: fresh.execute().collect())
            assert outcome(lambda: plan.execute().collect()) == job, params
            assert outcome(lambda: statement.execute(params)) == outcome(
                lambda: session.execute(fresh)
            ), params
            # A call raises what the job's task raised, unwrapped.
            direct = outcome(lambda: list(resident_read(fresh)))
            if resident_read(fresh) is None:
                direct = outcome(lambda: session.execute(fresh))
            else:
                assert outcome(lambda: list(resident_read(plan))) == direct, params
            for front_end in (server, router):
                assert outcome(lambda: front_end.query(text, params=params).rows) == direct

    def test_a_like_pattern_is_not_a_parameter(self, tier):
        session, _, _ = tier
        with pytest.raises(SQLParseError):
            session.prepare("SELECT * FROM people WHERE name LIKE ?")

    def test_key_bound_statement_plans_once(self):
        config = Config(
            default_parallelism=4, shuffle_partitions=4, row_batch_size=4096, tracing_enabled=True
        )
        session, _, server = make_server(config=config)
        router = ShardRouter(session, 2)
        router.publish("users", server.pinned("users").idf)
        text = "SELECT name FROM users WHERE uid = ? AND score > ?"
        statement = session.prepare(text)
        tracer = session.context.tracer
        tracer.reset()
        with server, router:
            for uid in range(100):
                want = [(f"user{uid % 17}",)] if make_users(200)[uid][2] > 10 else []
                assert statement.execute([uid, 10]) == want
                assert router.query(text, params=[uid, 10]).rows == want
                assert server.query(text, params=[uid, 10]).rows == want
        plans = [s for s in tracer.finished_spans("phase") if s.name == "plan"]
        assert len(plans) == 1


# -- a served read is a call: no job, no job_lock ------------------------------------------

SERVED_READS = [
    ("SELECT * FROM users WHERE uid = ?", [7], "point"),
    ("SELECT uid, name FROM users WHERE uid BETWEEN ? AND ?", [10, 40], "range"),
    ("SELECT uid FROM users WHERE score > ?", [50], "scan"),
]


def finishes_within(seconds, run):
    """``run()`` on a thread; its result, or an AssertionError when it is
    still running after ``seconds``."""
    out = []
    thread = threading.Thread(target=lambda: out.append(run()), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive() and out, "the read waited for job_lock"
    return out[0]


class TestServedReadsTakeNoJobLock:
    @pytest.fixture
    def job_lock_held(self):
        """Another thread holds ``context.job_lock`` for the test's span."""

        def hold(session):
            acquired, release = threading.Event(), threading.Event()

            def holder():
                with session.context.job_lock:
                    acquired.set()
                    release.wait(30.0)

            thread = threading.Thread(target=holder, daemon=True)
            thread.start()
            assert acquired.wait(5.0)
            holders.append((release, thread))

        holders: list = []
        yield hold
        for release, thread in holders:
            release.set()
            thread.join(5.0)

    def test_query_server_and_router_reads(self, job_lock_held):
        session, idf, server = make_server()
        router = ShardRouter(session, 2)
        router.publish("users", idf)
        expected = {
            text: sorted(session.prepare(text).execute(params)) for text, params, _ in SERVED_READS
        }
        job_lock_held(session)
        with server, router:
            for text, params, kind in SERVED_READS:
                for front_end, path in (
                    (server, "fastpath" if kind == "point" else kind),
                    (router, kind),
                ):
                    result = finishes_within(5.0, lambda: front_end.query(text, params=params))
                    assert result.path == path
                    assert sorted(result.rows) == expected[text]


# -- two front ends, one view, two versions --------------------------------------------


class TestFrontEndsReadTheirOwnPins:
    """The catalog holds one registration of a view — whichever front end
    published last — and the plan's leaf only names the view: each front end
    must still answer from its own pin."""

    TEXTS = [
        ("SELECT * FROM users WHERE uid = ?", [5_000]),
        ("SELECT uid, name FROM users WHERE uid BETWEEN ? AND ?", [190, 6_000]),
        ("SELECT uid FROM users WHERE name = ?", ["late"]),
    ]

    def test_different_versions_of_one_view(self):
        session, parent, server = make_server()
        child = parent.append_rows([(5_000, "late", 1.0)])
        router = ShardRouter(session, 2)
        with server, router:
            for order in range(2):  # who registers the catalog's plan last
                for front_end, idf in [(server, parent), (router, child)][:: 1 - 2 * order]:
                    front_end.publish("users", idf)
                for text, params in self.TEXTS:
                    old = server.query(text, params=params)
                    new = router.query(text, params=params)
                    assert (old.snapshot_version, new.snapshot_version) == (0, 1)
                    assert 5_000 not in {row[0] for row in old.rows}, text
                    assert 5_000 in {row[0] for row in new.rows}, text

    def test_differently_partitioned_tables_of_one_view(self):
        """Keys hash through the pin's partitioner, not the plan leaf's."""
        session, _, server = make_server()
        router = ShardRouter(session, 2)
        rows = make_users(200)
        three = session.create_dataframe(rows, USER_SCHEMA, name="users").create_index(
            "uid", num_partitions=3
        )
        text = "SELECT * FROM users WHERE uid = ?"
        with server, router:
            router.publish("users", three)
            server.publish("users", server.pinned("users").idf)  # the plan's leaf: 4 partitions
            for uid in range(0, 200, 7):
                assert router.query(text, params=[uid]).rows == [rows[uid]]
                assert server.query(text, params=[uid]).rows == [rows[uid]]


# -- admission control ---------------------------------------------------------------

#: A query only the general pipeline answers: holding ``job_lock`` wedges a
#: worker on it (reads of a published view never take the lock).
GENERAL_SQL = "SELECT COUNT(*) AS n FROM users WHERE score > -1"


class TestAdmission:
    def test_queue_full_rejection_is_retryable(self):
        session, _, server = make_server(
            serve=ServeConfig(num_workers=1, max_queue_depth=2)
        )
        blocker = session.context.job_lock
        blocker.acquire()  # general-path queries now block inside run_job
        try:
            tickets = [server.submit(GENERAL_SQL)]
            # Wait for the worker to dequeue it (it then blocks on job_lock).
            deadline = time.time() + 5.0
            while server._queue.qsize() > 0 and time.time() < deadline:
                time.sleep(0.005)
            # Two more fill the queue.
            for _ in range(2):
                tickets.append(server.submit(GENERAL_SQL))
            with pytest.raises(ServeRejected) as exc_info:
                server.submit(GENERAL_SQL)
            assert exc_info.value.reason == "queue_full"
            assert exc_info.value.retryable
        finally:
            blocker.release()
        for t in tickets:
            assert t.result(timeout=30.0).path == "general"
        server.shutdown()
        assert (
            session.context.registry.counter_value(
                "serve_rejections_total", reason="queue_full"
            )
            == 1
        )

    def test_deadline_shedding(self):
        session, _, server = make_server(serve=ServeConfig(num_workers=1))
        blocker = session.context.job_lock
        blocker.acquire()
        try:
            running = server.submit(GENERAL_SQL)
            stale = server.submit(
                "SELECT * FROM users WHERE uid = 1", deadline=0.01
            )
            time.sleep(0.1)
        finally:
            blocker.release()
        assert running.result(timeout=30.0).path == "general"
        with pytest.raises(ServeRejected) as exc_info:
            stale.result(timeout=30.0)
        assert exc_info.value.reason == "deadline"
        assert exc_info.value.retryable
        server.shutdown()

    def test_deadline_expiry_while_queued_unblocks_client(self):
        """Regression: a client blocked in ``result()`` on a ticket whose
        deadline expires while it is still *queued* must get the retryable
        deadline rejection immediately — not sit out its full timeout
        behind a stalled worker."""
        session, _, server = make_server(serve=ServeConfig(num_workers=1))
        blocker = session.context.job_lock
        blocker.acquire()  # the single worker wedges on the general path
        try:
            running = server.submit(GENERAL_SQL)
            stale = server.submit("SELECT * FROM users WHERE uid = 1", deadline=0.05)
            t0 = time.perf_counter()
            with pytest.raises(ServeRejected) as exc_info:
                stale.result(timeout=30.0)  # worker is still wedged
            waited = time.perf_counter() - t0
            assert exc_info.value.reason == "deadline"
            assert exc_info.value.retryable
            assert waited < 5.0, "client waited out the timeout, not the deadline"
        finally:
            blocker.release()
        assert running.result(timeout=30.0).path == "general"
        server.shutdown()
        # The worker dequeues the expired ticket and skips it: exactly one
        # deadline rejection was recorded, by the client-side expiry.
        assert (
            session.context.registry.counter_value(
                "serve_rejections_total", reason="deadline"
            )
            == 1
        )

    def test_memory_pressure_shedding_via_probe(self):
        pressure = [0.0]
        session, _, server = make_server(
            serve=ServeConfig(pressure_probe=lambda: pressure[0], shed_memory_fraction=0.9)
        )
        with server:
            assert server.query("SELECT * FROM users WHERE uid = 1").path == "fastpath"
            pressure[0] = 0.95
            with pytest.raises(ServeRejected) as exc_info:
                server.submit("SELECT * FROM users WHERE uid = 1")
            assert exc_info.value.reason == "memory_pressure"
            assert exc_info.value.retryable
            pressure[0] = 0.2
            assert server.query("SELECT * FROM users WHERE uid = 1").path == "fastpath"

    def test_chaos_rejections_are_deterministic_and_retryable(self):
        config = Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=4096,
        )

        def run_once() -> list[int]:
            _, _, server = make_server(
                config=config, chaos=dict(seed=7, serve_rejection_prob=0.3)
            )
            rejected = []
            with server:
                for i in range(30):
                    try:
                        server.query("SELECT * FROM users WHERE uid = 1")
                    except ServeRejected as exc:
                        assert exc.reason == "chaos"
                        assert exc.retryable
                        rejected.append(i)
            return rejected

        first, second = run_once(), run_once()
        assert first == second
        assert 0 < len(first) < 30

    def test_shutdown_rejects_new_queries(self):
        _, _, server = make_server()
        server.shutdown()
        with pytest.raises(ServeRejected) as exc_info:
            server.submit("SELECT * FROM users WHERE uid = 1")
        assert exc_info.value.reason == "shutdown"
        assert not exc_info.value.retryable


class TestShutdownDrain:
    """``shutdown(drain=True)`` with queries in flight: every ticket must
    resolve — completed or rejected — under every scheduler mode. A ticket
    left permanently pending is a hung client."""

    @pytest.mark.parametrize("mode", MODES)
    def test_drain_resolves_every_inflight_ticket(self, mode):
        config = Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=4096,
            scheduler_mode=mode,
        )
        session, _, server = make_server(config=config, serve=ServeConfig(num_workers=2))
        tickets = []
        for i in range(4):
            tickets.append(server.submit(f"SELECT name FROM users WHERE uid = {i}"))
            tickets.append(server.submit(GENERAL_SQL))
        server.shutdown(drain=True)
        for t in tickets:
            result = t.result(timeout=30.0)  # drained: all complete, none hang
            assert result.rows, f"drained ticket returned no rows: {t.text!r}"
        assert all(t.done for t in tickets)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_drain_fails_queued_tickets_promptly(self, mode):
        config = Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=4096,
            scheduler_mode=mode,
        )
        session, _, server = make_server(config=config, serve=ServeConfig(num_workers=1))
        blocker = session.context.job_lock
        blocker.acquire()  # wedge the worker so the rest stay queued
        try:
            tickets = [server.submit(GENERAL_SQL)]
            deadline = time.time() + 5.0
            while server._queue.qsize() > 0 and time.time() < deadline:
                time.sleep(0.005)
            for i in range(3):
                tickets.append(server.submit(f"SELECT name FROM users WHERE uid = {i}"))
            shutdown_thread = threading.Thread(
                target=server.shutdown, kwargs={"drain": False}
            )
            shutdown_thread.start()
            # Queued tickets are rejected without waiting for the wedged one.
            for t in tickets[1:]:
                with pytest.raises(ServeRejected) as exc_info:
                    t.result(timeout=10.0)
                assert exc_info.value.reason == "shutdown"
        finally:
            blocker.release()
        shutdown_thread.join(timeout=30.0)
        assert not shutdown_thread.is_alive()
        assert tickets[0].result(timeout=30.0).rows  # in-flight one finishes
        assert all(t.done for t in tickets)

    def test_shutdown_leaves_no_serve_threads(self):
        """Workers are joined and the router's fan-out runs on the caller's
        thread: nothing the two front ends started outlives ``shutdown()``."""
        before = set(threading.enumerate())
        session, idf, server = make_server(serve=ServeConfig(num_workers=3))
        router = ShardRouter(session, 3)
        router.publish("users", idf)
        for front_end in (server, router):
            for text in (
                "SELECT * FROM users WHERE uid BETWEEN 3 AND 9",
                "SELECT * FROM users WHERE score > 50",
            ):
                assert front_end.query(text).rows
        server.shutdown()
        router.shutdown()
        leaked = [
            t.name
            for t in threading.enumerate()
            if t not in before and t.name.startswith(("serve-worker-", "shard-router"))
        ]
        assert leaked == []


class TestInlineAnswers:
    """``query()`` answers on the caller's thread when a slot is free and no
    ticket waits; workers and inline callers share ``num_workers`` slots."""

    POINT = "SELECT * FROM users WHERE uid = ?"

    @staticmethod
    def recording(server, gate=None):
        """Wrap ``server.router.answer``: each call notes its thread and the
        concurrent answers, waiting on ``gate`` (or a short sleep) first."""
        lock, state, threads = threading.Lock(), {"now": 0, "peak": 0}, []
        real = server.router.answer

        def answer(text, params=None):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
                threads.append(threading.current_thread().name)
            try:
                if gate is None:
                    time.sleep(0.002)
                else:
                    assert gate.wait(10.0)
                return real(text, params)
            finally:
                with lock:
                    state["now"] -= 1

        server.router.answer = answer
        return state, threads

    def test_never_more_than_num_workers_answering(self):
        _, _, server = make_server(serve=ServeConfig(num_workers=2))
        state, threads = self.recording(server)
        rows = {r[0]: r for r in make_users(200)}
        errors: list[str] = []

        def client(seed: int) -> None:
            for uid in range(seed, 200, 8):
                result = server.query(self.POINT, params=[uid])
                if result.rows != [rows[uid]]:
                    errors.append(f"uid {uid}: {result.rows}")

        clients = [threading.Thread(target=client, args=(i,), name=f"client-{i}") for i in range(8)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60.0)
        server.shutdown()
        assert errors == []
        assert len(threads) == 200
        assert state["peak"] == 2
        assert any(name.startswith("client-") for name in threads)  # answered inline
        assert any(name.startswith("serve-worker-") for name in threads)  # and queued

    def test_a_query_behind_a_queued_ticket_is_queued(self):
        """A worker that dequeued a ticket but has not yet taken its slot: a
        slot is free, and a ``query()`` still waits its turn behind it."""
        gate, parked = threading.Event(), threading.Event()

        class GatedSlots(threading.Semaphore):
            def __enter__(self):  # how a worker takes its slot
                parked.set()
                assert gate.wait(10.0)
                return super().__enter__()

        _, _, server = make_server(serve=ServeConfig(num_workers=1))
        server._slots = GatedSlots(1)
        _, threads = self.recording(server)
        ticket = server.submit(self.POINT, params=[1])
        assert parked.wait(10.0)
        assert server._queue.qsize() == 0  # dequeued, not yet answering
        answered: list = []
        client = threading.Thread(
            target=lambda: answered.append(server.query(self.POINT, params=[2])), name="client"
        )
        client.start()
        time.sleep(0.05)
        assert threads == [] and not answered  # not answered inline past the ticket
        gate.set()
        client.join(timeout=30.0)
        assert ticket.result(timeout=30.0).rows[0][0] == 1
        assert answered[0].rows[0][0] == 2
        assert threads == ["serve-worker-0", "serve-worker-0"]
        server.shutdown()

    def test_chaos_rejects_the_same_admissions_inline_and_queued(self):
        def rejected(call) -> list[int]:
            _, _, server = make_server(chaos=dict(seed=11, serve_rejection_prob=0.3))
            out = []
            with server:
                for i in range(40):
                    try:
                        call(server, i)
                    except ServeRejected as exc:
                        assert exc.reason == "chaos"
                        out.append(i)
            return out

        inline = rejected(lambda server, i: server.query(self.POINT, params=[i]))
        queued = rejected(lambda server, i: server.submit(self.POINT, params=[i]).result(30.0))
        assert inline == queued
        assert 0 < len(inline) < 40

    def test_an_inline_answer_is_recorded_as_a_workers_is(self):
        config = Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096, tracing_enabled=True)
        session, _, server = make_server(config=config)
        _, threads = self.recording(server)
        tracer, registry = session.context.tracer, session.context.registry
        tracer.reset()
        inline = server.query(self.POINT, params=[3])
        queued = server.submit(self.POINT, params=[3]).result(30.0)
        server.shutdown()
        assert threads[0] == threading.current_thread().name
        assert threads[1].startswith("serve-worker-")
        assert inline.rows == queued.rows and inline.path == queued.path == "fastpath"
        assert inline.queued_seconds == 0.0
        spans = [s for s in tracer.finished_spans("serve")]
        assert [s.attrs for s in spans] == [{"text": self.POINT, "path": "fastpath"}] * 2
        assert spans[0].thread_id != spans[1].thread_id
        assert registry.counter_value("serve_queries_total", path="fastpath") == 2
        assert registry.histogram_stats("serve_latency_seconds", path="fastpath")["count"] == 2

    def test_shutdown_without_drain_loses_no_inline_answer(self):
        gate = threading.Event()
        _, _, server = make_server(serve=ServeConfig(num_workers=2))
        _, threads = self.recording(server, gate)
        answers: list = []
        clients = [
            threading.Thread(target=lambda uid=uid: answers.append(server.query(self.POINT, params=[uid])))
            for uid in (4, 5)
        ]
        for t in clients:
            t.start()
        deadline = time.time() + 10.0
        while len(threads) < 2 and time.time() < deadline:
            time.sleep(0.005)
        assert len(threads) == 2  # both answering inline, holding both slots
        server.shutdown(drain=False)
        with pytest.raises(ServeRejected):
            server.query(self.POINT, params=[6])
        gate.set()
        for t in clients:
            t.join(timeout=30.0)
        assert sorted(a.rows[0][0] for a in answers) == [4, 5]


# -- concurrent ingest / read-after-write ---------------------------------------------


class TestConcurrentIngest:
    def test_readers_see_consistent_monotonic_snapshots(self):
        session, idf, server = make_server(serve=ServeConfig(num_workers=4))
        base_rows = {r[0]: r for r in make_users(200)}
        n_batches, batch_rows = 8, 25
        batches = [
            [(10_000 + b * batch_rows + j, f"batch{b}", float(b)) for j in range(batch_rows)]
            for b in range(n_batches)
        ]
        appended = {r[0]: r for batch in batches for r in batch}
        errors: list[str] = []

        def reader(seed: int) -> None:
            last_version = -1
            keys = list(base_rows)[seed::4] + list(appended)[seed::4]
            for k in keys:
                try:
                    result = server.query(
                        "SELECT * FROM users WHERE uid = ?", params=[k], timeout=60.0
                    )
                except ServeRejected as exc:
                    if not exc.retryable:
                        errors.append(f"non-retryable rejection: {exc}")
                    continue
                if result.snapshot_version is not None:
                    if result.snapshot_version < last_version:
                        errors.append(
                            f"version went backwards: {result.snapshot_version} "
                            f"< {last_version}"
                        )
                    last_version = result.snapshot_version
                if k in base_rows:
                    # Base rows exist in every version.
                    if result.rows != [base_rows[k]]:
                        errors.append(f"torn/wrong base row for uid={k}: {result.rows}")
                elif result.rows:
                    # Appended rows are either absent (older snapshot) or intact.
                    if result.rows != [appended[k]]:
                        errors.append(f"torn appended row for uid={k}: {result.rows}")

        ingest = IngestLoop(server, "users", batches)
        readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        ingest.start()
        for t in readers:
            t.start()
        ingest.join(60.0)
        for t in readers:
            t.join(60.0)
        server.shutdown()
        assert ingest.error is None
        assert errors == []
        assert ingest.published_versions == list(range(1, n_batches + 1))
        # After ingest, every appended row is served at the final version.
        final = server.pinned("users")
        assert final.version == n_batches
        for k, row in list(appended.items())[::7]:
            assert final.lookup(k) == [row]

    def test_publish_bumps_catalog_epoch_and_invalidates_templates(self):
        session, idf, server = make_server()
        with server:
            r1 = server.query("SELECT * FROM users WHERE uid = 9999")
            assert r1.path == "fastpath" and r1.rows == []
            child = idf.append_rows([(9999, "late", 1.5)])
            server.publish("users", child)
            r2 = server.query("SELECT * FROM users WHERE uid = 9999")
            assert r2.path == "fastpath"
            assert r2.rows == [(9999, "late", 1.5)]
            assert r2.snapshot_version == child.version


# -- chaos: kills and squeezes mid-serving ---------------------------------------------


class TestChaosServing:
    def test_executor_kill_mid_serving_zero_wrong_answers(self):
        config = Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=4096,
            executor_replacement=True,
            executor_restart_delay_tasks=4,
        )
        session, idf, server = make_server(config=config)
        context = session.context
        with server:
            expected = {r[0]: r for r in make_users(200)}
            for i in range(10):
                assert server.query(
                    "SELECT * FROM users WHERE uid = ?", params=[i]
                ).rows == [expected[i]]
            victim = context.alive_executor_ids()[0]
            context.kill_executor(victim, reason="chaos-serving")
            # Fast path keeps serving from the pin (objects are held
            # in-process; the block store is not on this read path).
            for i in range(10, 20):
                result = server.query("SELECT * FROM users WHERE uid = ?", params=[i])
                assert result.path == "fastpath"
                assert result.rows == [expected[i]]
            # General path recovers through the scheduler's machinery.
            general = server.query("SELECT name, SUM(score) AS s FROM users GROUP BY name")
            assert general.path == "general"
            assert sorted(general.rows) == sorted(
                session.sql(
                    "SELECT name, SUM(score) AS s FROM users GROUP BY name"
                ).collect_tuples()
            )
            # Re-publishing re-pins: partitions rebuild from lineage.
            child = idf.append_rows([(5000, "post-kill", 2.0)])
            server.publish("users", child)
            assert server.query(
                "SELECT * FROM users WHERE uid = ?", params=[5000]
            ).rows == [(5000, "post-kill", 2.0)]

    def test_memory_squeeze_and_chaos_mix_only_retryable_rejections(self):
        config = Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=4096,
            executor_memory_bytes=512 * 1024,
            executor_replacement=True,
        )
        session, idf, server = make_server(
            config=config,
            chaos=dict(
                seed=11,
                serve_rejection_prob=0.15,
                memory_squeeze_prob=0.2,
                memory_squeeze_factor=0.5,
            ),
        )
        expected = {r[0]: r for r in make_users(200)}
        wrong, rejections = [], 0
        with server:
            ingest = IngestLoop(
                server,
                "users",
                [[(20_000 + b, f"chaos{b}", 0.5)] for b in range(5)],
            )
            ingest.start()
            for i in range(60):
                uid = i % 200
                try:
                    result = server.query(
                        "SELECT * FROM users WHERE uid = ?", params=[uid], timeout=60.0
                    )
                except ServeRejected as exc:
                    assert exc.retryable, f"non-retryable mid-chaos: {exc}"
                    rejections += 1
                    continue
                if result.rows != [expected[uid]]:
                    wrong.append((uid, result.rows))
            ingest.join(60.0)
        assert ingest.error is None
        assert wrong == []
        assert rejections > 0  # chaos actually fired


# -- lineage replay ---------------------------------------------------------------------


def kill_every_executor(context: EngineContext) -> None:
    """Lose every cached partition and every shuffle map output at once."""
    for executor_id in list(context.alive_executor_ids()):
        context.kill_executor(executor_id, reason="lineage-replay")


def assert_append_maps_lost(context: EngineContext, *idfs) -> None:
    """Each append's map outputs are gone, so rebuilding it re-reads its source."""
    for idf in idfs:
        dep = idf.rdd.append_dep
        missing = context.shuffle_manager.missing_maps(dep.shuffle_id)
        assert missing == list(range(dep.rdd.num_partitions)), (idf.version, missing)


class TestLineageReplay:
    """Each append's ``AppendRDD`` holds its rows as a driver-side source;
    that source is all lineage needs to rebuild any version."""

    def test_siblings_and_chain_replay_their_own_rows_after_executor_loss(self):
        config = Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=4096,
            executor_replacement=True,
        )
        session = Session(context=EngineContext(config=config))
        context = session.context
        base_rows = make_users(50)
        base = session.create_dataframe(base_rows, USER_SCHEMA, name="users").create_index("uid")
        # Listing 2: two divergent children of one parent, both at version 1,
        # appending different rows under one key.
        left_rows = [(900, "left", 1.0)]
        right_rows = [(900, "right", 2.0), (901, "right", 2.5)]
        left, right = base.append_rows(left_rows), base.append_rows(right_rows)
        assert left.version == right.version == base.version + 1
        versions = [
            (base, base_rows),
            (left, base_rows + left_rows),
            (right, base_rows + right_rows),
        ]
        # A chain of three appends on the left sibling.
        tip, tip_rows = versions[1]
        for i in range(3):
            batch = [(910 + i, f"chain{i}", float(i)), (900, f"chain{i}", float(i))]
            tip, tip_rows = tip.append_rows(batch), tip_rows + batch
            versions.append((tip, tip_rows))
        assert [idf.version for idf, _ in versions] == [0, 1, 1, 2, 3, 4]
        for idf, rows in versions:
            assert sorted(tuple(r) for r in idf.collect()) == sorted(rows)

        kill_every_executor(context)
        appends = [idf for idf, _ in versions[1:]]
        assert_append_maps_lost(context, *appends)
        for idf, rows in versions:
            assert sorted(tuple(r) for r in idf.collect()) == sorted(rows), idf.version
        for idf in appends:  # every append's map stage ran again
            assert context.shuffle_manager.missing_maps(idf.rdd.append_dep.shuffle_id) == []

    def test_pin_survives_executor_loss_and_siblings_rebuild(self):
        config = Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=4096,
            executor_replacement=True,
        )
        session, idf, server = make_server(config=config)
        context = session.context
        with server:
            left = idf.append_rows([(800, "left", 3.0)])
            right = idf.append_rows([(800, "right", 4.0)])
            middle = left.append_rows([(801, "chain", 1.0)])
            tip = middle.append_rows([(802, "chain", 2.0)])
            server.publish("users", tip)
            assert right.count() == 201
            kill_every_executor(context)
            assert_append_maps_lost(context, left, right, middle, tip)
            # The fast path serves from the pin: its partition objects are
            # held in-process, not read from the lost block stores.
            for uid, row in ((800, (800, "left", 3.0)), (802, (802, "chain", 2.0))):
                result = server.query("SELECT * FROM users WHERE uid = ?", params=[uid])
                assert result.path == "fastpath"
                assert result.rows == [row]
            # Publishing pins again: both siblings rebuild from lineage, each
            # to its own rows.
            server.publish("users_right", right)
            server.publish("users", tip)
            for view, uid, rows in (
                ("users_right", 800, [(800, "right", 4.0)]),
                ("users_right", 802, []),
                ("users", 800, [(800, "left", 3.0)]),
                ("users", 801, [(801, "chain", 1.0)]),
            ):
                result = server.query(f"SELECT * FROM {view} WHERE uid = ?", params=[uid])
                assert result.rows == rows, (view, uid)


# -- snapshot pinning -------------------------------------------------------------------


class TestPinnedSnapshot:
    def test_pin_materializes_all_partitions_at_one_version(self):
        config = Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
        session = Session(context=EngineContext(config=config))
        df = session.create_dataframe(make_users(100), USER_SCHEMA, name="users")
        idf = df.create_index("uid")
        pin = PinnedSnapshot.pin(idf)
        assert pin.version == 0
        assert len(pin.partitions) == idf.num_partitions
        assert pin.row_count() == 100
        for uid in (0, 17, 99):
            assert pin.lookup(uid) == idf.lookup_tuples(uid)

    def test_parent_pin_isolated_from_child_appends(self):
        config = Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
        session = Session(context=EngineContext(config=config))
        df = session.create_dataframe(make_users(100), USER_SCHEMA, name="users")
        idf = df.create_index("uid")
        parent_pin = PinnedSnapshot.pin(idf)
        child = idf.append_rows([(700, "child-only", 9.0)])
        child_pin = PinnedSnapshot.pin(child)
        assert child_pin.lookup(700) == [(700, "child-only", 9.0)]
        assert parent_pin.lookup(700) == []  # MVCC: the parent never sees it
        assert parent_pin.lookup(5) == child_pin.lookup(5)
