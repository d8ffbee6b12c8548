"""Serving layer: admission control, fast path, concurrent ingest, chaos.

The server's contract under test everywhere here: it may *reject*
(retryably), but it never returns a wrong answer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import Config
from repro.engine.context import EngineContext
from repro.engine.replay import ReplayLog
from repro.indexed.operators import IndexedLookupExec, IndexedRangeScanExec, IndexedScanExec
from repro.serve import (
    IngestLoop,
    PinnedSnapshot,
    QueryServer,
    ServeConfig,
    ServeRejected,
    ShardRouter,
    recognize,
)
from repro.sql.session import Session

from .conftest import MODES, USER_SCHEMA, make_users


def make_server(
    config: Config | None = None,
    serve: ServeConfig | None = None,
    n_users: int = 200,
):
    config = config or Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
    session = Session(context=EngineContext(config=config))
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
        """Aggregates and computed projections take the general pipeline; a
        non-key predicate over a published view is a scan of the pin."""
        session, _, server = make_server()
        with server:
            for text, path in (
                ("SELECT name, SUM(score) AS s FROM users GROUP BY name", "general"),
                ("SELECT * FROM users WHERE score > 50", "scan"),  # non-key predicate
                ("SELECT uid, score * 2 AS d FROM users WHERE uid = 3", "general"),
            ):
                result = server.query(text)
                assert result.path == path
                assert sorted(result.rows) == sorted(session.sql(text).collect_tuples())

    def test_recognize_rejects_unserved_and_unindexed(self):
        session, idf, server = make_server()
        with server:
            text = "SELECT * FROM users WHERE uid = 3"
            template = recognize(session.sql_logical(text), session.catalog)
            assert (template.kind, template.view) == ("point", "users")
            assert server.query(text).path == "fastpath"
            # An indexed view in the catalog that this server does not serve
            # is recognized (the template names it) and answers on "general".
            idf.create_or_replace_temp_view("other_view")
            other = "SELECT * FROM other_view WHERE uid = 3"
            assert recognize(session.sql_logical(other), session.catalog).view == "other_view"
            result = server.query(other)
            assert result.path == "general"
            assert result.rows == session.sql(text).collect_tuples()
            # Plain (non-indexed) relation never fast-paths.
            session.create_dataframe(
                make_users(10), USER_SCHEMA, name="plain"
            ).create_or_replace_temp_view("plain")
            plain = "SELECT * FROM plain WHERE uid = 3"
            assert recognize(session.sql_logical(plain), session.catalog) is None
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


# -- one recogniser: the serve tier and the planner agree --------------------------------

#: (view, WHERE as literals, WHERE with ``?``, params). ``users`` is keyed on
#: ``uid`` (LONG), ``people`` on ``name`` (STRING); None = no WHERE clause /
#: no parameter form (a LIKE pattern is not bindable).
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


class TestRecognizerPlannerAgreement:
    """``recognize(...).kind`` is the index operator ``indexed_strategy``
    plans for the bound query, and every front end — a QueryServer and
    routers of one and three shards, on one session, so on one plan-cache
    memo slot — answers with the general pipeline's rows. The general
    pipeline reads a point or range directly (DESIGN.md §13), and that list
    is the job's."""

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
            template_plan = bound = session.sql_logical(text)
        else:
            statement = session.prepare(text)
            template_plan, bound = statement.template, statement.bind(params)

        def indexed_ops(node):
            own = [node] if type(node) in self.KINDS else []
            return own + [op for child in node.children() for op in indexed_ops(child)]

        physical = session.plan_physical(bound)
        (planned,) = indexed_ops(physical)
        kind = recognize(template_plan, session.catalog).kind
        assert kind == self.KINDS[type(planned)]
        registry = session.context.registry
        answered = registry.counter_value("sql_direct_reads_total", outcome="answered")
        general = session.execute(bound)
        direct = registry.counter_value("sql_direct_reads_total", outcome="answered") > answered
        assert direct == (kind != "scan")
        assert general == physical.execute().collect()
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
        """Two memo slots existed so that a QueryServer and a ShardRouter on
        one session would not overwrite each other's recognition of a view
        only one of them serves; with one slot neither may lose its path."""
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
            chaos_seed=7,
            chaos_serve_rejection_prob=0.3,
        )

        def run_once() -> list[int]:
            _, _, server = make_server(config=config)
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

        ingest = IngestLoop(server, "users", batches, retain_versions=2)
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
        # Replay log was truncated behind the retention window.
        log = final.idf.replay_log
        assert log.first_retained_id > 0
        assert len(log) <= 2

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
            chaos_seed=11,
            chaos_serve_rejection_prob=0.15,
            chaos_memory_squeeze_prob=0.2,
            chaos_memory_squeeze_factor=0.5,
            executor_memory_bytes=512 * 1024,
            executor_replacement=True,
        )
        session, idf, server = make_server(config=config)
        expected = {r[0]: r for r in make_users(200)}
        wrong, rejections = [], 0
        with server:
            ingest = IngestLoop(
                server,
                "users",
                [[(20_000 + b, f"chaos{b}", 0.5)] for b in range(5)],
                retain_versions=2,
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


# -- replay-log truncation -------------------------------------------------------------


class TestReplayTruncation:
    def test_truncate_through_drops_prefix_only(self):
        log = ReplayLog()
        for v in range(1, 6):
            log.append(v, [(v, f"r{v}")])
        assert log.truncate_through(2) == 3  # records 0..2 freed one row each
        assert log.first_retained_id == 3
        assert len(log) == 2
        with pytest.raises(KeyError):
            log.get(1)
        assert log.get(3).version == 4
        # Truncating below the base again is a no-op.
        assert log.truncate_through(1) == 0
        # Truncating past the tail empties the log but ids keep advancing.
        assert log.truncate_through(99) == 2
        assert len(log) == 0
        rec = log.append(6, [(6, "r6")])
        assert rec.record_id == 5
        assert log.last_record_id == 5

    def test_truncate_empty_log_is_noop(self):
        """Satellite regression: truncating an empty log (fresh, or already
        fully compacted) must be a no-op, never an exception."""
        log = ReplayLog()
        assert log.truncate_through(0) == 0
        assert log.truncate_through(100) == 0
        assert len(log) == 0
        assert log.first_retained_id == 0
        assert log.last_record_id == -1
        # The log still works afterwards.
        rec = log.append(1, [(1, "a")])
        assert rec.record_id == 0
        assert log.get(0).version == 1

    def test_truncate_past_head_is_noop_on_compacted_log(self):
        """Truncating at or below the compaction base again — e.g. a
        retention pass re-running with a stale watermark — frees nothing
        and moves nothing."""
        log = ReplayLog()
        for v in range(1, 4):
            log.append(v, [(v, f"r{v}")])
        assert log.truncate_through(log.last_record_id) == 3  # empty it
        base = log.first_retained_id
        # Every stale watermark at or below the base is a no-op.
        for stale in (-1, 0, base - 1):
            assert log.truncate_through(stale) == 0
        assert log.first_retained_id == base
        assert len(log) == 0
        # Ids keep advancing monotonically across the no-ops.
        rec = log.append(4, [(4, "r4")])
        assert rec.record_id == base

    def test_live_version_replays_after_truncation(self):
        """The regression the satellite demands: truncating the log must not
        break lineage replay of versions still being served — each AppendRDD
        holds its own copy of the rows that produced it."""
        config = Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
        session = Session(context=EngineContext(config=config))
        df = session.create_dataframe(make_users(50), USER_SCHEMA, name="users")
        idf = df.create_index("uid")
        v1 = idf.append_rows([(900, "a", 1.0)])
        v2 = v1.append_rows([(901, "b", 2.0)])
        assert v2.count() == 52  # materialize before truncating
        # Drop the whole log, then force recomputation from lineage.
        v2.replay_log.truncate_through(v2.replay_log.last_record_id)
        assert len(v2.replay_log) == 0
        for split in range(v2.num_partitions):
            session.context.invalidate_block((v2.rdd.rdd_id, split))
        rows = {t[:1][0]: t for t in (tuple(r) for r in v2.collect())}
        assert rows[900] == (900, "a", 1.0)
        assert rows[901] == (901, "b", 2.0)
        assert len(rows) == 52

    def test_pin_survives_truncation_and_eviction(self):
        session, idf, server = make_server()
        with server:
            child = idf.append_rows([(800, "pinned", 3.0)])
            server.publish("users", child)
            log = child.replay_log
            log.truncate_through(log.last_record_id)
            for split in range(child.num_partitions):
                session.context.invalidate_block((child.rdd.rdd_id, split))
            result = server.query("SELECT * FROM users WHERE uid = 800")
            assert result.path == "fastpath"
            assert result.rows == [(800, "pinned", 3.0)]


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
