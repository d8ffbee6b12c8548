"""Key-bound reads are calls (DESIGN.md §13).

A plan whose leaf is an indexed lookup or key range — under filters,
projections and a limit — is answered by :meth:`Session.execute` straight
from the resident partitions, without a job. The properties:

* **Same list.** Over 50 seeds, ``session.sql(q).collect_tuples()`` on the
  direct path equals ``plan_physical(...).execute().collect()`` on the job
  path as a list, order included, over LONG, DOUBLE (int probes) and
  colliding-hash STRING keys, both scheduler modes and a version after an
  append.
* **The job is the only fallback.** Each reason in the matrix takes the job,
  answers the same, and is counted in ``sql_direct_reads_total{outcome}``.
* **Versions hold under concurrency**, and **the accounting matches a
  job's**: cache hits, advisor block accesses, lineage references.
"""

from __future__ import annotations

import random
import sys
import threading
import zlib

import pytest

from repro.cluster.faults import FaultInjector
from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.engine.scheduler import TaskFailure
from repro.indexed import partition as partition_module
from repro.integrity import corrupt_file
from repro.obs.analyze import ExecutionMeter
from repro.sql.functions import col
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema
from tests.conftest import MODES, recovery_counts

POINT = "SELECT * FROM t WHERE k = 7"
RANGE = "SELECT * FROM t WHERE k BETWEEN 3 AND 9"


def outcomes(session) -> dict:
    return session.context.registry.counter_by_label("sql_direct_reads_total", "outcome")


def outcome_delta(session, run):
    """Run ``run()``; return its result and the outcomes it counted."""
    before = outcomes(session)
    result = run()
    after = outcomes(session)
    return result, {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def job_rows(session, text: str) -> list:
    return session.plan_physical(session.sql_logical(text)).execute().collect()


def by_repr(rows):
    return sorted(rows, key=repr)


# -- the differential ---------------------------------------------------------------

#: key type -> (schema type, the value of key number i, its SQL literal)
KEY_TYPES = {
    "long": (LONG, lambda i: i, str),
    # Half the keys integral, probed with int literals; half not.
    "double": (DOUBLE, lambda i: i / 2, lambda x: str(int(x)) if float(x).is_integer() else repr(x)),
    "string": (STRING, lambda i: f"s{i:03d}", lambda x: f"'{x}'"),
}


@pytest.fixture
def colliding_hash32(monkeypatch):
    """199 string hashes for up to 240 keys: chains mix keys, so the
    hash-then-verify read is always on trial."""
    monkeypatch.setattr(
        partition_module, "hash32", lambda key: zlib.crc32(str(key).encode()) % 199
    )


def differential_queries(rng: random.Random, keys: list, absent, lit) -> list[str]:
    a, b = rng.sample(keys, 2)
    lo, hi = sorted(rng.sample(keys, 2))
    cols = rng.choice(["*", "v, k", "k, v + 1 AS w"])
    where = [
        f"k = {lit(a)}",
        f"k = {lit(absent)}",
        f"k IN ({lit(a)}, {lit(b)}, {lit(a)}, {lit(absent)})",
        "k = NULL",
        f"k BETWEEN {lit(lo)} AND {lit(hi)}",
        f"k BETWEEN {lit(hi)} AND {lit(lo)}",  # reversed: empty unless lo == hi
        f"k > {lit(lo)} AND k < {lit(lo)}",  # empty
        f"k >= {lit(hi)}",
        f"k < {lit(lo)}",
        f"k BETWEEN {lit(lo)} AND {lit(hi)} AND v > {rng.randrange(400)}",
        f"k IN ({lit(a)}, {lit(b)}) AND v % 2 = 0",
    ]
    texts = [f"SELECT {cols} FROM t WHERE {w}" for w in where]
    texts += [
        f"SELECT {cols} FROM t WHERE k BETWEEN {lit(lo)} AND {lit(hi)} LIMIT {rng.randrange(1, 9)}",
        f"SELECT {cols} FROM t WHERE k IN ({lit(a)}, {lit(b)}) LIMIT {rng.randrange(1, 4)}",
    ]
    return texts


def assert_paths_agree(session, text: str, plain: list) -> None:
    """The job, then the direct read: the same list, answered directly;
    without LIMIT, the plain view's rows."""
    job = job_rows(session, text)
    direct, counted = outcome_delta(session, lambda: session.sql(text).collect_tuples())
    assert counted == {"answered": 1}, text
    assert direct == job, text
    if "LIMIT" in text:
        assert len(direct) == min(len(plain), int(text.rsplit(" ", 1)[1]))
    else:
        assert by_repr(direct) == by_repr(plain), text


@pytest.mark.parametrize("seed", range(50))
def test_direct_rows_equal_the_jobs_list(seed, colliding_hash32):
    rng = random.Random(seed)
    mode = MODES[seed % 2]
    dtype, key_of, lit = KEY_TYPES[sorted(KEY_TYPES)[seed % 3]]
    session = Session(
        config=Config(
            default_parallelism=4, shuffle_partitions=4, scheduler_mode=mode, row_batch_size=4096
        )
    )
    schema = Schema.of(("k", dtype), ("v", LONG))
    keys = [key_of(i) for i in range(rng.randrange(30, 240))]
    rows = [(rng.choice(keys), i) for i in range(rng.randrange(200, 600))]
    absent = key_of(10_000)
    idf = session.create_dataframe(rows, schema).create_index("k").cache_index()
    texts = differential_queries(rng, keys, absent, lit)

    def check(view_rows: list, sample: list[str]) -> None:
        session.create_dataframe(view_rows, schema).create_or_replace_temp_view("p")
        for text in sample:
            plain = session.sql(text.replace("FROM t", "FROM p")).collect_tuples()
            assert_paths_agree(session, text, plain)

    idf.create_or_replace_temp_view("t")
    check(rows, texts)
    appended = [(rng.choice(keys + [absent]), 1000 + i) for i in range(rng.randrange(1, 60))]
    child = idf.append_rows(appended).cache_index()
    child.create_or_replace_temp_view("t")
    check(rows + appended, rng.sample(texts, 5))
    idf.create_or_replace_temp_view("t")  # the parent still reads its own version
    check(rows, rng.sample(texts, 3))


# -- the fallback matrix ---------------------------------------------------------------

SCHEMA = Schema.of(("k", LONG), ("v", LONG), ("pad", STRING))


def make_rows(n: int = 1200, keys: int = 40) -> list[tuple]:
    rng = random.Random(11)
    return [(rng.randrange(keys), i, "x" * rng.randrange(20, 60)) for i in range(n)]


ROWS = make_rows()
EXPECTED = {
    POINT: by_repr(r for r in ROWS if r[0] == 7),
    RANGE: by_repr(r for r in ROWS if 3 <= r[0] <= 9),
}


def table(tmp_path=None, **overrides):
    cfg = dict(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
    if tmp_path is not None:
        cfg["spill_dir"] = str(tmp_path)
    cfg.update(overrides)
    context = EngineContext(
        config=Config(**cfg), topology=private_cluster(num_machines=1, executors_per_machine=4)
    )
    session = Session(context=context)
    idf = session.create_dataframe(ROWS, SCHEMA, "t").create_index("k").cache_index()
    idf.create_or_replace_temp_view("t")
    return session, idf


def read(session, text: str, expected_outcomes: dict) -> None:
    rows, counted = outcome_delta(session, lambda: session.sql(text).collect_tuples())
    assert counted == expected_outcomes, text
    assert by_repr(rows) == EXPECTED[text], text


def holder(session, idf, split: int) -> str:
    (executor_id,) = session.context.block_manager_master.locations((idf.rdd.rdd_id, split))
    return executor_id


class TestFallbacks:
    def test_answered_without_a_job(self):
        session, _ = table()
        registry = session.context.registry
        for text in (POINT, RANGE):
            tasks = registry.counter_total("tasks_completed_total")
            jobs = session.context.job_index
            read(session, text, {"answered": 1})
            assert registry.counter_total("tasks_completed_total") == tasks
            assert session.context.job_index == jobs

    def test_evicted_partition_is_rebuilt_by_the_job(self, tmp_path):
        session, idf = table(tmp_path, executor_memory_bytes=400_000)
        split = idf.rdd.partition_for_key(7)
        runtime = session.context.executors[holder(session, idf, split)]
        runtime.block_manager.pressure_storm(0.0)  # sheds every block it holds
        assert not runtime.block_manager.contains((idf.rdd.rdd_id, split))
        assert recovery_counts(session.context).get("block_evicted", 0) > 0
        read(session, POINT, {"not_resident": 1})
        read(session, POINT, {"answered": 1})  # the job put it back

    def test_dead_executor(self):
        session, idf = table()
        session.context.kill_executor(holder(session, idf, idf.rdd.partition_for_key(7)))
        read(session, POINT, {"not_resident": 1})
        read(session, RANGE, {"answered": 1})  # the point's job rebuilt the one block it held
        read(session, POINT, {"answered": 1})

    def test_dead_executor_under_a_range(self):
        session, idf = table()
        session.context.kill_executor(holder(session, idf, 0))
        read(session, RANGE, {"not_resident": 1})
        read(session, RANGE, {"answered": 1})

    def test_stale_partition(self):
        session, idf = table()
        child = idf.append_rows([(7, 5000, "late")]).cache_index()
        child.create_or_replace_temp_view("t")
        split = child.rdd.partition_for_key(7)
        manager = session.context.executors[holder(session, child, split)].block_manager
        stale = next(
            runtime.block_manager.get((idf.rdd.rdd_id, split))
            for runtime in session.context.executors.values()
            if runtime.block_manager.contains((idf.rdd.rdd_id, split))
        )
        manager.put((child.rdd.rdd_id, split), stale)  # a replayed copy of version 0
        rows, counted = outcome_delta(session, lambda: session.sql(POINT).collect_tuples())
        assert counted == {"stale": 1}
        assert by_repr(rows) == by_repr(EXPECTED[POINT] + [(7, 5000, "late")])
        assert recovery_counts(session.context).get("stale_partition_rebuilt", 0) >= 1
        assert outcome_delta(session, lambda: session.sql(POINT).collect_tuples())[1] == {
            "answered": 1
        }

    @pytest.mark.parametrize(
        "arm",
        [
            pytest.param(lambda f, ctx: f.fail_executor_at_job("m0e3", ctx.job_index + 2), id="job-kill"),
            pytest.param(lambda f, ctx: f.fail_executor_at_task("m0e3", f.task_launches + 3), id="task-kill"),
            pytest.param(lambda f, ctx: f.squeeze_memory_at_task(f.task_launches + 3), id="squeeze"),
            pytest.param(lambda f, ctx: f.delay_task_once(99, 0.0), id="targeted-delay"),
            pytest.param(lambda f, ctx: f.configure(task_failure_prob=0.2), id="task-failures"),
            pytest.param(lambda f, ctx: f.configure(straggler_prob=0.2, straggler_delay=0.0), id="stragglers"),
            pytest.param(lambda f, ctx: f.configure(memory_squeeze_prob=0.2), id="squeezes"),
        ],
    )
    def test_armed_injector(self, arm):
        session, _ = table(task_retry_backoff=0.0)
        faults = session.context.faults
        arm(faults, session.context)
        assert faults.armed
        read(session, POINT, {"armed": 1})
        read(session, RANGE, {"armed": 1})

    def test_path_comes_back_once_the_last_scheduled_kill_fired(self):
        session, _ = table(executor_replacement=False)
        context = session.context
        context.faults.fail_executor_at_job("m0e3", context.job_index + 1)
        context.faults.fail_executor_at_job("m0e2", context.job_index + 2)
        read(session, POINT, {"armed": 1})  # fires the first kill
        assert context.faults.armed
        read(session, RANGE, {"armed": 1})  # fires the last
        assert not context.faults.armed
        assert [victim for _, victim in context.faults.killed] == ["m0e3", "m0e2"]
        read(session, POINT, {"answered": 1})

    def test_explain_analyze(self):
        session, _ = table()
        analysis, counted = outcome_delta(session, lambda: session.execute_analyzed(session.sql_logical(POINT)))
        assert counted == {"analyze": 1}
        assert by_repr(analysis.rows) == EXPECTED[POINT]
        text, counted = outcome_delta(session, lambda: session.sql_explain(RANGE, analyze=True))
        assert counted == {"analyze": 1} and "rows=" in text

    def test_a_read_beside_an_analysis_is_answered_and_not_metered(self, monkeypatch):
        """The meter is the analysing call's own: a point read another thread
        runs on the session meanwhile is answered directly, and the analysis
        counts only its own rows."""
        session, _ = table()
        started, beside = [], []
        instrument = ExecutionMeter.instrument

        def read_beside(meter, plan, rdd, batches=False):
            if not started:  # the analysis is metering: read from another thread
                started.append(plan)
                point = lambda: session.sql(POINT).collect_tuples()  # noqa: E731
                thread = threading.Thread(target=lambda: beside.append(outcome_delta(session, point)))
                thread.start()
                thread.join(timeout=60)
                assert not thread.is_alive()
            return instrument(meter, plan, rdd, batches)

        monkeypatch.setattr(ExecutionMeter, "instrument", read_beside)
        analysis = session.execute_analyzed(session.sql_logical(RANGE))
        [(rows, counted)] = beside
        assert counted == {"answered": 1}
        assert by_repr(rows) == EXPECTED[POINT]
        assert by_repr(analysis.rows) == EXPECTED[RANGE]
        assert analysis.node_stats(analysis.physical).rows == len(analysis.rows)
        point_plan = session.plan_physical(session.sql_logical(POINT))
        assert all(analysis.meter.get(node) is None for node in [point_plan, *point_plan.children()])

    def test_auto_cache(self):
        session, _ = table(auto_cache=True, advisor_score_threshold=1e12)
        for _ in range(3):
            read(session, POINT, {"advisor": 1})
        # A prepared statement's binding has no plan-cache entry: the
        # advisor never judges it, so it reads directly.
        statement = session.prepare("SELECT * FROM t WHERE k = ?")
        rows, counted = outcome_delta(session, lambda: statement.execute([7]))
        assert counted == {"answered": 1}
        assert by_repr(tuple(r) for r in rows) == EXPECTED[POINT]

    def test_a_raising_read_leaves_the_job_to_raise(self):
        session, _ = table()
        text = "SELECT * FROM t WHERE k BETWEEN 'a' AND 'b'"
        with pytest.raises(TaskFailure):
            job_rows(session, text)
        before = outcomes(session)
        with pytest.raises(TaskFailure):
            session.sql(text).collect_tuples()
        assert outcomes(session).get("error", 0) == before.get("error", 0) + 1


def corrupted_point_read(tmp_path, direct: bool):
    """One point read whose partition's spilled batches are all damaged;
    returns the rows and the corruption counters."""
    session, idf = table(tmp_path)
    assert idf.spill_index() > 0
    split = idf.rdd.partition_for_key(7)
    block = session.context.executors[holder(session, idf, split)].block_manager.get(
        (idf.rdd.rdd_id, split)
    )
    damaged = 0
    for batch in block[0].batches:
        region = batch.spill_region()
        if region is not None and not batch.resident:
            path, offset, length = region
            corrupt_file(path, length, "bit_flip", offset=offset)
            damaged += 1
    assert damaged
    if direct:
        rows, counted = outcome_delta(session, lambda: session.sql(POINT).collect_tuples())
        assert counted == {"error": 1}
    else:
        rows = job_rows(session, POINT)
    registry = session.context.registry
    counters = ("corruption_detected_total", "corruption_repaired_total")
    return by_repr(rows), [registry.counter_total(name) for name in counters]


def test_corrupted_spill_is_detected_once_by_the_job(tmp_path):
    direct_rows, direct_counts = corrupted_point_read(tmp_path / "direct", direct=True)
    job_only_rows, job_only_counts = corrupted_point_read(tmp_path / "job", direct=False)
    assert direct_rows == job_only_rows == EXPECTED[POINT]
    assert direct_counts == job_only_counts
    assert direct_counts[0] >= 1


# -- concurrency ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_direct_reads_beside_appends_and_a_memory_storm(mode, tmp_path):
    """Two readers, an appender and a storm thread (more threads than
    cores, a short switch interval): every answer is its version's."""
    session, idf = table(tmp_path, scheduler_mode=mode)
    context = session.context
    versions = [(idf, list(ROWS))]
    start = threading.Barrier(3, timeout=60)
    appended, calm = threading.Event(), threading.Event()
    errors: list[BaseException] = []

    def guarded(work):
        def run() -> None:
            try:
                work()
            except BaseException as exc:  # noqa: BLE001 - reported by the test
                errors.append(exc)
                appended.set()
        return run

    def appender() -> None:
        start.wait()
        rng = random.Random(5)
        for i in range(6):
            parent, parent_rows = versions[-1]
            batch = [(rng.randrange(40), 10_000 + 100 * i + j, "new") for j in range(20)]
            versions.append((parent.append_rows(batch).cache_index(), parent_rows + batch))
        appended.set()

    def storm() -> None:
        rng = random.Random(6)
        runtimes = list(context.executors.values())
        while not calm.wait(0.005):
            rng.choice(runtimes).block_manager.pressure_storm(rng.choice([0.0, 0.5]))

    def reader(seed: int) -> None:
        start.wait()
        rng = random.Random(seed)
        reads = 0
        while not appended.is_set() or reads < 20:
            version, version_rows = rng.choice(versions)
            k = rng.randrange(40)
            frame = version.to_df()
            if rng.random() < 0.5:
                got = frame.filter(col("k") == k).collect_tuples()
                want = [r for r in version_rows if r[0] == k]
            else:
                got = frame.filter((col("k") >= k) & (col("k") <= k + 3)).collect_tuples()
                want = [r for r in version_rows if k <= r[0] <= k + 3]
            assert by_repr(got) == by_repr(want), (version.version, k)
            reads += 1

    workers = [
        threading.Thread(target=guarded(work))
        for work in (appender, lambda: reader(7), lambda: reader(8))
    ]
    stormer = threading.Thread(target=storm)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in (stormer, *workers):
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
    finally:
        calm.set()
        stormer.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not [thread for thread in (stormer, *workers) if thread.is_alive()]
    assert not errors, errors
    assert len(versions) == 7
    counted = outcomes(session)
    assert counted.get("answered", 0) > 0
    assert set(counted) <= {"answered", "not_resident", "stale"}


# -- accounting parity --------------------------------------------------------------------


def test_direct_reads_account_like_jobs():
    """The same reads on twin tables, one session direct and one by jobs:
    cache hits, advisor block accesses and the lineage references of both
    versions move alike — under LIMIT too, where both stop reading at the
    partition that fills it."""
    texts = [
        POINT,
        RANGE,
        "SELECT v FROM t WHERE k IN (1, 2, 30) AND v > 100",
        "SELECT v FROM t WHERE k BETWEEN 0 AND 39 LIMIT 3",
        POINT,
    ]
    readings = []
    for direct in (True, False):
        session, idf = table()
        child = idf.append_rows([(7, 5000, "late")]).cache_index()
        child.create_or_replace_temp_view("t")
        context = session.context
        hits = context.registry.counter_total("cache_hits_total")
        refs = context.lineage_ref_counts()
        for text in texts:
            if direct:
                assert outcome_delta(session, lambda: session.sql(text).collect_tuples())[1] == {
                    "answered": 1
                }
            else:
                job_rows(session, text)
        after = context.lineage_ref_counts()
        advisor = context.advisor
        readings.append(
            (
                context.registry.counter_total("cache_hits_total") - hits,
                advisor._rdds[child.rdd.rdd_id].accesses.read(advisor._t, 1.0),
                [after.get(r.rdd_id, 0) - refs.get(r.rdd_id, 0) for r in (child.rdd, idf.rdd)],
            )
        )
    assert readings[0] == readings[1]
    assert readings[0][0] < 2 + 4 + 3 + 4 + 2  # the LIMIT read stopped early
    assert readings[0][2] == [len(texts), len(texts)]


# -- observability -------------------------------------------------------------------------


def test_a_direct_read_is_traced_query_execute_operator():
    session, _ = table(tracing_enabled=True)
    tracer = session.context.tracer
    for text, operator in ((POINT, "lookup"), (RANGE, "range_scan")):
        session.sql(text).collect_tuples()  # plans; warm
        tracer.reset()
        session.sql(text).collect_tuples()
        spans = tracer.finished_spans()
        assert tracer.integrity_errors() == []
        (execute,) = [s for s in spans if s.name == "execute"]
        assert execute.attrs == {"path": "direct"}
        by_id = {s.span_id: s for s in spans}
        ops = [s for s in spans if s.kind == "operator"]
        assert len(ops) == (1 if text == POINT else 4)  # one a partition read
        assert all(op.name == operator and by_id[op.parent_id] is execute for op in ops)
        assert by_id[execute.parent_id].kind == "query"
        assert not [s for s in spans if s.kind in ("job", "stage", "task")]


class TestArmed:
    def test_each_fault_kind_arms_it(self):
        arms = [
            lambda f: f.fail_executor_at_job("e", 3),
            lambda f: f.fail_when(lambda job: job > 5, "e"),
            lambda f: f.fail_executor_at_task("e", 3),
            lambda f: f.delay_task_once(0, 0.1),
            lambda f: f.squeeze_memory_at_task(2),
            lambda f: f.configure(task_failure_prob=0.1),
            lambda f: f.configure(straggler_prob=0.1),
            lambda f: f.configure(memory_squeeze_prob=0.1),
        ]
        for arm in arms:
            faults = FaultInjector()
            assert not faults.armed
            arm(faults)
            assert faults.armed
            faults.reset()
            assert not faults.armed

    def test_faults_no_task_meets_leave_it_disarmed(self):
        faults = FaultInjector()
        faults.configure(
            fetch_failure_prob=0.5, serve_rejection_prob=0.5, shard_kill_prob=0.5, corrupt_spill_prob=0.5
        )
        faults.kill_shard_at(3, 0)
        assert not faults.armed

    def test_firing_the_last_scheduled_kill_disarms_it(self):
        faults = FaultInjector()
        faults.fail_executor_at_job("a", 2)
        faults.fail_executor_at_job("b", 4)
        assert faults.check(1) == [] and faults.armed
        assert faults.check(2) == ["a"] and faults.armed
        assert faults.check(4) == ["b"] and not faults.armed

    def test_one_shot_task_faults_disarm_when_they_fire(self):
        faults = FaultInjector()
        faults.fail_executor_at_task("a", 2)
        faults.squeeze_memory_at_task(2)
        faults.delay_task_once(5, 0.01)
        assert faults.on_task_start(0, 0, 0, 1).kill_executors == []
        decision = faults.on_task_start(0, 5, 0, 1)
        assert decision.kill_executors == ["a"]
        assert decision.memory_squeeze_factor == 0.5 and decision.delay_seconds == 0.01
        assert not faults.armed
