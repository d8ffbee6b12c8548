"""The four workloads: set-up, warm-up, timed window, oracle checks.

Each workload loads different layers of the program (see README.md):

* ``analytic_scan``  — row decode + SQL operators; no index probe, no serving.
* ``index_probe``    — planning, job launch, cTrie probes, chain walks, ordered
  index; few rows decoded.
* ``serve_mixed``    — snapshot reads beside MVCC appends and publishes.
* ``bounded_memory`` — memory manager, spill, lineage rebuild, cache advisor.

Only the layers' public entry points are used. ``scheduler_mode`` is pinned to
``"sequential"``; ``"processes"`` is never started here.
"""

from __future__ import annotations

import bisect
import gc
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import datagen
import oracle
from measure import Samples, Spans, calibrate, host_slowdown, median, now, percentile

from repro import (
    DOUBLE,
    LONG,
    STRING,
    Config,
    EngineContext,
    QueryServer,
    RouterConfig,
    Schema,
    ServeConfig,
    ServeRejected,
    Session,
    ShardConfig,
    ShardRouter,
)
from repro.cluster.topology import private_cluster

EDGE_SCHEMA = Schema.of(
    ("edge_source", LONG), ("edge_dest", LONG), ("creation_date", LONG), ("weight", DOUBLE)
)
USER_SCHEMA = Schema.of(("uid", LONG), ("name", STRING), ("score", DOUBLE))
PROBE_SCHEMA = Schema.of(("k", LONG))

#: One timed operation: (kind, SQL text, answer check).
Op = tuple[str, str, Callable[[list], bool]]


def base_config(scheduler_mode: str = "sequential", **overrides: Any) -> Config:
    """``"threads"`` is used by one comparator only; ``"processes"`` never."""
    if scheduler_mode not in ("sequential", "threads"):
        raise ValueError(f"the benchmark never runs scheduler_mode={scheduler_mode!r}")
    return Config(scheduler_mode=scheduler_mode, **overrides)


@dataclass
class Window:
    """What one timed window saw."""

    seconds: float = 0.0  # wall time of the window
    busy_seconds: float = 0.0  # time inside timed operations (checks excluded)
    attempted: int = 0
    failed: int = 0
    samples: Samples = field(default_factory=Samples)
    cycles: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)  # one per cycle
    errors: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.busy_seconds if self.busy_seconds else 0.0

    @property
    def slowdown(self) -> float:
        """Host slowdown while this window ran; the window's raw times are
        divided by it where they are reported (``measure.calibrate``)."""
        return host_slowdown(self.calibrations)


@dataclass
class ProbeTarget:
    """What the direct layer probes need from a set-up workload."""

    session: Session
    idf: Any
    view: str
    key_column: str
    keys: list[int]
    scan_text: str
    join_text: str
    key_domain: int


def run_sql(session: Session, text: str) -> list:
    return session.sql(text).collect_tuples()


def run_sql_traced(session: Session, text: str, spans: Spans, advised: bool) -> list:
    """The same query with a span around each layer call. With the cache
    advisor on, execution must go through ``Session.execute`` (the advisor's
    hook), so planning and collection share one engine span."""
    with spans.span("sql.lookup_logical"):
        logical = session.sql_logical(text)
    if advised:
        with spans.span("engine.execute"):
            return session.execute(logical)
    with spans.span("sql.plan_physical"):
        physical = session.plan_physical(logical)
    with spans.span("sql.build_rdd"):
        rdd = physical.execute()
    with spans.span("engine.collect"):
        return rdd.collect()


def register_probe_sets(session: Session, probe_sets: "list[list[int]]") -> None:
    for i, keys in enumerate(probe_sets):
        session.create_dataframe(
            [(k,) for k in keys], PROBE_SCHEMA, name=f"probe{i}"
        ).create_or_replace_temp_view(f"probe{i}")


def join_text(i: int, table: str, key: str) -> str:
    return f"SELECT * FROM probe{i} JOIN {table} ON probe{i}.k = {table}.{key}"


def edge_join_ops(table: oracle.TableOracle, probe_sets: "list[list[int]]") -> "list[Op]":
    """One checked join of ``edges`` per registered probe side."""
    return [
        ("join", join_text(i, "edges", "edge_source"), _rows_check(table.join(keys)))
        for i, keys in enumerate(probe_sets)
    ]


def _rows_check(expected_sorted: "list[tuple]") -> Callable[[list], bool]:
    return lambda rows: oracle.same_rows(rows, expected_sorted)


class SqlWorkload:
    """A closed loop of one client cycling a fixed mix of SQL queries."""

    name = ""
    advised = False  # cache advisor in the loop (bounded_memory)
    #: Per-layer metrics of BENCHMARK.json that this workload alone measures;
    #: the other workloads report them as 0.
    only_here: tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: datagen.Sizes, scratch: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.session: "Session | None" = None
        self.build_seconds = 0.0

    # -- subclass surface ----------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> "list[Op]":
        raise NotImplementedError

    def tables(self) -> "list[Any]":
        """The workload's indexed tables (for resident bytes per row)."""
        raise NotImplementedError

    def probe_target(self) -> ProbeTarget:
        raise NotImplementedError

    def specific_metrics(self, window: Window) -> dict[str, float]:
        raise NotImplementedError

    # -- shared ----------------------------------------------------------------------

    def warm(self) -> None:
        """One full cycle: fills the plan cache and lazy state (fixed work,
        so its cost shows in ``setup_s``)."""
        self.checked_cycle_ms(1)

    def teardown(self) -> None:
        self.session = None
        gc.collect()

    def run_window(self, seconds: float, spans: "Spans | None" = None) -> Window:
        window = Window()
        t_start = now()
        t_end = t_start + seconds
        index = 0
        while now() < t_end:
            self.run_cycles(window, cycles=1, first=index, spans=spans)
            index += 1
        window.seconds = now() - t_start
        return window

    def run_cycles(
        self, window: Window, cycles: int, first: int = 0, spans: "Spans | None" = None
    ) -> None:
        session = self.session
        for index in range(first, first + cycles):
            window.calibrations.append(calibrate())
            cycle_seconds = 0.0
            for kind, text, check in self.cycle(index):
                rows = None
                t0 = now()
                try:
                    if spans is None:
                        rows = run_sql(session, text)
                    else:
                        with spans.op(kind):
                            rows = run_sql_traced(session, text, spans, self.advised)
                except Exception as exc:  # an op that raises is a failed op
                    window.fail(f"{type(exc).__name__}: {exc}: {text}")
                elapsed = now() - t0
                if rows is not None and not check(rows):
                    window.fail(f"wrong answer: {kind}: {text}")
                window.attempted += 1
                window.samples.add(kind, elapsed)
                cycle_seconds += elapsed
            window.cycles.append(cycle_seconds)
            window.busy_seconds += cycle_seconds

    def checked_cycle_ms(self, cycles: int, skip: int = 0) -> float:
        """Median cycle time at reference host speed over ``cycles`` cycles
        (the first ``skip`` are warm-up), for the comparators; a wrong answer
        is an error."""
        window = Window()
        self.run_cycles(window, cycles=cycles)
        if window.failed:
            raise AssertionError(f"{self.name}: {window.errors}")
        return median(window.cycles[skip:]) * 1e3 / window.slowdown

    def end_to_end(self, window: Window) -> dict[str, float]:
        return {
            "ops_per_s": window.ops_per_s,
            "cycle_p50_ms": median(window.cycles) * 1e3,
        }

    def _index(self, rows: "list[tuple]", schema: Schema, name: str, key: str, partitions: int):
        t0 = now()
        idf = (
            self.session.create_dataframe(rows, schema, name=name)
            .create_index(key, num_partitions=partitions)
            .cache_index()
        )
        idf.create_or_replace_temp_view(name)
        self.build_seconds += now() - t0
        return idf


class AnalyticScan(SqlWorkload):
    name = "analytic_scan"
    only_here = (
        "scan_rows_per_s",
        "scan_cycle_p50_ms",
        "sql.columnar_cycle_ms",
        "sql.indexed_vs_columnar_ratio",
        "engine.threads_vs_sequential",
        "obs.tracer_on_overhead_pct",
    )

    def __init__(self, seed: int, sizes: datagen.Sizes, scratch: str) -> None:
        super().__init__(seed, sizes, scratch)
        self.edges = datagen.make_edges(seed, sizes.edges_rows, sizes.edges_keys)
        self.users = datagen.make_users(seed, sizes.users_rows)
        rng = random.Random(f"scan-thresholds:{seed}")
        weight_x = round(0.9 + rng.random() * 1e-3, 6)
        score_x = round(90.0 + rng.random() * 1e-1, 4)
        e = oracle.TableOracle(self.edges.rows)
        u = oracle.TableOracle(self.users)
        expect_project = e.project((0, 1))
        expect_filter = e.where_gt(3, weight_x)
        expect_avg = e.avg(3)
        expect_groups = e.count_by_mod(1, 64)
        expect_users_project = u.project((0, 1))
        expect_users_filter = u.where_gt(2, score_x)
        self.ops: list[Op] = [
            (
                "edges_project",
                "SELECT edge_source, edge_dest FROM edges",
                lambda rows: oracle.same_summary(rows, expect_project),
            ),
            (
                "edges_filter",
                f"SELECT * FROM edges WHERE weight > {weight_x}",
                lambda rows: oracle.same_summary(rows, expect_filter),
            ),
            (
                "edges_avg",
                "SELECT avg(weight) FROM edges",
                lambda rows: len(rows) == 1 and oracle.close(rows[0][0], expect_avg),
            ),
            (
                "edges_groupby",
                "SELECT edge_dest % 64 AS bucket, count(*) AS n FROM edges GROUP BY edge_dest % 64",
                lambda rows: len(rows) == len(expect_groups) and dict(rows) == expect_groups,
            ),
            (
                "users_project",
                "SELECT uid, name FROM users",
                lambda rows: oracle.same_summary(rows, expect_users_project),
            ),
            (
                "users_filter",
                f"SELECT * FROM users WHERE score > {score_x}",
                lambda rows: oracle.same_summary(rows, expect_users_filter),
            ),
        ]
        #: Rows each query reads (scan_rows_per_s counts table rows scanned).
        self.rows_per_cycle = 4 * sizes.edges_rows + 2 * sizes.users_rows

    def build(self, scheduler_mode: str = "sequential") -> None:
        s = self.sizes
        self.build_seconds = 0.0
        self.session = Session(config=base_config(scheduler_mode))
        self.edges_idf = self._index(
            self.edges.rows, EDGE_SCHEMA, "edges", "edge_source", s.edges_partitions
        )
        self.users_idf = self._index(self.users, USER_SCHEMA, "users", "uid", s.users_partitions)
        register_probe_sets(self.session, [self.edges.keys_by_rank[:: s.join_probe_sets]])

    def cycle(self, index: int) -> "list[Op]":
        return self.ops

    def tables(self) -> "list[Any]":
        return [self.edges_idf, self.users_idf]

    def probe_target(self) -> ProbeTarget:
        return ProbeTarget(
            self.session,
            self.edges_idf,
            "edges",
            "edge_source",
            datagen.uniform_keys(self.seed, "probe-keys", self.sizes.edges_keys, 200),
            self.ops[0][1],
            join_text(0, "edges", "edge_source"),
            self.sizes.edges_keys,
        )

    def specific_metrics(self, window: Window) -> dict[str, float]:
        cycles = len(window.cycles)
        return {
            "scan_rows_per_s": self.rows_per_cycle * cycles / window.busy_seconds,
            "scan_cycle_p50_ms": median(window.cycles) * 1e3,
        }

    def threads_cycle_ms(self, cycles: int) -> float:
        """The same cycle on a second session under ``scheduler_mode="threads"``."""
        sequential = (self.session, self.edges_idf, self.users_idf, self.build_seconds)
        try:
            self.build(scheduler_mode="threads")
            return self.checked_cycle_ms(cycles + 1, skip=1)
        finally:
            self.session, self.edges_idf, self.users_idf, self.build_seconds = sequential

    def columnar_cycle_ms(self, cycles: int) -> float:
        """The same six queries over ``df.cache()`` — the paper's columnar
        comparator — answers checked by the same oracles."""
        for name, rows, schema in (
            ("edges_col", self.edges.rows, EDGE_SCHEMA),
            ("users_col", self.users, USER_SCHEMA),
        ):
            self.session.create_dataframe(rows, schema, name=name).cache().create_or_replace_temp_view(name)
        indexed_ops = self.ops
        self.ops = [
            (
                kind,
                text.replace("FROM edges", "FROM edges_col").replace("FROM users", "FROM users_col"),
                check,
            )
            for kind, text, check in indexed_ops
        ]
        try:
            return self.checked_cycle_ms(cycles + 1, skip=1)
        finally:
            self.ops = indexed_ops


class IndexProbe(SqlWorkload):
    name = "index_probe"
    only_here = (
        "probe_cycles_per_s",
        "probe_join_p50_ms",
        "point_lookup_p50_us",
        "range_query_p50_ms",
    )

    def __init__(self, seed: int, sizes: datagen.Sizes, scratch: str) -> None:
        super().__init__(seed, sizes, scratch)
        s = sizes
        self.edges = datagen.make_edges(seed, s.edges_rows, s.edges_keys)
        table = oracle.TableOracle(self.edges.rows)
        self.probe_sets = datagen.join_probe_sets(self.edges, s.join_probe_sets)
        self.joins = edge_join_ops(table, self.probe_sets)
        self.point_keys = datagen.uniform_keys(seed, "points", s.edges_keys, s.point_pool)
        self.points: list[Op] = [
            ("point", f"SELECT * FROM edges WHERE edge_source = {k}", _rows_check(table.point(k)))
            for k in self.point_keys
        ]
        width = max(1, s.edges_keys // 200)  # 0.5 % of the key domain
        self.ranges: list[Op] = [
            (
                "range",
                f"SELECT * FROM edges WHERE edge_source BETWEEN {lo} AND {hi}",
                _rows_check(table.range(lo, hi)),
            )
            for lo, hi in datagen.key_ranges(seed, "ranges", s.edges_keys, width, s.range_pool)
        ]

    def build(self) -> None:
        s = self.sizes
        self.build_seconds = 0.0
        self.session = Session(config=base_config())
        self.edges_idf = self._index(
            self.edges.rows, EDGE_SCHEMA, "edges", "edge_source", s.edges_partitions
        )
        register_probe_sets(self.session, self.probe_sets)

    def warm(self) -> None:
        """Every distinct text once (the pools are larger than one cycle)."""
        self.checked_cycle_ms(
            max(
                len(self.joins),
                -(-len(self.points) // self.sizes.points_per_cycle),
                -(-len(self.ranges) // self.sizes.ranges_per_cycle),
            )
        )

    def cycle(self, index: int) -> "list[Op]":
        s = self.sizes
        ops = [self.joins[index % len(self.joins)]]
        p0 = index * s.points_per_cycle
        ops += [self.points[(p0 + i) % len(self.points)] for i in range(s.points_per_cycle)]
        r0 = index * s.ranges_per_cycle
        ops += [self.ranges[(r0 + i) % len(self.ranges)] for i in range(s.ranges_per_cycle)]
        return ops

    def tables(self) -> "list[Any]":
        return [self.edges_idf]

    def probe_target(self) -> ProbeTarget:
        return ProbeTarget(
            self.session,
            self.edges_idf,
            "edges",
            "edge_source",
            self.point_keys,
            "SELECT edge_source, edge_dest FROM edges",
            self.joins[0][1],
            self.sizes.edges_keys,
        )

    def specific_metrics(self, window: Window) -> dict[str, float]:
        samples = window.samples
        return {
            "probe_cycles_per_s": len(window.cycles) / window.busy_seconds,
            "probe_join_p50_ms": samples.p("join", 50, 1e3),
            "point_lookup_p50_us": samples.p("point", 50, 1e6),
            "range_query_p50_ms": samples.p("range", 50, 1e3),
        }


class BoundedMemory(SqlWorkload):
    name = "bounded_memory"
    advised = True
    only_here = ("bounded_cycle_p50_ms", "engine.bounded_slowdown")

    def __init__(self, seed: int, sizes: datagen.Sizes, scratch: str) -> None:
        super().__init__(seed, sizes, scratch)
        s = sizes
        self.edges = datagen.make_edges(seed, s.bounded_rows, s.bounded_keys)
        table = oracle.TableOracle(self.edges.rows)
        self.probe_sets = datagen.join_probe_sets(self.edges, 20)  # 5 % of the keys each
        self.joins = edge_join_ops(table, self.probe_sets)
        weight_x = round(0.9 + random.Random(f"bounded:{seed}").random() * 1e-3, 6)
        expect = table.where_gt(3, weight_x)
        self.scan: Op = (
            "filtered_scan",
            f"SELECT * FROM edges WHERE weight > {weight_x}",
            lambda rows: oracle.same_summary(rows, expect),
        )

    def build(self, budget: "int | None" = None) -> None:
        """``budget`` overrides the per-executor byte budget (0 = unbounded)."""
        if budget is None:
            budget = self.sizes.bounded_budget_bytes
        config = base_config(
            executor_memory_bytes=budget,
            spill_dir=self.scratch,
            eviction_policy="cost",
            auto_cache=True,
            row_batch_size=8192,
            task_retry_backoff=0.001,
            task_retry_backoff_max=0.01,
        )
        context = EngineContext(
            config=config, topology=private_cluster(num_machines=1, executors_per_machine=2)
        )
        self.build_seconds = 0.0
        self.session = Session(context=context)
        self.edges_idf = self._index(
            self.edges.rows, EDGE_SCHEMA, "edges", "edge_source", self.sizes.edges_partitions
        )
        register_probe_sets(self.session, self.probe_sets)

    def cycle(self, index: int) -> "list[Op]":
        return [self.joins[index % len(self.joins)], self.scan]

    def tables(self) -> "list[Any]":
        return [self.edges_idf]

    def probe_target(self) -> ProbeTarget:
        return ProbeTarget(
            self.session,
            self.edges_idf,
            "edges",
            "edge_source",
            datagen.uniform_keys(self.seed, "probe-keys", self.sizes.bounded_keys, 200),
            "SELECT edge_source, edge_dest FROM edges",
            self.joins[0][1],
            self.sizes.bounded_keys,
        )

    def specific_metrics(self, window: Window) -> dict[str, float]:
        return {"bounded_cycle_p50_ms": median(window.cycles) * 1e3}

    def unbounded_cycle_ms(self, cycles: int) -> float:
        """The same cycle with no memory budget (same advisor settings)."""
        bounded = (self.session, self.edges_idf, self.build_seconds)
        try:
            self.build(budget=0)
            return self.checked_cycle_ms(cycles + 2, skip=2)
        finally:
            self.session, self.edges_idf, self.build_seconds = bounded


# -- serve_mixed ----------------------------------------------------------------------

POINT_SQL = "SELECT * FROM users WHERE uid = ?"
RANGE_SQL = "SELECT * FROM users WHERE uid BETWEEN ? AND ?"
COUNT_SQL = "SELECT count(*) FROM users WHERE uid = ?"
#: Reader mix: 90 % point, 8 % range, 2 % general path.
POINT_SHARE, RANGE_SHARE = 0.90, 0.08
#: Share of point/range reads aimed at the newest appended batches (so that
#: answers depend on the version served, and staleness is observable).
FRESH_SHARE = 0.05
REQUESTS_PER_CYCLE = 100
MAX_REJECT_RETRIES = 50


class ServeMixed:
    """Reads beside writes on ``users``: a closed-loop reader (this thread)
    and an open-loop writer thread, first against ``QueryServer`` then against
    ``ShardRouter`` with the same seeded request stream."""

    name = "serve_mixed"
    TARGETS = ("qs", "router")
    only_here = (
        "serve_qps",
        "serve_point_p50_us",
        "serve_range_p50_ms",
        "router_point_p50_us",
        "ingest_publish_p50_ms",
        "serve.queue_wait_us_p50",
        "serve.service_us_p50",
        "serve.fastpath_share",
        "serve.rejected_share",
        "serve.general_p50_ms",
        "serve.publish_p99_ms",
        "serve.ingest_lateness_p50_ms",
        "serve.point_p99_us",
        "serve.range_p99_ms",
        "serve.reader_stall_max_ms",
        "serve.router_range_p50_ms",
        "serve.router_point_p99_us",
        "serve.router_hot_cache_hit_ratio",
        "serve.router_failovers",
    )

    def __init__(self, seed: int, sizes: datagen.Sizes, scratch: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.users = datagen.make_users(seed, sizes.users_rows)
        self.oracle = oracle.VersionedUsers(self.users, sizes.append_rows, datagen.appended_user)
        self.zipf = datagen.Zipf(seed, sizes.users_rows)
        self.session: "Session | None" = None
        self.servers: dict[str, Any] = {}
        self.published = {"qs": 0, "router": 0}
        self.head: Any = None
        self.build_seconds = 0.0

    def build(self) -> None:
        s = self.sizes
        t0 = now()
        self.session = Session(config=base_config())
        idf = self.session.create_dataframe(self.users, USER_SCHEMA, name="users").create_index(
            "uid", num_partitions=s.users_partitions
        )
        self.head = idf
        self.published = {"qs": 0, "router": 0}
        self.servers = {}
        self.servers["qs"] = QueryServer(self.session, ServeConfig(num_workers=2))
        self.servers["qs"].publish("users", idf)  # the pin job builds the index
        self.build_seconds = now() - t0
        self.servers["router"] = ShardRouter(
            self.session,
            2,
            RouterConfig(replication_factor=2, shard=ShardConfig(service_time=0.0)),
        )
        self.servers["router"].publish("users", idf)
        register_probe_sets(self.session, [list(range(0, s.users_rows, 50))])

    def warm(self) -> None:
        """Fixed work on both targets: a block of reads and one publish."""
        window = self._new_window()
        for target in self.TARGETS:
            self._catch_up(target)
            self._publish_next(target)
            rng = random.Random(f"warm:{self.seed}")
            for _ in range(2 * REQUESTS_PER_CYCLE):
                self._read(target, rng, window, None, window.extra["reads"][target])
        if window.failed:
            raise AssertionError(f"warm-up failed: {window.errors}")

    def teardown(self) -> None:
        servers, self.servers = self.servers, {}
        try:
            if "qs" in servers:
                servers["qs"].shutdown(drain=True)
        finally:
            if "router" in servers:
                servers["router"].shutdown()
        self.session = None
        self.head = None
        gc.collect()

    def tables(self) -> "list[Any]":
        return [self.head]

    def probe_target(self) -> ProbeTarget:
        rng = random.Random(f"probe-keys:{self.seed}")
        return ProbeTarget(
            self.session,
            self.head,
            "users",
            "uid",
            [self.zipf.draw(rng) for _ in range(200)],
            "SELECT uid, name FROM users",
            join_text(0, "users", "uid"),
            self.oracle.base,
        )

    # -- the window ----------------------------------------------------------------

    def run_window(self, seconds: float, spans: "Spans | None" = None) -> Window:
        window = self._new_window()
        t_start = now()
        for target in self.TARGETS:
            self._catch_up(target)
            self._run_phase(target, seconds / len(self.TARGETS), window, spans)
        window.seconds = now() - t_start
        return window

    def _new_window(self) -> Window:
        window = Window()
        window.extra = {
            "publish_intervals": [],
            "lateness": [],
            "reads": {t: ([], []) for t in self.TARGETS},  # (start, seconds) per read
            "queue_wait": [],
            "service": [],
            "writer_spans": [],
            "rejected": 0,
        }
        return window

    def _run_phase(self, target: str, seconds: float, window: Window, spans: "Spans | None") -> None:
        t_end = now() + seconds
        writer_window = Window()
        writer_spans = Spans(tid=1) if spans is not None else None
        writer = threading.Thread(
            target=self._writer_loop,
            args=(target, t_end, writer_window, window.extra, writer_spans),
            name="e2e-writer",
        )
        rng = random.Random(f"reader:{self.seed}")  # same stream in both phases
        reads = window.extra["reads"][target]
        writer.start()
        try:
            while now() < t_end:
                window.calibrations.append(calibrate())
                cycle_seconds = 0.0
                for _ in range(REQUESTS_PER_CYCLE):
                    cycle_seconds += self._read(target, rng, window, spans, reads)
                window.cycles.append(cycle_seconds)
                window.busy_seconds += cycle_seconds
        finally:
            writer.join(timeout=60.0)
        if writer.is_alive():
            raise RuntimeError("writer thread did not stop")
        window.attempted += writer_window.attempted
        window.failed += writer_window.failed
        window.errors += writer_window.errors
        for kind, values in writer_window.samples.by_kind.items():
            window.samples.by_kind.setdefault(kind, []).extend(values)
        if writer_spans is not None:
            window.extra["writer_spans"].append(writer_spans)

    def _read(
        self, target: str, rng: random.Random, window: Window, spans: "Spans | None", reads: Any
    ) -> float:
        """One reader request: draw, send, time, check. Returns its seconds."""
        server = self.servers[target]
        o = self.oracle
        floor = self.published[target]  # last publish completed before sending
        draw = rng.random()
        fresh = rng.random() < FRESH_SHARE
        fresh_version = max(1, floor + rng.randrange(-1, 2))
        if draw < POINT_SHARE:
            kind = "point"
            uid = self.zipf.draw(rng)
            if fresh:
                uid = o.base + (fresh_version - 1) * o.batch_rows + rng.randrange(o.batch_rows)
            text, params = POINT_SQL, [uid]
        elif draw < POINT_SHARE + RANGE_SHARE:
            kind = "range"
            lo = rng.randrange(o.base - self.sizes.serve_range_keys)
            if fresh and o.batch_rows >= self.sizes.serve_range_keys:
                lo = o.base + (fresh_version - 1) * o.batch_rows
            text, params = RANGE_SQL, [lo, lo + self.sizes.serve_range_keys - 1]
        else:
            kind = "general"
            text, params = COUNT_SQL, [self.zipf.draw(rng)]
        t0 = now()
        try:
            if spans is None:
                result = self._query(server, text, params, window)
            else:
                with spans.op(f"{target}_{kind}"):
                    result = self._query(server, text, params, window)
                    t1 = now()
                    queued = getattr(result, "queued_seconds", 0.0)
                    spans.add("serve.queue", t0, t0 + queued)
                    spans.add("serve.query", t0 + queued, t1)
            elapsed = now() - t0
        except Exception as exc:
            elapsed = now() - t0
            window.fail(f"{type(exc).__name__}: {exc}: {text} {params}")
            result = None
        window.attempted += 1
        window.samples.add(f"{target}_{kind}", elapsed)
        reads[0].append(t0)
        reads[1].append(elapsed)
        if result is None:
            return elapsed
        if target == "qs" and kind == "point":
            window.extra["queue_wait"].append(result.queued_seconds)
            window.extra["service"].append(result.total_seconds - result.queued_seconds)
        version = result.snapshot_version
        if kind == "general":
            ok = result.rows == [(1,)]
        elif version is None or version < floor:
            ok = False  # served a version older than one already published
        elif kind == "point":
            ok = result.rows == o.point(params[0], version)
        else:
            ok = sorted(result.rows) == o.range(params[0], params[1], version)
        if not ok:
            window.fail(
                f"wrong answer: {target} {kind} {params} at version {version} (floor {floor})"
            )
        return elapsed

    def _query(self, server: Any, text: str, params: list, window: Window) -> Any:
        """Send one query, resending on a retryable rejection."""
        for _ in range(MAX_REJECT_RETRIES):
            try:
                return server.query(text, params=params)
            except ServeRejected as exc:
                if not exc.retryable:
                    raise
                window.extra["rejected"] += 1
                time.sleep(0.001)
        raise RuntimeError(f"rejected {MAX_REJECT_RETRIES} times: {text}")

    # -- the writer -----------------------------------------------------------------

    def _writer_loop(
        self, target: str, t_end: float, window: Window, extra: dict, spans: "Spans | None"
    ) -> None:
        """Open loop: one append+publish is *due* every ``append_period_s``;
        each is timed from its due time, and lateness is reported."""
        period = self.sizes.append_period_s
        due = now() + period
        while due < t_end:
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            started = now()
            extra["lateness"].append(max(0.0, started - due))
            try:
                if spans is None:
                    self._publish_next(target)
                else:
                    with spans.op(f"{target}_publish"):
                        self._publish_next(target, spans)
            except Exception as exc:
                window.fail(f"{type(exc).__name__}: {exc}: publish to {target}")
            finished = now()
            window.attempted += 1
            window.samples.add(f"{target}_publish", finished - due)
            extra["publish_intervals"].append((started, finished))
            due += period

    def _publish_next(self, target: str, spans: "Spans | None" = None) -> None:
        version = self.head.version + 1
        rows = self.oracle.batch(version)
        if spans is None:
            child = self.head.append_rows(rows)
            self.servers[target].publish("users", child)
        else:
            # The append is lazy: materializing the child version is where the
            # indexed layer does the work, so the traced run forces it there
            # and the publish span is left with the pin audit and the swap.
            with spans.span("indexed.append"):
                child = self.head.append_rows(rows)
                child.materialize_partitions()
            with spans.span("serve.publish"):
                self.servers[target].publish("users", child)
        self.head = child
        self.published[target] = child.version

    def _catch_up(self, target: str) -> None:
        if self.published[target] < self.head.version:
            self.servers[target].publish("users", self.head)
            self.published[target] = self.head.version

    # -- metrics --------------------------------------------------------------------

    def end_to_end(self, window: Window) -> dict[str, float]:
        """ops/s over the reads of both phases; the cycle is the writer's: one
        append+publish from its due time, median over the publishes of both
        phases together (one server's half of the window holds too few for a
        median that repeats: 11-15 % spread over ten runs, against 4 % pooled)."""
        reads = sum(len(window.extra["reads"][t][0]) for t in self.TARGETS)
        publishes = [s for t in self.TARGETS for s in window.samples.get(f"{t}_publish")]
        return {
            "ops_per_s": reads / window.busy_seconds,
            "cycle_p50_ms": median(publishes) * 1e3,
        }

    def specific_metrics(self, window: Window) -> dict[str, float]:
        samples = window.samples
        generic = self.end_to_end(window)
        return {
            "serve_qps": generic["ops_per_s"],
            "serve_point_p50_us": samples.p("qs_point", 50, 1e6),
            "serve_range_p50_ms": samples.p("qs_range", 50, 1e3),
            "router_point_p50_us": samples.p("router_point", 50, 1e6),
            "ingest_publish_p50_ms": generic["cycle_p50_ms"],
        }

    def serve_layer_metrics(self, window: Window) -> dict[str, float]:
        samples, extra = window.samples, window.extra
        registry = self.session.context.registry
        qs_paths = registry.counter_by_label("serve_queries_total", "path")
        qs_total = sum(qs_paths.values())
        router_paths = registry.counter_by_label("serve_router_queries_total", "path")
        reads = sum(len(extra["reads"][t][0]) for t in self.TARGETS)
        publishes = samples.get("qs_publish") + samples.get("router_publish")
        return {
            "serve.queue_wait_us_p50": median(extra["queue_wait"]) * 1e6,
            "serve.service_us_p50": median(extra["service"]) * 1e6,
            "serve.fastpath_share": (
                (qs_paths.get("fastpath", 0.0) + qs_paths.get("range", 0.0)) / qs_total
                if qs_total
                else 0.0
            ),
            "serve.rejected_share": extra["rejected"] / reads if reads else 0.0,
            "serve.general_p50_ms": samples.p("qs_general", 50, 1e3),
            "serve.publish_p99_ms": percentile(publishes, 99.0) * 1e3,
            "serve.ingest_lateness_p50_ms": median(extra["lateness"]) * 1e3,
            "serve.point_p99_us": samples.p("qs_point", 99, 1e6),
            "serve.range_p99_ms": samples.p("qs_range", 99, 1e3),
            "serve.reader_stall_max_ms": self._reader_stall_max(extra) * 1e3,
            "serve.router_range_p50_ms": samples.p("router_range", 50, 1e3),
            "serve.router_point_p99_us": samples.p("router_point", 99, 1e6),
            "serve.router_hot_cache_hit_ratio": (
                registry.counter_total("serve_hot_cache_hits_total") / router_paths["point"]
                if router_paths.get("point")
                else 0.0
            ),
            "serve.router_failovers": registry.counter_total("serve_shard_failovers_total"),
        }

    def _reader_stall_max(self, extra: dict) -> float:
        """The longest read that overlapped a publish."""
        worst = 0.0
        for starts, seconds in extra["reads"].values():
            for p_start, p_end in extra["publish_intervals"]:
                # reads are sequential: the first candidate is the one in
                # flight when the publish began
                i = max(0, bisect.bisect_left(starts, p_start) - 1)
                while i < len(starts) and starts[i] < p_end:
                    if starts[i] + seconds[i] > p_start:
                        worst = max(worst, seconds[i])
                    i += 1
        return worst


WORKLOADS = {
    cls.name: cls for cls in (AnalyticScan, IndexProbe, ServeMixed, BoundedMemory)
}
