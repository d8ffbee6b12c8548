"""Session: the SparkSession analogue and the library-extension surface.

A Session owns one :class:`~repro.engine.context.EngineContext` plus the
query pipeline (analyze -> optimize -> re-analyze -> plan -> execute). Two
lists make it extensible without modification, mirroring Spark's
``experimental.extraOptimizations`` / ``extraStrategies`` that the paper's
library uses:

* ``extra_rules`` — logical rewrite rules, run before built-in rules,
* ``extra_strategies`` — physical planning strategies, consulted first.

Join operators count their phase times (hash build, broadcast, probe,
sort, merge) in the context's registry as ``join_phase_seconds_total{phase}``;
Fig. 1's breakdown reads its delta per run.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.config import Config
from repro.engine.context import EngineContext
from repro.obs.analyze import ExecutionMeter, ExplainAnalysis, active_meter
from repro.sql.analysis import Analyzer
from repro.sql.catalog import Catalog
from repro.sql.logical import LogicalPlan, Relation
from repro.sql.optimizer import Optimizer, Rule
from repro.sql.physical import NotResident, PhysicalPlan
from repro.sql.plan_cache import CachedPlan, PlanCache, normalize_sql
from repro.sql.planner import Planner, Strategy
from repro.sql.prepared import PreparedStatement
from repro.sql.types import Schema


class Session:
    def __init__(self, context: EngineContext | None = None, config: Config | None = None) -> None:
        self.context = context or EngineContext(config=config)
        self.catalog = Catalog()
        self.analyzer = Analyzer()
        self.extra_rules: list[Rule] = []
        self.extra_strategies: list[Strategy] = []
        #: Normalized-SQL -> plan cache (DESIGN.md §11): identical query
        #: text reuses the parsed logical plan immediately and, after the
        #: first run, the planned physical plan too. Invalidated by catalog
        #: epoch (any register/drop, incl. publishing a new indexed
        #: version). Capacity 0 disables it.
        self.plan_cache = PlanCache(
            capacity=self.context.config.plan_cache_capacity,
            registry=self.context.registry,
        )

    @property
    def exec_meter(self) -> ExecutionMeter | None:
        """The EXPLAIN ANALYZE meter of the analysis running in the calling
        context (:meth:`execute_analyzed`), or None."""
        return active_meter.get()

    # -- DataFrame construction ------------------------------------------------

    def create_dataframe(
        self,
        rows: Sequence[tuple],
        schema: Schema,
        name: str = "df",
        num_partitions: int | None = None,
    ) -> "DataFrame":
        """Create a DataFrame over driver-side rows."""
        from repro.sql.dataframe import DataFrame

        relation = Relation(name, schema, rows=list(rows), num_partitions=num_partitions)
        return DataFrame(self, relation)

    def table(self, name: str) -> "DataFrame":
        from repro.sql.dataframe import DataFrame

        return DataFrame(self, self.catalog.lookup(name))

    def sql(self, text: str) -> "DataFrame":
        """Parse and plan a SQL query against registered temp views.

        Identical query text (modulo case/whitespace outside strings) hits
        the plan cache: the parsed logical plan is reused as long as the
        catalog has not changed since it was built.
        """
        from repro.sql.dataframe import DataFrame

        return DataFrame(self, self.sql_logical(text))

    def sql_logical(self, text: str) -> LogicalPlan:
        """The (possibly cached) logical plan for a SQL string."""
        from repro.sql.parser import parse_query

        norm = normalize_sql(text)
        epoch = self.catalog.epoch
        entry = self.plan_cache.lookup(norm, epoch)
        hit = entry is not None
        if entry is None:
            entry = self.plan_cache.store(
                CachedPlan(norm, epoch, parse_query(text, self.catalog))
            )
        # Recurrence signal for the cache advisor (DESIGN.md §17): every
        # planned query advances its clock; a plan-cache hit is proven
        # repetition and weighs a little more.
        self.context.advisor.note_query(entry, plan_cache_hit=hit)
        return entry.logical

    def prepare(self, text: str) -> PreparedStatement:
        """PREPARE: parse a statement with ``?`` bind parameters once.

        The returned statement binds values per :meth:`PreparedStatement.execute`
        call; the parse, and the template's physical plan after the first
        execution, are cached per normalized text + catalog epoch.
        """
        from repro.sql.parser import parse_prepared

        norm = "prepare::" + normalize_sql(text)
        epoch = self.catalog.epoch
        entry = self.plan_cache.lookup(norm, epoch)
        if entry is None:
            template, num_params = parse_prepared(text, self.catalog)
            entry = self.plan_cache.store(CachedPlan(norm, epoch, template, num_params))
        return PreparedStatement(self, text, entry)

    # -- the query pipeline (Fig. 2) ---------------------------------------------

    def plan_physical(self, logical: LogicalPlan) -> PhysicalPlan:
        """Analyze -> optimize -> re-analyze -> plan, each under a phase span.

        When ``logical`` came out of the plan cache (``session.sql`` with
        repeated text) and the catalog is unchanged, the previously planned
        physical plan is returned outright — analyze/optimize/plan all
        skipped. Physical plans are re-executable (``execute()`` builds a
        fresh RDD per call), so reuse is safe.
        """
        entry = self.plan_cache.entry_for_logical(logical)
        if (
            entry is not None
            and entry.physical is not None
            and entry.epoch == self.catalog.epoch
        ):
            return entry.physical
        tracer = self.context.tracer
        with tracer.start_span("analyze", kind="phase"):
            analyzed = self.analyzer.analyze(logical)
        with tracer.start_span("optimize", kind="phase"):
            optimized = Optimizer(self.extra_rules).optimize(analyzed)
            reanalyzed = self.analyzer.analyze(optimized)
        with tracer.start_span("plan", kind="phase"):
            physical = Planner(self).plan(reanalyzed)
        if entry is not None and entry.epoch == self.catalog.epoch:
            entry.physical = physical
        return physical

    def execute(self, plan: "LogicalPlan | PhysicalPlan") -> list[tuple]:
        """Plan and collect, with the cache advisor in the loop.

        For plan-cached query text (``session.sql`` with repeated text) the
        advisor may hold an auto-materialized result RDD: collecting it
        serves the rows from the block store (or rebuilds them from lineage
        if they were shed — never a different answer). Otherwise the
        advisor gets an admission decision *before* collection, so a query
        it judges hot populates the cache during this very execution. A
        physical ``plan`` — a prepared statement's bound plan — has no
        cache entry, so per-binding results are never auto-cached. A
        key-bound plan is read without a job when it can be
        (:meth:`_read_direct`).
        """
        advisor = self.context.advisor
        entry = None
        if isinstance(plan, LogicalPlan):
            entry = self.plan_cache.entry_for_logical(plan)
            if entry is not None and entry.epoch != self.catalog.epoch:
                entry = None
        with self.context.tracer.start_span("query", kind="query"):
            if entry is not None:
                cached_rdd = advisor.auto_cached_rdd(entry)
                if cached_rdd is not None:
                    with self.context.tracer.start_span(
                        "execute", kind="phase", cached="advisor"
                    ):
                        rows = cached_rdd.collect()
                    advisor.maybe_shed()
                    return rows
            physical = plan if isinstance(plan, PhysicalPlan) else self.plan_physical(plan)
            rows = self._read_direct(physical, entry)
            if rows is None:
                with self.context.tracer.start_span("execute", kind="phase"):
                    rdd = physical.execute()
                    if entry is not None:
                        rdd = advisor.before_collect(entry, rdd)
                    t0 = time.perf_counter()
                    rows = rdd.collect()
                    elapsed = time.perf_counter() - t0
                if entry is not None:
                    advisor.record_execution(entry, elapsed, rows)
        advisor.maybe_shed()
        return rows

    def _read_direct(
        self, physical: PhysicalPlan, entry: "CachedPlan | None"
    ) -> "list[tuple] | None":
        """A key-bound plan's rows read on the driver from the resident
        partitions (:meth:`PhysicalPlan.direct_rows`), or None: run the job
        (DESIGN.md §13, Key-bound reads are calls). The job stays when it
        is metered, when the fault injector is armed, when the advisor
        judges this query, or when the direct call raises — the job then
        raises, retries or quarantines exactly as it always has. Every
        decision is counted in ``sql_direct_reads_total{outcome}``."""
        rows = physical.direct_rows()
        if rows is None:
            return None
        context = self.context
        if active_meter.get() is not None:
            outcome = "analyze"
        elif context.faults.armed:
            outcome = "armed"
        elif entry is not None and context.advisor.enabled:
            outcome = "advisor"
        else:
            span = context.tracer.start_span("execute", kind="phase", path="direct")
            with context.job_lock, span:
                try:
                    rows = list(rows)
                except NotResident:
                    return None  # counted by the partition read that missed
                except Exception as exc:  # noqa: BLE001 - the job meets it again
                    span.set_attr("error", f"{type(exc).__name__}: {exc}")
                    outcome = "error"
                else:
                    outcome = "answered"
        context.registry.inc("sql_direct_reads_total", outcome=outcome)
        return rows if outcome == "answered" else None

    def cache_advisor_report(self) -> str:
        """Human-readable advisor state: per-fingerprint scores (collected
        under ``Config.auto_cache``), per-block cost-model inputs, recent
        decisions."""
        return self.context.advisor.report(self.plan_cache.entries())

    # -- EXPLAIN ANALYZE -----------------------------------------------------------

    def execute_analyzed(self, logical: LogicalPlan) -> ExplainAnalysis:
        """Run the query with per-operator metering; return the annotated plan.

        The meter is this call's alone (:data:`~repro.obs.analyze.active_meter`):
        queries other threads run on this session meanwhile are not metered
        into it. Meters nest: a query analyzed while another analysis is in
        flight in the same context (e.g. index creation triggered inside
        planning) restores the outer meter on exit.
        """
        with self.context.tracer.start_span("query", kind="query", analyze=True):
            physical = self.plan_physical(logical)
            if physical.direct_rows() is not None:  # metered operators run as a job
                self.context.registry.inc("sql_direct_reads_total", outcome="analyze")
            meter = ExecutionMeter()
            token = active_meter.set(meter)
            try:
                t0 = time.perf_counter()
                with self.context.tracer.start_span("execute", kind="phase"):
                    rows = physical.execute().collect()
                wall = time.perf_counter() - t0
            finally:
                active_meter.reset(token)
        return ExplainAnalysis(physical=physical, rows=rows, meter=meter, wall_seconds=wall)

    def sql_explain(self, text: str, analyze: bool = False) -> str:
        """EXPLAIN [ANALYZE] for a SQL string: the physical plan as text,
        decorated with actual row counts and timings when ``analyze``."""
        logical = self.sql_logical(text)
        if analyze:
            return self.execute_analyzed(logical).text()
        return self.plan_physical(logical).tree_string()
