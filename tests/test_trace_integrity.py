"""Span-tracer integrity under both scheduler modes and chaos.

What "the trace is correct" means mechanically (DESIGN.md §9):

* no unclosed spans survive a run — even when tasks retry or stages abort;
* every task span nests under exactly one stage span, stages under jobs,
  operators under tasks (``SPAN_NESTING``);
* the span tree's *shape* is deterministic: the same seeded workload
  produces the same (kind, name, parent-kind) multiset in ``sequential``
  and ``threads`` mode, run after run;
* the disabled tracer records nothing and returns the shared no-op span;
* the Chrome-trace export validates against the event-format subset we
  promise.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.obs.tracer import NOOP_SPAN, Tracer, validate_chrome_trace
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema
from tests.conftest import MODES

CHAOS_SEEDS = (11, 23, 47)

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))
DIM_SCHEMA = Schema.of(("node", LONG), ("label", STRING))


def make_context(mode: str, **overrides) -> EngineContext:
    cfg = dict(
        default_parallelism=8,
        shuffle_partitions=8,
        scheduler_mode=mode,
        tracing_enabled=True,
        task_retry_backoff=0.001,
        task_retry_backoff_max=0.01,
    )
    cfg.update(overrides)
    return EngineContext(config=Config(**cfg), topology=private_cluster(num_machines=2))


def run_shuffle_job(context: EngineContext) -> list:
    rdd = context.parallelize(list(range(200)), 8).map(lambda x: (x % 10, x))
    return rdd.reduce_by_key(lambda a, b: a + b).collect()


def soup(seed: int) -> dict:
    """Chaos knobs of the soup: failures, stragglers and flaky fetches."""
    return dict(
        seed=seed,
        task_failure_prob=0.15,
        straggler_prob=0.1,
        straggler_delay=0.002,
        fetch_failure_prob=0.05,
    )


# ---------------------------------------------------------------------------
# Basic structure
# ---------------------------------------------------------------------------


class TestSpanStructure:
    @pytest.mark.parametrize("mode", MODES)
    def test_clean_run_has_no_integrity_errors(self, mode):
        context = make_context(mode)
        run_shuffle_job(context)
        assert context.tracer.integrity_errors() == []
        assert context.tracer.active_spans() == []

    @pytest.mark.parametrize("mode", MODES)
    def test_every_task_nests_under_exactly_one_stage(self, mode):
        context = make_context(mode)
        run_shuffle_job(context)
        spans = context.tracer.finished_spans()
        stages = {s.span_id for s in spans if s.kind == "stage"}
        tasks = [s for s in spans if s.kind == "task"]
        assert tasks, "expected task spans"
        for task in tasks:
            assert task.parent_id in stages
        jobs = {s.span_id for s in spans if s.kind == "job"}
        for stage in (s for s in spans if s.kind == "stage"):
            assert stage.parent_id in jobs

    @pytest.mark.parametrize("mode", MODES)
    def test_shape_is_deterministic_across_modes_and_runs(self, mode):
        shapes = []
        for _ in range(2):
            context = make_context(mode)
            run_shuffle_job(context)
            shapes.append(context.tracer.span_tree_shape())
        assert shapes[0] == shapes[1]
        # ...and identical to sequential mode's shape.
        reference = make_context("sequential")
        run_shuffle_job(reference)
        assert shapes[0] == reference.tracer.span_tree_shape()

    def test_disabled_tracer_records_nothing(self):
        context = make_context("threads", tracing_enabled=False)
        run_shuffle_job(context)
        assert context.tracer.finished_spans() == []
        assert context.tracer.start_span("x", kind="task") is NOOP_SPAN

    def test_task_span_attrs_carry_identity(self):
        context = make_context("sequential")
        run_shuffle_job(context)
        task = context.tracer.finished_spans(kind="task")[0]
        assert {"stage_id", "partition", "attempt", "executor"} <= set(task.attrs)


# ---------------------------------------------------------------------------
# SQL query nesting: query -> phase -> job -> stage -> task -> operator
# ---------------------------------------------------------------------------


class TestQueryNesting:
    @pytest.mark.parametrize("mode", MODES)
    def test_full_hierarchy_for_indexed_query(self, mode):
        session = Session(
            config=Config(
                default_parallelism=4,
                shuffle_partitions=4,
                scheduler_mode=mode,
                tracing_enabled=True,
            )
        )
        edges = [(i % 20, i % 7, float(i)) for i in range(300)]
        dims = [(k, f"label{k % 3}") for k in range(20)]
        edges_df = session.create_dataframe(edges, EDGE_SCHEMA, "edges")
        dims_df = session.create_dataframe(dims, DIM_SCHEMA, "dims")
        idf = edges_df.create_index("src")
        joined = idf.to_df().join(dims_df, on=("src", "node")).select("src", "label", "w")
        joined.collect_tuples()

        tracer = session.context.tracer
        assert tracer.integrity_errors() == []
        shape = set(tracer.span_tree_shape())
        kinds = {k for k, _, _ in shape}
        assert {"query", "phase", "job", "stage", "task", "operator"} <= kinds
        # Phases nest under the query; the execute phase owns the jobs.
        assert ("phase", "analyze", "query") in shape
        assert ("phase", "optimize", "query") in shape
        assert ("phase", "plan", "query") in shape
        assert ("phase", "execute", "query") in shape
        assert any(k == "job" and p == "phase" for k, _, p in shape)
        # The indexed join's probe runs inside a task.
        assert ("operator", "probe", "task") in shape


# ---------------------------------------------------------------------------
# Chaos: retries and kills must not leak or orphan spans
# ---------------------------------------------------------------------------


class TestChaosTraceIntegrity:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_no_orphans_under_chaos_soup(self, mode, seed):
        context = make_context(mode)
        context.faults.configure(**soup(seed))
        expected = sorted(run_shuffle_job(make_context(mode)))
        got = sorted(run_shuffle_job(context))
        assert got == expected
        assert context.tracer.integrity_errors() == []
        assert context.tracer.active_spans() == []
        # Chaos produced failed attempts: their spans exist, closed, with
        # error attrs — still nested under their stage.
        tasks = context.tracer.finished_spans(kind="task")
        assert all(t.end_time is not None for t in tasks)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_recovery_events_are_spans_carrying_the_event(self, mode, seed):
        """Under the chaos soup plus an executor kill, each counted recovery
        event is one ``recovery`` span named for its kind and carrying its
        six fields, and the trace stays clean."""
        context = make_context(mode, executor_replacement=True)
        context.faults.configure(**soup(seed))
        expected = sorted(run_shuffle_job(make_context(mode)))
        assert sorted(run_shuffle_job(context)) == expected
        context.kill_executor(context.alive_executor_ids()[0])
        assert sorted(run_shuffle_job(context)) == expected
        assert context.tracer.integrity_errors() == []
        spans = context.tracer.finished_spans(kind="recovery")
        by_kind: dict[str, int] = {}
        for span in spans:
            assert set(span.attrs) == {
                "job_index", "stage_id", "partition", "executor_id", "seconds", "detail"
            }
            by_kind[span.name] = by_kind.get(span.name, 0) + 1
        assert by_kind == context.registry.counter_by_label("recovery_events_total", "kind")
        assert {"executor_lost", "chaos_task_failure", "task_retry"} <= set(by_kind)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_retry_attempts_are_separate_task_spans(self, seed):
        context = make_context("sequential")
        context.faults.configure(seed=seed, task_failure_prob=0.3)
        run_shuffle_job(context)
        assert context.tracer.integrity_errors() == []
        tasks = context.tracer.finished_spans(kind="task")
        attempts = {(t.attrs["stage_id"], t.attrs["partition"], t.attrs["attempt"]) for t in tasks}
        assert len(attempts) == len(tasks), "each task attempt must be its own span"
        assert any(t.attrs["attempt"] > 0 for t in tasks), "chaos should force retries"

    @pytest.mark.parametrize("mode", MODES)
    def test_executor_kill_mid_run_keeps_trace_clean(self, mode):
        context = make_context(mode, executor_replacement=True)
        rdd = context.parallelize(list(range(100)), 8).map(lambda x: (x % 5, x))
        shuffled = rdd.reduce_by_key(lambda a, b: a + b)
        first = shuffled.collect()
        victim = context.alive_executor_ids()[0]
        context.kill_executor(victim)
        second = shuffled.collect()
        assert sorted(first) == sorted(second)
        assert context.tracer.integrity_errors() == []


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


class TestChromeExport:
    @pytest.mark.parametrize("mode", MODES)
    def test_export_validates_and_round_trips(self, mode, tmp_path):
        context = make_context(mode)
        run_shuffle_job(context)
        path = tmp_path / "trace.json"
        doc = context.tracer.export(str(path))
        assert validate_chrome_trace(doc) == []
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert len(loaded["traceEvents"]) == len(context.tracer.finished_spans())
        # parent_id args resolve within the document.
        ids = {e["args"]["span_id"] for e in loaded["traceEvents"]}
        for event in loaded["traceEvents"]:
            parent = event["args"].get("parent_id")
            assert parent is None or parent in ids

    def test_validator_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{}]}) != []
        bad_ts = {"traceEvents": [{"name": "x", "ph": "X", "ts": -1, "dur": 1, "pid": 0, "tid": 0}]}
        assert any("ts" in e for e in validate_chrome_trace(bad_ts))
        ok = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": 0}]}
        assert validate_chrome_trace(ok) == []

    def test_tracer_reset_clears_state(self):
        tracer = Tracer(enabled=True)
        with tracer.start_span("a", kind="query"):
            pass
        assert tracer.finished_spans()
        tracer.reset()
        assert tracer.finished_spans() == []
        assert tracer.integrity_errors() == []
