"""Composed chaos soak: every fault kind armed at once by one seed.

One ``context.faults.configure(seed=...)`` before the first job arms task
and fetch failures, stragglers, memory squeezes, spill corruption, serve
rejections and shard kills together, and one scheduled executor kill lands
mid-run with ``executor_replacement`` healing the cluster. A fixed mix of
point, range, join and scan queries then runs through ``session.sql``, a
:class:`ShardRouter` and a :class:`QueryServer`, and every answer must equal
the unfaulted one. Fault sites are keyed by ``(seed, site)``
(:mod:`repro.cluster.faults`), so a failing case replays by its test id
alone: ``pytest "tests/test_chaos_soak.py::test_composed_chaos_soak[seed-17]"``.
"""

from __future__ import annotations

import pytest

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.serve import QueryServer, RouterConfig, ServeConfig, ServeRejected, ShardRouter
from repro.sql.session import Session
from repro.sql.types import LONG, Schema
from tests.conftest import EDGE_SCHEMA, make_edges, recovery_counts

KEYS = 40
ROWS = make_edges(n=1200, keys=KEYS, seed=11)
PROBE = [(k,) for k in range(0, KEYS + 4, 3)]

#: Every knob armed at once; the seed is the only thing a case varies.
CHAOS = dict(
    task_failure_prob=0.1,
    fetch_failure_prob=0.1,
    straggler_prob=0.05,
    straggler_delay=0.001,
    memory_squeeze_prob=0.15,
    memory_squeeze_factor=0.5,
    corrupt_spill_prob=0.3,
    serve_rejection_prob=0.15,
    shard_kill_prob=0.15,
)
#: The recovery event each armed fault leaves when it fires (a serve
#: rejection is counted apart, as ``serve_rejections_total{reason="chaos"}``).
ARMED_EVENTS = (
    "chaos_task_failure",
    "chaos_fetch_failure",
    "chaos_straggler",
    "chaos_memory_squeeze",
    "chaos_spill_corruption",
    "chaos_shard_kill",
    "executor_replaced",  # the scheduled executor kill, healed
)
#: The fixed query mix: point, range, join, scan, and a grouped scan (a shuffle).
QUERIES = (
    "SELECT * FROM edges WHERE src = 7",
    "SELECT * FROM edges WHERE src = 31",
    "SELECT * FROM edges WHERE src BETWEEN 5 AND 9",
    "SELECT * FROM probe JOIN edges ON pk = src",
    "SELECT src, dst FROM edges WHERE weight > 0.8",
    "SELECT dst, COUNT(*) AS n FROM edges GROUP BY dst",
)
TIER1_SEEDS = (0, 1, 2)
SLOW_SEEDS = range(3, 60)


def make_session(spill_dir: str, seed: "int | None" = None):
    """A session over the indexed ``edges`` and a ``probe`` table, and the
    index; with a seed, every fault kind is armed before the first job."""
    context = EngineContext(
        config=Config(
            default_parallelism=4,
            shuffle_partitions=4,
            row_batch_size=2048,
            executor_memory_bytes=96 * 1024,
            spill_dir=spill_dir,
            executor_replacement=True,
            executor_restart_delay_tasks=4,
            task_retry_backoff=0.0,
        ),
        topology=private_cluster(num_machines=2, executors_per_machine=2),
    )
    if seed is not None:
        context.faults.configure(seed=seed, **CHAOS)
        context.faults.fail_executor_at_task(context.alive_executor_ids()[0], 40)
    session = Session(context=context)
    idf = session.create_dataframe(ROWS, EDGE_SCHEMA, "edges").create_index("src").cache_index()
    idf.create_or_replace_temp_view("edges")
    probe = session.create_dataframe(PROBE, Schema.of(("pk", LONG)), "probe")
    probe.create_or_replace_temp_view("probe")
    return session, idf


@pytest.fixture(scope="module")
def unfaulted(tmp_path_factory) -> dict[str, list[tuple]]:
    session, _ = make_session(str(tmp_path_factory.mktemp("unfaulted")))
    answers = {text: sorted(session.sql(text).collect_tuples()) for text in QUERIES}
    assert all(answers.values())
    return answers


def with_retries(call):
    """A client's retry loop: a rejection must be retryable, never final."""
    for _ in range(50):
        try:
            return call()
        except ServeRejected as exc:
            assert exc.retryable, exc
    raise AssertionError("50 retryable rejections in a row")


def run_soak(seed: int, unfaulted: dict[str, list[tuple]], spill_dir: str) -> set[str]:
    """Run the mix under ``seed``'s faults, assert every answer and the
    corruption ledger, and return which armed faults fired."""
    replay = f'replay: pytest "tests/test_chaos_soak.py::test_composed_chaos_soak[seed-{seed}]"'
    session, idf = make_session(spill_dir, seed)
    context = session.context
    wrong: list[tuple[str, str]] = []

    def check(surface: str, text: str, rows: list[tuple]) -> None:
        if sorted(rows) != unfaulted[text]:
            wrong.append((surface, text))

    router = ShardRouter(session, 3, RouterConfig(replication_factor=2))
    server = QueryServer(session, ServeConfig(num_workers=1))
    with router, server:
        router.publish("edges", idf)
        server.publish("edges", idf)
        for _ in range(2):
            idf.spill_index()  # sealed batches to disk, where corruption chaos strikes
            for text in QUERIES:
                check("session.sql", text, session.sql(text).collect_tuples())
                result = router.query(text)
                assert not result.degraded, (replay, text)  # one kill at a time, healed below
                check("router", text, result.rows)
                for shard_id, health in router.shard_states().items():
                    if health == "dead":
                        router.recover_shard(shard_id)
                check("server", text, with_retries(lambda: server.query(text)).rows)

    reg = context.registry
    detected = reg.counter_total("corruption_detected_total")
    repaired = reg.counter_total("corruption_repaired_total")
    assert wrong == [], (replay, wrong)
    assert detected == repaired, (replay, detected, repaired)
    assert context.task_scheduler.busy == {}, replay
    kinds = recovery_counts(context)
    fired = {kind for kind in ARMED_EVENTS if kinds.get(kind, 0)}
    if reg.counter_value("serve_rejections_total", reason="chaos"):
        fired.add("serve_rejection")
    return fired


@pytest.mark.parametrize(
    "seed",
    [*TIER1_SEEDS, *(pytest.param(seed, marks=pytest.mark.slow) for seed in SLOW_SEEDS)],
    ids=lambda seed: f"seed-{seed}",
)
def test_composed_chaos_soak(seed, unfaulted, tmp_path):
    """Zero wrong answers on every surface, and every detected corruption
    repaired, under all the faults one seed arms."""
    run_soak(seed, unfaulted, str(tmp_path))


def test_every_armed_fault_fires_across_the_seeds(unfaulted, tmp_path):
    """The soak exercises what it arms: each fault kind fires under at
    least one tier-1 seed."""
    fired = set().union(*(run_soak(seed, unfaulted, str(tmp_path)) for seed in TIER1_SEEDS))
    assert fired == {*ARMED_EVENTS, "serve_rejection"}
