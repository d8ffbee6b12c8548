"""Memory manager: budgets, tiered spill/evict, backpressure, chaos squeezes.

The subsystem under test (DESIGN.md §10):

* metering — every stored block deep-sized, MVCC-shared structure once;
* tier 1 (spill) — sealed row batches move to disk before anything is lost;
* tier 2 (evict) — whole blocks dropped LRU (or lowest cost-model value
  first), rebuilt from lineage on the next request;
* backpressure — a put that cannot fit raises a retryable
  :class:`MemoryPressureError`, surfaced as an ordinary task failure;
* chaos — seeded memory squeezes force spill storms mid-run.

Every end-to-end test is *differential*: the budgeted run must produce
exactly the rows an unbounded run produces.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.engine.memory_manager import MemoryManager, MemoryPressureError
from repro.engine.scheduler import TaskFailure
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema
from repro.utils.memory import deep_sizeof
from tests.conftest import MODES, recovery_counts, recovery_spans

SCHEMA = Schema.of(("k", LONG), ("v", DOUBLE), ("payload", STRING))


def make_rows(n=3000, keys=60, seed=0, width=120) -> list[tuple]:
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
    ctx = EngineContext(
        config=Config(**cfg),
        topology=private_cluster(num_machines=1, executors_per_machine=2),
    )
    return Session(context=ctx)


def cached_index(session, rows, num_partitions=8):
    df = session.create_dataframe(rows, SCHEMA, "t")
    return df.create_index("k", num_partitions=num_partitions).cache_index()


def collected(idf) -> list[tuple]:
    return sorted(tuple(r) for r in idf.collect())


@pytest.fixture(scope="module")
def baseline_rows() -> list[tuple]:
    return make_rows()


@pytest.fixture(scope="module")
def baseline() -> list[tuple]:
    s = make_session()
    return collected(cached_index(s, make_rows()))


# ---------------------------------------------------------------------------
# Metering unit behaviour (MemoryManager driven directly)
# ---------------------------------------------------------------------------


class TestMetering:
    def test_disabled_without_budget_or_chaos(self):
        ctx = make_session().context
        mm = ctx.executors["m0e0"].memory_manager
        assert not mm.enabled
        bm = ctx.executors["m0e0"].block_manager
        bm.put((1, 0), [b"x" * 1000])
        assert mm.used_bytes == 0  # unmetered: seed behaviour

    def test_put_meters_and_publishes_gauge(self, tmp_path):
        s = make_session(tmp_path=tmp_path, executor_memory_bytes=1 << 20)
        ctx = s.context
        bm = ctx.executors["m0e0"].block_manager
        bm.put((1, 0), [b"x" * 1000])
        used = ctx.executors["m0e0"].memory_manager.used_bytes
        assert used > 1000
        assert ctx.registry.gauge_value("memory_bytes_cached", executor="m0e0") == float(used)
        assert ctx.registry.counter_total("memory_put_bytes_total") >= used

    def test_mvcc_shared_structure_counted_once(self, tmp_path):
        from repro.indexed.partition import IndexedPartition

        s = make_session(tmp_path=tmp_path, executor_memory_bytes=64 << 20)
        mm = s.context.executors["m0e0"].memory_manager
        bm = s.context.executors["m0e0"].block_manager
        parent = IndexedPartition(SCHEMA, "k", batch_size=2048)
        parent.insert_rows([(i % 10, float(i), "p" * 50) for i in range(500)])
        child = parent.snapshot(1)
        child.insert_row((3, 1.0, "new"))
        bm.put((1, 0), [parent])
        parent_size = mm.block_sizes()[(1, 0)]
        bm.put((2, 0), [child])
        child_size = mm.block_sizes()[(2, 0)]
        # The child shares the parent's cTrie nodes and batches; its
        # incremental charge must be far below a standalone copy.
        assert child_size < parent_size / 4

    @pytest.mark.parametrize("seed", range(3))
    def test_charges_are_a_fresh_walk_of_the_store_after_every_put(self, seed, tmp_path):
        """The ledger against the walk it replaced, over a seeded run of puts,
        overwrites, removals, pressure storms and reads that fault batches
        back in — MVCC parents and children sharing batches and index arrays,
        spills and evictions on the way. See :func:`_ledger_run`."""
        _ledger_run(seed, tmp_path)

    def test_lru_eviction_order(self, tmp_path):
        s = make_session(tmp_path=tmp_path, executor_memory_bytes=10_000)
        bm = s.context.executors["m0e0"].block_manager
        bm.put((1, 0), [b"a" * 4000])
        bm.put((2, 0), [b"b" * 4000])
        bm.get((1, 0))  # touch: (1,0) becomes MRU
        bm.put((3, 0), [b"c" * 4000])  # overflow: (2,0) is now coldest
        assert bm.get((1, 0)) is not None
        assert bm.get((2, 0)) is None  # evicted
        assert bm.get((3, 0)) is not None

    def test_unknown_policy_rejected(self):
        ctx = make_session().context
        ctx.config.eviction_policy = "fifo"
        with pytest.raises(ValueError):
            MemoryManager(ctx, "m0e0")

    def test_overwrite_remeters(self, tmp_path):
        s = make_session(tmp_path=tmp_path, executor_memory_bytes=1 << 20)
        mm = s.context.executors["m0e0"].memory_manager
        bm = s.context.executors["m0e0"].block_manager
        bm.put((1, 0), [b"x" * 10_000])
        first = mm.used_bytes
        bm.put((1, 0), [b"x" * 100])
        assert mm.used_bytes < first


def _ledger_run(seed: int, tmp_path) -> None:
    """After every meter point (each spill, eviction, removal, overwrite and
    pressure storm, also the storm that starts metering in an unbudgeted
    store) every block's charge and the total equal one walk of the whole
    store from scratch, in LRU order with one shared ``seen`` set, to the
    byte. A put is no meter point: after one that shed nothing, the blocks
    stored before keep their charges — a batch a reader faulted back in is
    picked up at the next meter point, as the re-walk did — and the new
    block's charge is the walk's."""
    from repro.indexed.partition import IndexedPartition

    rng = random.Random(seed)
    family: list[IndexedPartition] = []
    for version in range(24):  # built in full first: a put meters a finished block
        if family and rng.random() < 0.6:
            part = rng.choice(family).snapshot(version)
        else:
            part = IndexedPartition(SCHEMA, "k", batch_size=2048, version=version)
        part.insert_rows(make_rows(rng.randrange(1, 150), 20, rng.getrandbits(30), 40))
        family.append(part)
    checked = []

    def metered(budget: int):
        s = make_session(tmp_path=tmp_path, executor_memory_bytes=budget)
        executor = s.context.executors["m0e0"]
        mm, bm = executor.memory_manager, executor.block_manager
        settle = mm._settle

        def settle_and_check(blocks, drop=None):
            settle(blocks, drop)
            assert mm.block_sizes() == walk(), f"seed={seed} step={len(checked)}"
            assert mm.used_bytes == sum(mm.block_sizes().values())
            checked.append(True)

        def walk() -> dict:
            seen: set = set()
            return {b: deep_sizeof(bm._blocks[b], seen=seen) for b in mm.block_sizes()}

        mm._settle = settle_and_check
        return s, mm, bm, walk

    # A storm in a store that never metered starts metering with a meter point.
    s, mm, bm, walk = metered(0)
    for i in range(6):
        bm.put((i, 0), [family[i]])
    bm.pressure_storm(0.5)
    assert checked and mm.enabled
    s, mm, bm, walk = metered(40_000)
    for _ in range(60):
        op = rng.choice(("put", "put", "put", "read", "read", "remove", "storm"))
        stored = list(mm.block_sizes())
        if op == "put" or not stored:
            block_id = (rng.randrange(len(family) + 4), 0)  # some puts overwrite
            before, settled = mm.block_sizes(), len(checked)
            try:
                bm.put(block_id, [family[block_id[0] % len(family)]])
            except MemoryPressureError:
                continue  # rolled back at a meter point, checked there
            if len(checked) == settled:
                charges = mm.block_sizes()
                assert charges.pop(block_id) == walk()[block_id]
                assert charges == {b: before[b] for b in charges}
        elif op == "read":
            parts = {b: bm._blocks[b][0] for b in stored}
            cold = [b for b, p in parts.items() if p.resident_batch_bytes() < p.allocated_bytes()]
            block_id = rng.choice(cold or stored)
            bm._blocks[block_id][0].scan_rows()  # faults its spilled batches back in
            if rng.random() < 0.5:
                bm.get(block_id)  # and moves it to the LRU end
        elif op == "remove":
            bm.remove(rng.choice(stored))
        else:
            bm.pressure_storm(rng.choice([0.3, 0.6]))
    reg = s.context.registry
    assert reg.counter_total("memory_spills_total") > 0
    assert reg.counter_total("memory_evictions_total") > 0
    assert reg.counter_total("memory_faulted_back_bytes_total") > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(3, 50))
def test_ledger_is_a_fresh_walk_slow(seed, tmp_path):
    _ledger_run(seed, tmp_path)


# ---------------------------------------------------------------------------
# Tiered shedding, end to end (differential vs unbounded)
# ---------------------------------------------------------------------------


class TestTieredShedding:
    @pytest.mark.parametrize("mode", MODES)
    def test_spill_tier_first(self, mode, tmp_path, baseline_rows, baseline):
        """A moderate budget is satisfied by spilling alone: results stay
        identical and nothing is evicted."""
        s = make_session(mode, tmp_path, executor_memory_bytes=120_000)
        idf = cached_index(s, baseline_rows)
        assert collected(idf) == baseline
        reg = s.context.registry
        assert reg.counter_total("memory_spills_total") > 0
        assert reg.counter_total("memory_spilled_bytes_total") > 0
        assert reg.counter_total("memory_evictions_total") == 0
        assert reg.counter_total("memory_faulted_back_bytes_total") > 0
        assert "block_spilled" in recovery_counts(s.context)

    @pytest.mark.parametrize("mode", MODES)
    def test_four_x_over_budget_completes(self, mode, tmp_path, baseline_rows, baseline):
        """The acceptance workload: cached partitions exceed the executor
        budget by >= 4x; the query completes, correct, in both modes, with
        spill + evict + fault-back activity and recomputes attributed."""
        budget = 50_000
        s = make_session(mode, tmp_path, executor_memory_bytes=budget)
        idf = cached_index(s, baseline_rows)
        # Repeated scans: evicted blocks recompute, spilled batches fault in.
        assert collected(idf) == baseline
        assert collected(idf) == baseline
        reg = s.context.registry
        assert reg.counter_total("memory_spills_total") > 0
        assert reg.counter_total("memory_evictions_total") > 0
        assert reg.counter_total("memory_faulted_back_bytes_total") > 0
        summary = recovery_counts(s.context)
        assert summary.get("block_evicted", 0) > 0
        assert summary.get("block_recomputed", 0) > 0
        for executor_id, mgr in (
            (e.executor_id, e.memory_manager) for e in s.context.executors.values()
        ):
            assert mgr.used_bytes <= budget, executor_id

    @pytest.mark.xfail(
        strict=True,
        reason="fault-ins are never charged: a read brings spilled batches back "
        "without a put, so the store outgrows its budget (DESIGN.md §10, ROADMAP item 8(a))",
    )
    def test_a_read_heavy_run_stays_under_budget(self, tmp_path, baseline_rows, baseline):
        budget = 120_000
        s = make_session("sequential", tmp_path, executor_memory_bytes=budget)
        idf = cached_index(s, baseline_rows)
        for _ in range(3):
            assert collected(idf) == baseline
        for runtime in s.context.executors.values():
            mm, blocks = runtime.memory_manager, runtime.block_manager._blocks
            seen: set = set()
            actual = sum(deep_sizeof(blocks[b], seen=seen) for b in mm.block_sizes())
            assert mm.used_bytes <= budget
            assert actual <= budget, (runtime.executor_id, actual, mm.used_bytes)

    def test_pressure_is_real(self, tmp_path, baseline_rows):
        """Sanity for the 4x claim: the unbounded footprint really is >= 4x
        the total budget the bounded run got."""
        unbounded = make_session("sequential", tmp_path)
        cached_index(unbounded, baseline_rows)
        total_budget = 50_000 * len(unbounded.context.executors)
        # Unbounded runs are unmetered; size the store directly.
        footprint = sum(
            deep_sizeof(e.block_manager._blocks)
            for e in unbounded.context.executors.values()
        )
        assert footprint >= 4 * total_budget

    def test_proactive_spill_index(self, tmp_path, baseline_rows, baseline):
        s = make_session("sequential", tmp_path)
        idf = cached_index(s, baseline_rows)
        freed = idf.spill_index()
        assert freed > 0
        stats = idf.memory_stats()
        assert sum(st["resident_bytes"] for st in stats) < sum(
            st["data_bytes"] for st in stats
        ) + sum(st["index_bytes"] for st in stats)
        assert collected(idf) == baseline
        assert sum(st["spill_faults"] for st in idf.memory_stats()) > 0

    @pytest.mark.parametrize(
        "how, budget",
        [
            ("reactive", 120_000),  # spills only; spilled blocks are re-read
            ("reactive", 50_000),  # spills, evictions and lineage rebuilds
            ("spill_index", 64 << 20),  # never sheds on its own
        ],
    )
    def test_faulted_back_bytes_are_what_the_batches_loaded(
        self, how, budget, tmp_path, monkeypatch, baseline_rows, baseline
    ):
        """One meter: ``memory_faulted_back_bytes_total`` equals
        sum(faults x capacity) over every batch a metered executor spilled
        — evicted ones included — whichever path spilled them."""
        from repro.indexed.out_of_core import SpillableRowBatch

        made: list[SpillableRowBatch] = []
        from_batch = SpillableRowBatch.from_batch.__func__

        def tracking(cls, batch, spill_dir=None):
            made.append(from_batch(cls, batch, spill_dir=spill_dir))
            return made[-1]

        monkeypatch.setattr(SpillableRowBatch, "from_batch", classmethod(tracking))
        s = make_session("sequential", tmp_path, executor_memory_bytes=budget)
        idf = cached_index(s, baseline_rows)
        reg = s.context.registry
        if how == "spill_index":
            assert reg.counter_total("memory_spills_total") == 0
            assert idf.spill_index() > 0
        for _ in range(3):
            assert collected(idf) == baseline
        loaded = sum(b.faults * b.capacity for b in made)
        assert loaded > 0
        assert reg.counter_total("memory_faulted_back_bytes_total") == loaded


    def test_spilled_bytes_are_what_the_batches_released(
        self, tmp_path, monkeypatch, baseline_rows, baseline
    ):
        """``memory_spilled_bytes_total`` is the capacity of every batch a spill
        released — also when readers faulted batches back in between spills,
        which a re-walk of the store nets out of the difference it counted."""
        from repro.indexed.out_of_core import SpillableRowBatch

        released: list[int] = []
        spill = SpillableRowBatch.spill

        def counting(batch):
            released.append(spill(batch))
            return released[-1]

        monkeypatch.setattr(SpillableRowBatch, "spill", counting)
        s = make_session("sequential", tmp_path, executor_memory_bytes=120_000)
        idf = cached_index(s, baseline_rows)  # spills
        assert collected(idf) == baseline  # faults them back in
        spills = s.context.registry.counter_total("memory_spills_total")
        other = make_rows(seed=1)
        assert collected(cached_index(s, other)) == sorted(other)  # spills again
        reg = s.context.registry
        assert 0 < spills < reg.counter_total("memory_spills_total")
        assert reg.counter_total("memory_faulted_back_bytes_total") > 0
        assert reg.counter_total("memory_spilled_bytes_total") == sum(released)


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------


class TestBackpressure:
    @pytest.mark.parametrize("mode", MODES)
    def test_impossible_budget_fails_cleanly(self, mode, tmp_path, baseline_rows):
        """A budget no single partition can fit: the put raises a retryable
        MemoryPressureError, the scheduler burns its retries, and the job
        fails as an ordinary TaskFailure — never a raw MemoryError."""
        s = make_session(mode, tmp_path, executor_memory_bytes=4_000, max_task_retries=2)
        with pytest.raises(TaskFailure) as excinfo:
            cached_index(s, baseline_rows)
        assert isinstance(excinfo.value.__cause__, MemoryPressureError)
        reg = s.context.registry
        assert reg.counter_total("memory_pressure_errors_total") > 0
        summary = recovery_counts(s.context)
        assert summary.get("memory_pressure", 0) > 0
        assert summary.get("task_retry", 0) > 0  # treated as retryable

    def test_error_carries_attribution(self, tmp_path):
        s = make_session(tmp_path=tmp_path, executor_memory_bytes=1_000)
        bm = s.context.executors["m0e0"].block_manager
        with pytest.raises(MemoryPressureError) as excinfo:
            bm.put((1, 0), [b"z" * 50_000])
        err = excinfo.value
        assert err.executor_id == "m0e0"
        assert err.budget == 1_000
        assert err.needed > err.budget
        # The failed put left the store unchanged.
        assert bm.get((1, 0)) is None
        assert s.context.executors["m0e0"].memory_manager.used_bytes == 0


# ---------------------------------------------------------------------------
# Eviction x chaos
# ---------------------------------------------------------------------------


class TestEvictionChaos:
    @pytest.mark.parametrize("mode", MODES)
    def test_eviction_with_executor_kill(self, mode, tmp_path, baseline_rows, baseline):
        """Mid-query, one executor dies while the other is evicting under
        budget pressure; lineage recompute must still produce identical
        results and the events must say who did what."""
        s = make_session(
            mode,
            tmp_path,
            executor_memory_bytes=60_000,
            executor_replacement=True,
            executor_restart_delay_tasks=2,
            tracing_enabled=True,
        )
        ctx = s.context
        idf = cached_index(s, baseline_rows)
        ctx.faults.fail_executor_at_task("m0e1", 3)  # mid-stage kill
        assert collected(idf) == baseline
        assert collected(idf) == baseline
        summary = recovery_counts(ctx)
        assert summary.get("executor_lost", 0) >= 1
        assert summary.get("block_evicted", 0) > 0
        assert summary.get("block_recomputed", 0) > 0
        valid = set(ctx.topology.executor_ids())
        shed = recovery_spans(ctx, "block_spilled") + recovery_spans(ctx, "block_evicted")
        assert len(shed) == summary.get("block_spilled", 0) + summary["block_evicted"]
        for event in shed:
            assert event.attrs["executor_id"] in valid
            assert isinstance(event.attrs["partition"], int)

    @pytest.mark.parametrize("mode", MODES)
    def test_explicit_storm_mid_run(self, mode, tmp_path, baseline_rows, baseline):
        """A forced pressure storm between queries (unbounded budget): every
        cached byte above factor x usage is shed, then recomputed/faulted."""
        s = make_session(mode, tmp_path)
        idf = cached_index(s, baseline_rows)
        for runtime in s.context.executors.values():
            runtime.block_manager.pressure_storm(0.25)
        assert collected(idf) == baseline
        assert recovery_counts(s.context).get("block_spilled", 0) > 0


# ---------------------------------------------------------------------------
# Chaos memory squeezes
# ---------------------------------------------------------------------------


class TestChaosSqueeze:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_seeded_squeezes_converge(self, mode, seed, tmp_path, baseline_rows, baseline):
        s = make_session(
            mode,
            tmp_path,
            chaos_seed=seed,
            chaos_memory_squeeze_prob=0.4,
            chaos_memory_squeeze_factor=0.4,
        )
        idf = cached_index(s, baseline_rows)
        for _ in range(2):
            assert collected(idf) == baseline
        summary = recovery_counts(s.context)
        assert summary.get("chaos_memory_squeeze", 0) > 0
        assert s.context.task_scheduler.busy == {}

    def test_targeted_squeeze_without_budget(self, tmp_path, baseline_rows, baseline):
        """squeeze_memory_at_task works even when no budget was configured:
        metering bootstraps lazily at the storm."""
        s = make_session(tmp_path=tmp_path)
        idf = cached_index(s, baseline_rows)
        s.context.faults.squeeze_memory_at_task(1, factor=0.3)
        assert collected(idf) == baseline
        summary = recovery_counts(s.context)
        assert summary.get("chaos_memory_squeeze", 0) == 1
        assert summary.get("block_spilled", 0) > 0

    def test_squeeze_draws_are_deterministic(self):
        from repro.cluster.faults import FaultInjector

        a = FaultInjector(seed=7, memory_squeeze_prob=0.5)
        b = FaultInjector(seed=7, memory_squeeze_prob=0.5)
        da = [a.on_task_start(0, i, 0, 1).memory_squeeze_factor for i in range(20)]
        db = [b.on_task_start(0, i, 0, 1).memory_squeeze_factor for i in range(20)]
        assert da == db
        assert any(f > 0 for f in da) and not all(f > 0 for f in da)


# ---------------------------------------------------------------------------
# Property test: random spill/fault-in/evict schedules over an MVCC chain
# ---------------------------------------------------------------------------


def _random_schedule_run(seed: int, tmp_path) -> None:
    """Build an MVCC append chain, then interleave random memory events
    (proactive spills, pressure storms, scans) and check every version
    still collects exactly what a never-spilled run would."""
    rng = random.Random(seed)
    s = make_session(
        rng.choice(MODES),
        tmp_path,
        executor_memory_bytes=rng.choice([0, 80_000, 150_000]),
    )
    rows = make_rows(n=600, keys=20, seed=seed, width=60)
    versions = [cached_index(s, rows, num_partitions=4)]
    expected = [sorted(rows)]
    for _ in range(rng.randrange(2, 5)):
        extra = make_rows(n=rng.randrange(30, 120), keys=20, seed=rng.getrandbits(30), width=60)
        versions.append(versions[-1].append_rows(extra))
        expected.append(sorted(expected[-1] + extra))
    for _ in range(rng.randrange(6, 14)):
        op = rng.choice(("spill", "storm", "scan", "scan"))
        v = rng.randrange(len(versions))
        if op == "spill":
            versions[v].spill_index(keep_tail=rng.random() < 0.8)
        elif op == "storm":
            runtime = rng.choice(list(s.context.executors.values()))
            runtime.block_manager.pressure_storm(rng.choice([0.0, 0.3, 0.6]))
        else:
            assert collected(versions[v]) == expected[v], f"seed={seed} version={v}"
    for v, idf in enumerate(versions):
        assert collected(idf) == expected[v], f"seed={seed} version={v} (final)"


@pytest.mark.parametrize("seed", range(5))
def test_property_mvcc_memory_schedules(seed, tmp_path):
    _random_schedule_run(seed, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5, 50))
def test_property_mvcc_memory_schedules_slow(seed, tmp_path):
    _random_schedule_run(seed, tmp_path)
