"""ReplayLog and block-manager machinery not covered elsewhere."""

import pytest

from repro.config import Config
from repro.engine.block_manager import BlockManager, BlockManagerMaster
from repro.engine.context import EngineContext
from repro.engine.replay import ReplayLog


class TestReplayLog:
    def test_append_and_get(self):
        log = ReplayLog()
        rec = log.append(1, [(1, 2), (3, 4)])
        assert rec.record_id == 0
        assert rec.version == 1
        assert log.get(0).rows == ((1, 2), (3, 4))

    def test_divergent_versions_allowed(self):
        """Listing 2: two children of one parent share a version number."""
        log = ReplayLog()
        a = log.append(1, [(1,)])
        b = log.append(1, [(2,)])
        assert a.record_id != b.record_id
        assert len(log) == 2

    def test_records_are_immutable_snapshots(self):
        log = ReplayLog()
        rows = [(1,)]
        rec = log.append(1, rows)
        rows.append((2,))  # caller mutates their list afterwards
        assert rec.rows == ((1,),)

    def test_records_listing(self):
        log = ReplayLog()
        log.append(1, [])
        log.append(2, [(5,)])
        assert [r.version for r in log.records()] == [1, 2]


class TestBlockManager:
    def test_put_get_remove(self):
        bm = BlockManager("e1")
        bm.put((1, 0), "value")
        assert bm.get((1, 0)) == "value"
        assert bm.contains((1, 0))
        bm.remove((1, 0))
        assert bm.get((1, 0)) is None

    def test_clear(self):
        bm = BlockManager("e1")
        bm.put((1, 0), "a")
        bm.put((2, 1), "b")
        bm.clear()
        assert bm.block_ids() == []


class TestBlockManagerMaster:
    def test_register_and_locations(self):
        master = BlockManagerMaster()
        master.register((1, 0), "e1")
        master.register((1, 0), "e2")
        master.register((1, 0), "e1")  # idempotent
        assert master.locations((1, 0)) == ["e1", "e2"]

    def test_remove_executor_reports_lost_blocks(self):
        master = BlockManagerMaster()
        master.register((1, 0), "e1")
        master.register((1, 1), "e1")
        master.register((1, 1), "e2")
        lost = master.remove_executor("e1")
        assert lost == [(1, 0)]  # (1,1) still on e2
        assert master.locations((1, 1)) == ["e2"]

    def test_remove_rdd_and_block(self):
        master = BlockManagerMaster()
        master.register((7, 0), "e1")
        master.register((7, 1), "e1")
        master.register((8, 0), "e1")
        master.remove_rdd_block((7, 0))
        assert master.locations((7, 0)) == []
        master.remove_rdd(7)
        assert master.locations((7, 1)) == []
        assert master.locations((8, 0)) == ["e1"]


class TestContextBlockOps:
    def test_invalidate_block_everywhere(self):
        ctx = EngineContext(config=Config(default_parallelism=2, shuffle_partitions=2))
        rdd = ctx.parallelize(range(10), 2).cache()
        rdd.collect()
        block = (rdd.rdd_id, 0)
        holders = ctx.block_manager_master.locations(block)
        assert holders
        ctx.invalidate_block(block)
        assert ctx.block_manager_master.locations(block) == []
        for runtime in ctx.executors.values():
            assert not runtime.block_manager.contains(block)
        # Recomputation still works after invalidation.
        assert sorted(rdd.collect()) == list(range(10))

    def test_remote_block_read_accounts_bytes(self):
        ctx = EngineContext(config=Config(default_parallelism=1, shuffle_partitions=1))
        rdd = ctx.parallelize(["x" * 1000] * 50, 1).cache()
        rdd.collect()
        [holder] = ctx.block_manager_master.locations((rdd.rdd_id, 0))
        # Force the next task onto a different machine than the holder.
        holder_machine = ctx.topology.machine_of(holder)
        for e in ctx.alive_executor_ids():
            if ctx.topology.machine_of(e) == holder_machine and e != holder:
                ctx.kill_executor(e)
        before = ctx.registry.counter_value("tasks_completed_total")
        rdd.collect()  # some tasks read the block remotely
        assert ctx.registry.counter_value("tasks_completed_total") > before
