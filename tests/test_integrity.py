"""End-to-end data integrity (DESIGN.md §16).

Covers the whole detect → quarantine → repair pipeline:

* :class:`~repro.integrity.ChecksumMixin` prefix marks on row batches —
  anchoring, incremental extension, MVCC mark invalidation, pruning, and
  the global enable toggle;
* every trust boundary raising :class:`~repro.integrity.CorruptBlockError`
  on damaged bytes: spill fault-in, snapshot pin;
* seeded corruption chaos (``chaos_corrupt_spill_prob``) driving the full
  recovery loop — quarantine everywhere, lineage rebuild,
  ``corruption_detected_total == corruption_repaired_total``, and zero
  wrong answers;
* the serve-tier scrubber finding and repairing damage in pinned
  snapshots (single server and sharded router);
* ``Config.validate()`` rejecting out-of-range knobs.
"""

from __future__ import annotations

import zlib

import pytest

from repro.config import Config
from repro.engine.context import EngineContext
from repro.indexed.out_of_core import SpillableRowBatch
from repro.indexed.partition import IndexedPartition
from repro.indexed.row_batch import RowBatch
from repro.integrity import (
    CORRUPTION_MODES,
    ChecksumMixin,
    CorruptBlockError,
    audit_partition,
    batch_matches,
    checkpoint_partition,
    corrupt_buffer,
    corrupt_file,
    integrity_enabled,
    set_integrity_enabled,
    value_contains_corruption,
)
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, Schema

EDGE = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))


def make_rows(n=3000, keys=50):
    return [(i % keys, i, float(i)) for i in range(n)]


def counters(session):
    reg = session.context.registry
    return (
        reg.counter_total("corruption_detected_total"),
        reg.counter_total("corruption_repaired_total"),
    )


# ---------------------------------------------------------------------------
# ChecksumMixin: marks, verification, MVCC invalidation
# ---------------------------------------------------------------------------


class TestChecksumMixin:
    def test_checkpoint_and_verify_roundtrip(self):
        batch = RowBatch(256)
        batch.append(b"hello")
        crc = batch.checkpoint()
        assert crc == zlib.crc32(b"hello")
        assert batch.verify() is True
        # Appends past the mark don't disturb it; a new mark extends
        # incrementally from the old one.
        batch.append(b"world")
        assert batch.verify(5) is True
        assert batch.checkpoint() == zlib.crc32(b"helloworld")

    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_verify_detects_every_damage_mode(self, mode):
        batch = RowBatch(8192)
        batch.append(b"x" * 6000)
        batch.checkpoint()
        corrupt_buffer(batch.buf, 6000, mode)
        with pytest.raises(CorruptBlockError) as err:
            batch.verify(where="unit")
        assert err.value.where == "unit"
        assert err.value.expected != err.value.actual

    def test_unanchored_batch_verifies_vacuously(self):
        batch = RowBatch(64)
        batch.append(b"data")
        assert batch.verify() is False  # no mark yet: nothing to check

    def test_mvcc_write_drops_stale_marks(self):
        # A sibling completing a pre-mark reservation rewrites bytes under
        # an existing mark; the mark must go rather than false-positive.
        batch = RowBatch(256)
        batch.append(b"abcdef")
        batch.checkpoint()
        batch.write(2, b"ZZ")
        assert batch.verify() is False  # mark dropped, not a mismatch
        assert batch.checkpoint() == zlib.crc32(b"abZZef")

    def test_marks_bounded(self):
        batch = RowBatch(4096)
        for i in range(80):
            batch.append(b"x" * 8)
            batch.checkpoint()
        assert len(batch._crc_marks) <= ChecksumMixin._MAX_MARKS
        assert batch.verify() is True

    def test_global_toggle_disables_anchoring(self):
        batch = RowBatch(64)
        batch.append(b"data")
        set_integrity_enabled(False)
        try:
            assert not integrity_enabled()
            assert batch.checkpoint() is None
            assert batch.verify() is False
        finally:
            set_integrity_enabled(True)
        assert batch.checkpoint() is not None

    def test_partition_helpers_anchor_and_audit(self):
        part = IndexedPartition(EDGE, "src", batch_size=2048, max_row_size=256, version=0)
        part.insert_rows(make_rows(200, keys=10))
        anchored = checkpoint_partition(part)
        assert anchored > 0
        verified, fresh = audit_partition(part)
        assert verified == anchored and fresh == 0
        # Damage one anchored batch: the audit must throw.
        for batch, wm in zip(part.batches, part.visible_watermarks()):
            if wm:
                corrupt_buffer(batch.buf, wm, "bit_flip")
                break
        with pytest.raises(CorruptBlockError):
            audit_partition(part, where="scrub")

    def test_exception_matching_helpers(self):
        batch = RowBatch(128)
        batch.append(b"abc")
        exc = CorruptBlockError("t", batch=batch)
        assert batch_matches(batch, exc)
        assert not batch_matches(RowBatch(128), exc)
        part = IndexedPartition(EDGE, "src", batch_size=2048, max_row_size=256, version=0)
        part.batches.append(batch)
        assert value_contains_corruption([part], exc)
        assert not value_contains_corruption([1, 2, 3], exc)

    def test_in_memory_reads_do_no_checksum_work(self, monkeypatch):
        """Checks cost nothing where queries spend their time: sealing a
        batch computes a CRC, reading resident bytes never does — the count
        behind the old checks-on-vs-off wall-clock gate (DESIGN.md §16)."""
        calls = []
        real_crc32 = zlib.crc32
        monkeypatch.setattr(zlib, "crc32", lambda *a: calls.append(1) or real_crc32(*a))
        rows = make_rows()
        s = Session(config=Config(
            default_parallelism=2, shuffle_partitions=2, row_batch_size=4096,
        ))
        idf = s.create_dataframe(rows, EDGE, "e").create_index("src").cache_index()
        idf.create_or_replace_temp_view("e")
        assert calls  # sealed batches were anchored during the build
        del calls[:]
        assert len(s.sql("SELECT src, w FROM e WHERE dst > 10").collect_tuples()) == 2989
        assert len(s.sql("SELECT * FROM e WHERE src = 7").collect_tuples()) == 60
        assert len(s.sql("SELECT * FROM e WHERE src BETWEEN 3 AND 5").collect_tuples()) == 180
        assert len(s.sql("SELECT src, count(*) FROM e GROUP BY src").collect_tuples()) == 50
        assert calls == []


# ---------------------------------------------------------------------------
# Spill fault-in boundary
# ---------------------------------------------------------------------------


class TestSpillBoundary:
    def test_clean_spill_roundtrip(self, tmp_path):
        batch = SpillableRowBatch(256, spill_dir=str(tmp_path))
        batch.append(b"hello world")
        batch.spill()
        assert bytes(batch.buf[:11]) == b"hello world"  # fault-in verifies

    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_damaged_spill_file_detected(self, tmp_path, mode):
        batch = SpillableRowBatch(8192, spill_dir=str(tmp_path))
        batch.append(b"y" * 5000)
        batch.spill()
        corrupt_file(batch._path, 5000, mode)
        with pytest.raises(CorruptBlockError) as err:
            batch.ensure_resident()
        assert err.value.where == "spill_fault_in"
        assert not batch.resident  # stays spilled: retryable, not poisoned

    def test_chaos_hook_damages_at_write_time(self, tmp_path):
        batch = SpillableRowBatch(8192, spill_dir=str(tmp_path))
        batch.append(b"z" * 4000)
        batch.chaos_corruption = lambda path: "garble_header"
        batch.spill()
        with pytest.raises(CorruptBlockError):
            batch.ensure_resident()


# ---------------------------------------------------------------------------
# End-to-end chaos: spill / proc attach / shuffle fetch
# ---------------------------------------------------------------------------


class TestCorruptionChaosEndToEnd:
    def test_spill_corruption_heals_via_lineage(self, tmp_path):
        rows = make_rows()
        s = Session(config=Config(
            default_parallelism=2, shuffle_partitions=2, spill_dir=str(tmp_path),
            row_batch_size=4096, chaos_seed=11, chaos_corrupt_spill_prob=1.0,
            task_retry_backoff=0.0,
        ))
        idf = s.create_dataframe(rows, EDGE, "e").create_index("src").cache_index()
        idf.spill_index()
        assert sorted(idf.lookup_tuples(7)) == sorted(t for t in rows if t[0] == 7)
        assert sorted(map(tuple, idf.collect())) == sorted(rows)
        detected, repaired = counters(s)
        assert detected > 0
        assert detected == repaired
        kinds = s.context.metrics.recovery_summary()
        assert "chaos_spill_corruption" in kinds
        assert "corrupt_block_quarantined" in kinds
        assert "corrupt_block_rebuilt" in kinds
        assert s.context.faults.corruptions


# ---------------------------------------------------------------------------
# Serve tier: pin-time audit + scrubber
# ---------------------------------------------------------------------------


def _corrupt_pinned(part) -> bool:
    for batch, wm in zip(part.batches, part.visible_watermarks()):
        if wm:
            corrupt_buffer(batch.buf, wm, "bit_flip")
            return True
    return False


class TestScrubber:
    def _publish(self, mode="sequential", evicted=False):
        from repro.serve.server import QueryServer

        s = Session(config=Config(
            default_parallelism=4, shuffle_partitions=4,
            scheduler_mode=mode, task_retry_backoff=0.0,
        ))
        rows = make_rows(4000, keys=40)
        idf = s.create_dataframe(rows, EDGE, "edges").create_index("src").cache_index()
        server = QueryServer(s)
        server.publish("v", idf)
        if evicted:  # the pin still holds the partitions; the block store does not
            for split in range(idf.num_partitions):
                s.context.invalidate_block((idf.rdd.rdd_id, split))
        return s, rows, server

    def test_scrub_finds_and_repairs_pinned_snapshot(self):
        self._scrub_repairs_through_the_router(evicted=False)

    def test_scrub_repin_of_evicted_pin_balances_the_ledger(self):
        self._scrub_repairs_through_the_router(evicted=True)

    def _scrub_repairs_through_the_router(self, evicted):
        """A QueryServer is scrubbed through its one-shard router: with no
        other replica the split is re-pinned from lineage, the served pin
        takes the verified copy, and the ledger balances — attributed to
        the cache manager's rebuild when the damaged block was cached, to
        the re-pin (``how=repin``) when the block store no longer held it."""
        from repro.integrity import audit_partition
        from repro.serve.scrub import SnapshotScrubber

        s, rows, server = self._publish(evicted=evicted)
        assert _corrupt_pinned(server.pinned("v").partitions[0])
        stats = SnapshotScrubber(server).scrub_once()
        assert stats["found"] == 1 and stats["repaired"] == 1
        detected, repaired = counters(s)
        assert detected == repaired > 0
        repins = s.context.registry.counter_value("corruption_repaired_total", how="repin")
        assert repins == (1 if evicted else 0)
        pin = server.pinned("v")
        audit_partition(pin.partitions[0], where="test")  # verified bytes now
        assert sorted(pin.lookup(7)) == sorted(t for t in rows if t[0] == 7)
        assert server.router.routing_table("v")[0] == [0]
        assert server.router.shards[0].snapshot("v").parts[0] is pin.partitions[0]
        assert sorted(server.query("SELECT * FROM v WHERE src = 7").rows) == sorted(
            t for t in rows if t[0] == 7
        )
        server.shutdown()
        kinds = s.context.metrics.recovery_summary()
        assert "scrub_corruption_found" in kinds
        assert "scrub_corruption_repaired" in kinds
        assert s.context.tracer.integrity_errors() == []

    def test_clean_scrub_cycle_verifies_without_repair(self):
        from repro.serve.scrub import SnapshotScrubber

        s, _rows, server = self._publish()
        scrub = SnapshotScrubber(server)
        first = scrub.scrub_once()
        second = scrub.scrub_once()
        assert first["found"] == second["found"] == 0
        assert second["verified"] == second["partitions"]
        assert s.context.registry.counter_total("scrub_cycles_total") == 2

    def test_background_scrubber_lifecycle(self):
        from repro.serve.scrub import SnapshotScrubber

        s, _rows, server = self._publish()
        with SnapshotScrubber(server, interval=0.01) as scrub:
            assert _corrupt_pinned(server.pinned("v").partitions[1])
            import time

            deadline = time.time() + 5.0
            while time.time() < deadline:
                if s.context.registry.counter_total("scrub_cycles_total") >= 2:
                    break
                time.sleep(0.01)
        detected, repaired = counters(s)
        assert detected == repaired == 1
        assert scrub._thread is None  # stopped cleanly

    def test_router_scrub_repairs_corrupted_replica(self):
        from repro.serve.router import RouterConfig, ShardRouter
        from repro.serve.scrub import SnapshotScrubber

        s = Session(config=Config(
            default_parallelism=4, shuffle_partitions=4, task_retry_backoff=0.0,
        ))
        rows = make_rows(4000, keys=40)
        idf = s.create_dataframe(rows, EDGE, "edges").create_index("src").cache_index()
        with ShardRouter(s, 3, RouterConfig(replication_factor=2)) as router:
            router.publish("v", idf)
            owner = router.routing_table("v")[0][0]
            assert _corrupt_pinned(router.shards[owner].snapshot("v").parts[0])
            stats = SnapshotScrubber(router).scrub_once()
            assert stats["found"] == 1 and stats["repaired"] == 1
            detected, repaired = counters(s)
            assert detected == repaired > 0
            # Replication factor restored with verified bytes; the routed
            # answer is complete and correct.
            assert len(router.routing_table("v")[0]) >= 2
            res = router.query("SELECT src, dst, w FROM v WHERE src = 7")
            assert not res.degraded
            assert sorted(map(tuple, res.rows)) == sorted(t for t in rows if t[0] == 7)

    def test_pin_time_audit_rejects_corrupt_cache(self):
        from repro.serve.snapshot import PinnedSnapshot

        s = Session(config=Config(default_parallelism=2, shuffle_partitions=2))
        rows = make_rows(2000, keys=20)
        idf = s.create_dataframe(rows, EDGE, "edges").create_index("src").cache_index()
        first = PinnedSnapshot.pin(idf)  # anchors every partition
        assert _corrupt_pinned(first.partitions[0])
        repinned = PinnedSnapshot.pin(idf)  # detects, quarantines, rebuilds
        detected, repaired = counters(s)
        assert detected == repaired == 1
        assert sorted(repinned.lookup(7)) == sorted(t for t in rows if t[0] == 7)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestConfigValidate:
    def test_valid_config_returns_self(self):
        cfg = Config()
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("field_name", [
        "chaos_corrupt_spill_prob",
        "chaos_task_failure_prob",
    ])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_out_of_range_probability_rejected(self, field_name, bad):
        with pytest.raises(ValueError, match=field_name):
            Config(**{field_name: bad}).validate()

    def test_bad_enum_rejected(self):
        with pytest.raises(ValueError, match="scheduler_mode"):
            Config(scheduler_mode="quantum").validate()

    def test_processes_mode_rejected_naming_surviving_modes(self, monkeypatch):
        with pytest.raises(ValueError, match="sequential.*threads"):
            Config(scheduler_mode="processes").validate()
        monkeypatch.setenv("REPRO_SCHEDULER_MODE", "processes")
        with pytest.raises(ValueError, match="sequential.*threads"):
            EngineContext()

    def test_bad_positive_int_rejected(self):
        with pytest.raises(ValueError, match="row_batch_size"):
            Config(row_batch_size=0).validate()

    def test_all_problems_reported_together(self):
        with pytest.raises(ValueError) as err:
            Config(chaos_corrupt_spill_prob=2.0, scheduler_mode="quantum").validate()
        assert "chaos_corrupt_spill_prob" in str(err.value)
        assert "scheduler_mode" in str(err.value)

    def test_session_rejects_invalid_config_eagerly(self):
        with pytest.raises(ValueError, match="chaos_corrupt_spill_prob"):
            Session(config=Config(chaos_corrupt_spill_prob=7.0))
