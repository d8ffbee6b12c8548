"""Out-of-core row batches: spill/fault transparency and partition spilling."""

import pytest

from repro.indexed.out_of_core import SpillableRowBatch, spill_partition
from repro.indexed.partition import IndexedPartition
from repro.sql.types import DOUBLE, LONG, Schema

SCHEMA = Schema.of(("k", LONG), ("v", LONG), ("w", DOUBLE))


class TestSpillableRowBatch:
    def test_behaves_like_row_batch(self):
        b = SpillableRowBatch(64)
        assert b.append(b"hello") == 0
        assert b.append(b"x" * 60) is None
        assert bytes(b.buf[:5]) == b"hello"
        assert b.used == 5

    def test_spill_and_fault_roundtrip(self, tmp_path):
        b = SpillableRowBatch(64, spill_dir=str(tmp_path))
        b.append(b"payload")
        freed = b.spill()
        assert freed == 64
        assert not b.resident
        # Reading faults the bytes back in, identically.
        assert bytes(b.buf[:7]) == b"payload"
        assert b.resident
        assert b.faults == 1
        b.discard_file()

    def test_spill_idempotent(self, tmp_path):
        b = SpillableRowBatch(32, spill_dir=str(tmp_path))
        b.append(b"abc")
        assert b.spill() == 32
        assert b.spill() == 0  # already spilled

    def test_writes_rejected_while_spilled(self, tmp_path):
        b = SpillableRowBatch(32, spill_dir=str(tmp_path))
        b.append(b"abc")
        b.spill()
        with pytest.raises(RuntimeError):
            b.reserve(4)
        with pytest.raises(RuntimeError):
            b.write(0, b"x")

    def test_writable_again_after_fault(self, tmp_path):
        b = SpillableRowBatch(32, spill_dir=str(tmp_path))
        b.append(b"abc")
        b.spill()
        b.ensure_resident()
        assert b.append(b"de") == 3

    def test_from_batch_copies(self):
        from repro.indexed.row_batch import RowBatch

        src = RowBatch(64)
        src.append(b"data")
        clone = SpillableRowBatch.from_batch(src)
        assert bytes(clone.buf[:4]) == b"data"
        assert clone.used == 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SpillableRowBatch(0)


class TestSpillPartition:
    def _partition(self, n=400):
        p = IndexedPartition(SCHEMA, "k", batch_size=512)
        p.insert_rows([(i % 25, i, float(i)) for i in range(n)])
        assert len(p.batches) > 3  # several sealed batches
        return p

    def test_lookups_survive_spilling(self, tmp_path):
        p = self._partition()
        reference = {k: p.lookup(k) for k in range(25)}
        freed = spill_partition(p, spill_dir=str(tmp_path))
        assert freed > 0
        for k in range(25):
            assert p.lookup(k) == reference[k]
        assert p.spill_faults() > 0  # cold batches were faulted in

    def test_keep_tail_leaves_appends_working(self, tmp_path):
        p = self._partition()
        spill_partition(p, spill_dir=str(tmp_path), keep_tail=True)
        p.insert_row((7, 12345, 1.0))  # tail still writable
        assert p.lookup(7)[0][1] == 12345

    def test_resident_bytes_shrink(self, tmp_path):
        p = self._partition()
        before = p.resident_batch_bytes()
        spill_partition(p, spill_dir=str(tmp_path))
        # Lookups not yet run: only the tail is resident.
        assert p.resident_batch_bytes() < before

    def test_iter_rows_after_spill(self, tmp_path):
        p = self._partition(200)
        want = sorted(p.iter_rows())
        spill_partition(p, spill_dir=str(tmp_path), keep_tail=False)
        assert sorted(p.iter_rows()) == want

    def test_snapshot_shares_spilled_batches(self, tmp_path):
        p = self._partition(200)
        spill_partition(p, spill_dir=str(tmp_path))
        child = p.snapshot(1)
        child.insert_row((3, 999, 0.0))
        assert child.lookup(3)[0][1] == 999
        # Parent's view is unchanged and still readable from disk.
        assert all(r[1] != 999 for r in p.lookup(3))


class TestFileLifecycle:
    """Spill temp files must never outlive the data they cache."""

    def test_finalizer_unlinks_on_gc(self, tmp_path):
        """Leak regression: dropping the last reference to a spilled batch
        removes its .spill file (weakref.finalize path)."""
        import gc

        b = SpillableRowBatch(64, spill_dir=str(tmp_path))
        b.append(b"gone soon")
        b.spill()
        assert len(list(tmp_path.iterdir())) == 1
        del b
        gc.collect()
        assert list(tmp_path.iterdir()) == []

    def test_discard_file_idempotent(self, tmp_path):
        b = SpillableRowBatch(64, spill_dir=str(tmp_path))
        b.append(b"abc")
        b.spill()
        b.ensure_resident()
        b.discard_file()
        b.discard_file()  # second call is a no-op
        assert list(tmp_path.iterdir()) == []

    def test_spill_creates_missing_dir(self, tmp_path):
        target = tmp_path / "nested" / "spill"
        b = SpillableRowBatch(64, spill_dir=str(target))
        b.append(b"abc")
        assert b.spill() == 64
        assert len(list(target.iterdir())) == 1
        b.discard_file()

    def test_respill_after_fault_and_write_serves_fresh_bytes(self, tmp_path):
        """Stale re-spill regression: fault in, append, re-spill — the file
        must hold the *new* bytes, not the pre-fault ones."""
        b = SpillableRowBatch(64, spill_dir=str(tmp_path))
        b.append(b"old")
        b.spill()
        b.ensure_resident()
        b.append(b"NEW")          # invalidates the cached file
        assert b.spill() == 64    # rewrites, not reuses
        assert bytes(b.buf[:6]) == b"oldNEW"

    def test_respill_after_overwrite_serves_fresh_bytes(self, tmp_path):
        b = SpillableRowBatch(64, spill_dir=str(tmp_path))
        b.append(b"old")
        b.spill()
        b.ensure_resident()
        b.write(0, b"NEW")        # in-place overwrite, same invalidation
        b.spill()
        assert bytes(b.buf[:3]) == b"NEW"

    def test_untouched_respill_reuses_file(self, tmp_path):
        """The reuse fast path stays: fault-in with no writes re-spills
        without rewriting."""
        b = SpillableRowBatch(64, spill_dir=str(tmp_path))
        b.append(b"stable")
        b.spill()
        (path,) = list(tmp_path.iterdir())
        mtime = path.stat().st_mtime_ns
        b.ensure_resident()
        b.spill()
        (path2,) = list(tmp_path.iterdir())
        assert path2 == path and path.stat().st_mtime_ns == mtime

    def test_block_manager_clear_removes_resident_files(self, tmp_path):
        """BlockManager.clear() unlinks files of faulted-in (resident)
        batches instead of leaving stale caches behind."""
        from repro.engine.block_manager import BlockManager

        p = IndexedPartition(SCHEMA, "k", batch_size=512)
        p.insert_rows([(i % 25, i, float(i)) for i in range(400)])
        spill_partition(p, spill_dir=str(tmp_path))
        for k in range(25):
            p.lookup(k)  # fault everything back in
        assert len(list(tmp_path.iterdir())) > 0
        bm = BlockManager("m0e0")
        bm.put((1, 0), [p])
        bm.clear()
        assert list(tmp_path.iterdir()) == []
