"""Out-of-core row batches: spill/fault transparency, partition spilling,
and spills shared by every MVCC version that shares a batch."""

import pytest

from repro.indexed.partition import IndexedPartition
from repro.indexed.row_batch import RowBatch, spill_partition
from repro.sql.types import DOUBLE, LONG, Schema

SCHEMA = Schema.of(("k", LONG), ("v", LONG), ("w", DOUBLE))


class TestSpillableRowBatch:
    """Every :class:`RowBatch` spills in place."""

    def test_behaves_like_row_batch(self):
        b = RowBatch(64)
        assert b.append(b"hello") == 0
        assert b.append(b"x" * 60) is None
        assert bytes(b.buf[:5]) == b"hello"
        assert b.used == 5
        assert b.resident and b.faults == 0

    def test_spill_and_fault_roundtrip(self, tmp_path):
        b = RowBatch(64)
        b.append(b"payload")
        freed = b.spill(str(tmp_path))
        assert freed == 64
        assert not b.resident
        # Reading faults the bytes back in, identically.
        assert bytes(b.ensure_resident()[:7]) == b"payload"
        assert b.resident
        assert b.faults == 1
        b.discard_file()

    def test_spill_idempotent(self, tmp_path):
        b = RowBatch(32)
        b.append(b"abc")
        assert b.spill(str(tmp_path)) == 32
        assert b.spill(str(tmp_path)) == 0  # already spilled

    def test_writes_rejected_while_spilled(self, tmp_path):
        b = RowBatch(32)
        b.append(b"abc")
        b.spill(str(tmp_path))
        with pytest.raises(RuntimeError):
            b.reserve(4)
        with pytest.raises(RuntimeError):
            b.write(0, b"x")

    def test_writable_again_after_fault(self, tmp_path):
        b = RowBatch(32)
        b.append(b"abc")
        b.spill(str(tmp_path))
        b.ensure_resident()
        assert b.append(b"de") == 3

    def test_spill_and_fault_in_keep_the_batch_object(self, tmp_path):
        """A spill acts on the batch itself: nothing is copied, and the
        faulted-back bytes are the batch's own."""
        b = RowBatch(64)
        b.append(b"data")
        batches = [b]
        b.spill(str(tmp_path))
        assert batches[0] is b and not b.resident
        assert bytes(b.ensure_resident()[:4]) == b"data" and b.buf is b.ensure_resident()
        assert b.used == 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RowBatch(0)


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


class TestSharedSpill:
    """Versions share batch objects, so they share each batch's spill."""

    def test_spilling_a_child_frees_the_parents_bytes_too(self, tmp_path):
        # 2 000 rows in 14 batches of 4 KB; the child is spilled.
        parent = IndexedPartition(Schema.of(("k", LONG), ("v", LONG)), "k", batch_size=4096)
        parent.insert_rows([(i % 50, i) for i in range(2000)])
        assert len(parent.batches) == 14
        child = parent.snapshot(1)
        before = parent.resident_batch_bytes()
        assert before == 57_344
        freed = spill_partition(child, spill_dir=str(tmp_path))
        assert freed == 13 * 4096  # everything but the tail
        assert all(a is b for a, b in zip(parent.batches, child.batches, strict=True))
        assert parent.resident_batch_bytes() == child.resident_batch_bytes() == before - freed
        # Reads of both versions fault each batch in once, for both.
        want = sorted((i % 50, i) for i in range(2000))
        assert sorted(child.scan_rows()) == want
        assert sorted(parent.scan_rows()) == want
        assert [b.faults for b in parent.batches] == [1] * 13 + [0]
        distinct = {id(b): b for b in [*parent.batches, *child.batches]}
        assert sum(b.capacity for b in distinct.values() if b.resident) <= before

    def test_sibling_append_into_a_spilled_shared_tail(self, tmp_path):
        """A version appending into a tail another version spilled faults it
        in and invalidates the file: a re-spill writes the new bytes."""
        parent = IndexedPartition(SCHEMA, "k", batch_size=4096)
        parent.insert_rows([(i % 10, i, float(i)) for i in range(40)])
        child = parent.snapshot(1)
        spill_partition(parent, spill_dir=str(tmp_path), keep_tail=False)
        (tail,) = child.batches
        assert not tail.resident and len(list(tmp_path.iterdir())) == 1
        child.insert_row((3, 999, 0.5))
        assert tail.resident and tail.faults == 1
        assert list(tmp_path.iterdir()) == []  # the stale file is gone
        assert tail.spill(str(tmp_path)) == 4096
        assert child.lookup(3)[0] == (3, 999, 0.5)  # faulted in from the new file
        assert tail.faults == 2
        assert all(r[1] != 999 for r in parent.lookup(3))
        assert sorted(parent.scan_rows()) == sorted((i % 10, i, float(i)) for i in range(40))


class TestFileLifecycle:
    """Spill temp files must never outlive the data they cache."""

    def test_finalizer_unlinks_on_gc(self, tmp_path):
        """Leak regression: dropping the last reference to a spilled batch
        removes its .spill file (weakref.finalize path)."""
        import gc

        b = RowBatch(64)
        b.append(b"gone soon")
        b.spill(str(tmp_path))
        assert len(list(tmp_path.iterdir())) == 1
        del b
        gc.collect()
        assert list(tmp_path.iterdir()) == []

    def test_discard_file_idempotent(self, tmp_path):
        b = RowBatch(64)
        b.append(b"abc")
        b.spill(str(tmp_path))
        b.ensure_resident()
        b.discard_file()
        b.discard_file()  # second call is a no-op
        assert list(tmp_path.iterdir()) == []

    def test_spill_creates_missing_dir(self, tmp_path):
        target = tmp_path / "nested" / "spill"
        b = RowBatch(64)
        b.append(b"abc")
        assert b.spill(str(target)) == 64
        assert len(list(target.iterdir())) == 1
        b.discard_file()

    def test_respill_after_fault_and_write_serves_fresh_bytes(self, tmp_path):
        """Stale re-spill regression: fault in, append, re-spill — the file
        must hold the *new* bytes, not the pre-fault ones."""
        b = RowBatch(64)
        b.append(b"old")
        b.spill(str(tmp_path))
        b.ensure_resident()
        b.append(b"NEW")          # invalidates the cached file
        assert b.spill(str(tmp_path)) == 64    # rewrites, not reuses
        assert bytes(b.ensure_resident()[:6]) == b"oldNEW"

    def test_respill_after_overwrite_serves_fresh_bytes(self, tmp_path):
        b = RowBatch(64)
        b.append(b"old")
        b.spill(str(tmp_path))
        b.ensure_resident()
        b.write(0, b"NEW")        # in-place overwrite, same invalidation
        b.spill(str(tmp_path))
        assert bytes(b.ensure_resident()[:3]) == b"NEW"

    def test_untouched_respill_reuses_file(self, tmp_path):
        """The reuse fast path stays: fault-in with no writes re-spills
        without rewriting."""
        b = RowBatch(64)
        b.append(b"stable")
        b.spill(str(tmp_path))
        (path,) = list(tmp_path.iterdir())
        mtime = path.stat().st_mtime_ns
        b.ensure_resident()
        b.spill(str(tmp_path))
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


def test_concurrent_spills_and_fault_ins_of_shared_batches(tmp_path):
    """Threads spilling and reading MVCC siblings that share every sealed
    batch: each read sees the rows, and once the work is done every file on
    disk is one some batch still holds a region of."""
    import gc
    import os
    import sys
    import threading

    parent = IndexedPartition(SCHEMA, "k", batch_size=512)
    parent.insert_rows([(i % 25, i, float(i)) for i in range(400)])
    versions = [parent, *(parent.snapshot(v) for v in range(1, 4))]
    want = sorted(parent.scan_rows())
    errors: list = []

    def worker(i):
        try:
            for r in range(25):
                part = versions[(i + r) % len(versions)]
                spill_partition(part, spill_dir=str(tmp_path), keep_tail=r % 2 == 0)
                assert sorted(part.scan_rows()) == want
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    gc.collect()
    held = {os.path.basename(r[0]) for b in parent.batches if (r := b.spill_region())}
    assert {p.name for p in tmp_path.iterdir()} <= held
