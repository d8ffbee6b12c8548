"""Out-of-core row batches (paper Section III-C).

    "Our implementation stores data in-memory. This decision was made to
    optimize for performance but without loss of generality; the
    representation could easily extend to store data out-of-core, for
    example in SSD or NVMe devices for different tradeoffs."

This module builds that extension: :class:`SpillableRowBatch` has the same
reserve/write/append interface as :class:`~repro.indexed.row_batch.RowBatch`
but can ``spill()`` its buffer to a file and transparently fault it back on
the next read. :func:`spill_partition` converts an existing partition's
*sealed* batches (everything but the active tail, which still takes
appends) to spilled form — the natural cold/hot split for an append-only
store. Lookups keep working unchanged; they just pay a fault on first
touch of a cold batch, which the ``faults`` counter exposes for benchmarks
(summed per partition by ``IndexedPartition.spill_faults``).

Spilled batches are sealed by construction: writes are rejected until the
batch is faulted back in, and any write after a fault-in *invalidates* the
backing file (a later re-spill rewrites it), so a faulted-in-then-appended
batch can never re-spill stale bytes. Versions sharing a batch all observe
the spill/fault transparently.

File lifecycle: every spill file is registered with a ``weakref.finalize``
so it is unlinked when its batch is garbage-collected, and explicitly via
``discard_file`` / :func:`discard_resident_files` on block-store clears.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
import weakref
import zlib
from typing import Any, Callable

from repro.integrity import ChecksumMixin, CorruptBlockError, integrity_enabled
from repro.indexed.partition import IndexedPartition
from repro.indexed.row_batch import RowBatch


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class SpillableRowBatch(ChecksumMixin):
    """A row batch whose bytes may live on disk.

    Same interface as :class:`RowBatch` (``reserve``/``write``/``append``/
    ``buf``/``used``/``capacity``) plus ``spill()``/``ensure_resident()``.
    Writes require residency; sealed (spilled) batches are read-only until
    faulted back in. ``on_fault`` (when set) is called with
    ``(bytes_loaded, seconds)`` after every fault-in — the hook the memory
    manager uses to meter fault-back traffic.
    """

    __slots__ = (
        "_buf", "_crc_marks", "_finalizer", "_lock", "_path", "_spill_crc", "_spill_dir",
        "_spill_len", "_used", "capacity", "chaos_corruption", "faults", "on_fault",
        "__weakref__",  # the spill file's finalizer
    )

    def __init__(self, capacity: int, spill_dir: "str | None" = None) -> None:
        if capacity <= 0:
            raise ValueError("batch capacity must be positive")
        self.capacity = capacity
        self._buf: "bytearray | None" = bytearray(capacity)
        self._used = 0
        self._lock = threading.Lock()
        self._spill_dir = spill_dir or tempfile.gettempdir()
        self._path: "str | None" = None
        self._finalizer: "weakref.finalize | None" = None
        self._crc_marks: dict[int, int] = {}
        #: CRC32 + length of the bytes written to the spill file, recorded
        #: at spill time and re-checked on every fault-in (the disk trust
        #: boundary). None while no valid file exists.
        self._spill_crc: "int | None" = None
        self._spill_len = 0
        #: Number of faults (loads from disk) — the out-of-core read cost.
        self.faults = 0
        #: Optional ``(nbytes, seconds)`` callback fired after a fault-in.
        self.on_fault: "Callable[[int, float], None] | None" = None
        #: Chaos hook: called after each spill-file write; a returned
        #: corruption mode damages the file (``None`` = no chaos). Wired by
        #: :func:`spill_partition` from the memory manager's injector.
        self.chaos_corruption: "Callable[[str], str | None] | None" = None

    # -- RowBatch interface ---------------------------------------------------

    @property
    def used(self) -> int:
        return self._used

    @property
    def buf(self) -> bytearray:
        """The batch bytes; faults them in from disk when spilled."""
        if self._buf is None:
            self.ensure_resident()
        return self._buf  # type: ignore[return-value]

    def reserve(self, nbytes: int) -> "int | None":
        with self._lock:
            if self._buf is None:
                raise RuntimeError("cannot reserve space in a spilled batch")
            if self._used + nbytes > self.capacity:
                return None
            offset = self._used
            self._used += nbytes
            # The on-disk copy (if any) no longer matches what will be in
            # memory: drop it so a re-spill rewrites fresh bytes.
            self._invalidate_file_locked()
            return offset

    def write(self, offset: int, data: bytes) -> None:
        if self._buf is None:
            raise RuntimeError("cannot write to a spilled batch")
        if self._path is not None:
            with self._lock:
                self._invalidate_file_locked()
        if self._crc_marks:
            self.drop_marks_beyond(offset)
        self._buf[offset : offset + len(data)] = data

    def append(self, data: bytes) -> "int | None":
        offset = self.reserve(len(data))
        if offset is not None:
            self.write(offset, data)
        return offset

    @property
    def nbytes(self) -> int:
        return self.capacity

    def meter_state(self) -> tuple:
        """What this batch's metered size depends on (DESIGN.md §10): its
        residency (not the buffer: a spill must free it), fill mark, fault
        count, spill file, the hooks a spill installs, and the CRC marks."""
        marks = self._crc_marks
        return (self._buf is None, self._used, self.faults, self._path, self._finalizer,
                self.on_fault, self.chaos_corruption, self._spill_crc, self._spill_len,
                *marks, *marks.values())

    # -- spilling ----------------------------------------------------------------

    @property
    def resident(self) -> bool:
        return self._buf is not None

    def spill(self) -> int:
        """Write the used bytes to disk and release the in-memory buffer.

        Returns the bytes freed. Idempotent; a second spill of an untouched
        batch reuses the file (post-fault-in writes invalidate it, so a
        reused file is never stale).
        """
        with self._lock:
            if self._buf is None:
                return 0
            if self._path is None:
                os.makedirs(self._spill_dir, exist_ok=True)
                fd, self._path = tempfile.mkstemp(
                    prefix="rowbatch-", suffix=".spill", dir=self._spill_dir
                )
                # Unlink the file when this batch object is collected, so
                # dropped partitions (evictions, executor kills, test
                # teardown) cannot leak temp files.
                self._finalizer = weakref.finalize(self, _unlink_quiet, self._path)
                data = bytes(self._buf[: self._used])
                with os.fdopen(fd, "wb") as f:
                    f.write(data)
                if integrity_enabled():
                    # Record the CRC of what *should* be on disk before any
                    # chaos touches the file, so injected damage is caught.
                    self._spill_crc = zlib.crc32(data)
                    self._spill_len = len(data)
                hook = self.chaos_corruption
                mode = hook(self._path) if hook is not None else None
                if mode:
                    from repro.integrity import corrupt_file

                    corrupt_file(self._path, len(data), mode)
            freed = self.capacity
            self._buf = None
            return freed

    def ensure_resident(self) -> None:
        """Fault the batch back into memory (no-op when already resident)."""
        with self._lock:
            if self._buf is not None:
                return
            assert self._path is not None
            t0 = time.perf_counter()
            buf = bytearray(self.capacity)
            with open(self._path, "rb") as f:
                data = f.read()
            if self._spill_crc is not None:
                actual = zlib.crc32(data)
                if len(data) != self._spill_len or actual != self._spill_crc:
                    # Leave the batch spilled: the quarantine drops every
                    # block referencing it and lineage rebuilds fresh bytes.
                    raise CorruptBlockError(
                        "spill_fault_in",
                        detail=f"{self._path}: {len(data)}/{self._spill_len} bytes",
                        batch=self,
                        expected=self._spill_crc,
                        actual=actual,
                    )
            buf[: len(data)] = data
            self._buf = buf
            self.faults += 1
            elapsed = time.perf_counter() - t0
            listener = self.on_fault
        if listener is not None:
            listener(self.capacity, elapsed)

    def _invalidate_file_locked(self) -> None:
        """Drop the backing file (caller holds ``_lock``)."""
        if self._path is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            _unlink_quiet(self._path)
            self._path = None
            self._spill_crc = None
            self._spill_len = 0

    def discard_file(self) -> None:
        """Remove the backing file (after faulting in, or on drop)."""
        with self._lock:
            self._invalidate_file_locked()

    @classmethod
    def from_batch(cls, batch: "RowBatch | SpillableRowBatch", spill_dir: "str | None" = None) -> "SpillableRowBatch":
        """Copy an in-memory batch into spillable form (one-time copy)."""
        out = cls(batch.capacity, spill_dir=spill_dir)
        used = batch.used
        out._buf[:used] = batch.buf[:used]  # type: ignore[index]
        out._used = used
        # The bytes are identical, so existing prefix anchors stay valid.
        out._crc_marks = dict(getattr(batch, "_crc_marks", {}))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        state = "resident" if self.resident else "spilled"
        return f"SpillableRowBatch({self._used}/{self.capacity}, {state})"


def spill_partition(
    partition: IndexedPartition,
    spill_dir: "str | None" = None,
    keep_tail: bool = True,
    on_fault: "Callable[[int, float], None] | None" = None,
    corruption_hook: "Callable[[str], str | None] | None" = None,
) -> int:
    """Convert the partition's sealed batches to spilled form.

    The active tail batch (still receiving appends) stays in memory when
    ``keep_tail``; everything else moves to disk. Returns bytes freed.
    Chain walks keep working — cold batches fault back in on first read
    (firing ``on_fault`` when given, so callers can meter the traffic).
    ``corruption_hook`` threads the chaos injector through to each spill
    write (see :attr:`SpillableRowBatch.chaos_corruption`).
    """
    freed = 0
    batches = partition.batches
    last = len(batches) - 1
    for i, batch in enumerate(batches):
        if keep_tail and i == last:
            continue
        if not isinstance(batch, SpillableRowBatch):
            batch = SpillableRowBatch.from_batch(batch, spill_dir=spill_dir)
            batches[i] = batch
        if on_fault is not None:
            batch.on_fault = on_fault
        if corruption_hook is not None:
            batch.chaos_corruption = corruption_hook
        freed += batch.spill()
    return freed


def discard_resident_files(value: Any) -> int:
    """Unlink backing files of *resident* spillable batches in ``value``.

    A resident batch's file is a stale cache of bytes that are already in
    memory — safe to drop even when MVCC siblings share the batch object (a
    later spill simply rewrites it). Files of still-spilled batches are left
    alone (another version may need to fault them in); those are reclaimed
    by each batch's GC finalizer instead. Returns the number of files
    removed. Accepts a partition, a list of partitions, or anything else
    (ignored).
    """
    removed = 0
    items = value if isinstance(value, (list, tuple)) else [value]
    for item in items:
        for batch in getattr(item, "batches", ()) or ():
            if isinstance(batch, SpillableRowBatch) and batch.resident:
                if batch._path is not None:
                    batch.discard_file()
                    removed += 1
    return removed
