"""Row batches: fixed-capacity binary buffers holding encoded rows.

The paper's batches are 4 MB "unsafe" off-heap arrays; ours are
``bytearray`` buffers — likewise outside any per-row object bookkeeping.
Batches are **append-only and shared across MVCC versions**: a snapshot
shares the batch objects, and divergent children may keep appending into
the same tail batch because (a) space is *reserved atomically*, so writers
never overlap, and (b) visibility is governed solely by each version's own
cTrie and backward pointers, so foreign rows in a shared batch are simply
unreachable (Section III-E).

**Out of core** (Section III-C: the representation "could easily extend to
store data out-of-core, for example in SSD or NVMe devices"). A partition's
sealed batches spill together (:func:`spill_partition`): one spill writes
every batch it releases into **one** file, each batch keeping its region of
it (:class:`SpillFile`, offset, length) and that region's CRC. The next read
faults the batch back in from its region (:meth:`~RowBatch.ensure_resident`).
The spill acts on the batch object itself, so every version sharing it sees
the spill and the fault-in, and a spill frees exactly the capacity it
reports. A resident batch's ``buf`` stays a plain slot read. A spilled
batch's slot is empty, so only a spilled batch pays for the fault-in: the
chain walker catches the ``AttributeError`` of reading it (a ``try`` costs
nothing until it raises), and per-batch readers call ``ensure_resident()``.
A spilled batch is sealed: writes are rejected until it is faulted back in.
A faulted-in batch keeps its region, so an untouched batch re-spills without
a write; a write after a fault-in drops the region, so a re-spill never
resurrects stale bytes. A file is unlinked when no batch holds a region of
it any more (its :class:`SpillFile` is collected), whether the batches went
or dropped their regions (:meth:`~RowBatch.discard_file`).

**Integrity** (DESIGN.md §16). Every batch carries CRC32 *prefix marks*: a
batch is append-only, so the CRC of ``buf[:n]`` is permanent once its first
``n`` bytes are written. A mark is anchored at a trust-establishing moment
(sealing a batch, pinning a serve snapshot) and verified whenever the same
bytes re-cross a boundary (pin, scrub). Marks extend incrementally (CRC32
streams), so re-anchoring a growing tail costs O(delta). The one legitimate
change under a mark is an MVCC sibling completing a reservation made before
it, so :meth:`~RowBatch.write` drops every mark above its offset. The spill
region has its own CRC, recorded as it is written and checked on every
fault-in: a mismatch raises :class:`~repro.integrity.CorruptBlockError`
and leaves the batch spilled. Marks are not locked: anchors and verifies
happen at boundary crossings where the caller holds a consistent view of
the prefix, and the re-check in :meth:`~RowBatch.verify` resolves the one
benign race (a sibling completing an old reservation mid-verify).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
import weakref
import zlib
from typing import Any, Callable

from repro.integrity import CorruptBlockError, corrupt_file


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class SpillFile:
    """The file one spill wrote: ``data`` in a new file in ``spill_dir`` (the
    temp dir by default). Batches hold it with their regions of it; once
    none does (the batches are gone or dropped their regions), it is
    collected and its finalizer unlinks the file."""

    __slots__ = ("path", "__weakref__")

    def __init__(self, spill_dir: "str | None", data: bytes) -> None:
        spill_dir = spill_dir or tempfile.gettempdir()
        os.makedirs(spill_dir, exist_ok=True)
        fd, self.path = tempfile.mkstemp(prefix="block-", suffix=".spill", dir=spill_dir)
        weakref.finalize(self, _unlink_quiet, self.path)
        with os.fdopen(fd, "wb") as f:
            f.write(data)


class RowBatch:
    """One append-only buffer of encoded rows, resident or spilled to disk."""

    __slots__ = (
        "buf", "capacity", "chaos_corruption", "faults", "on_fault",
        "_crc_marks", "_file", "_lock", "_spill_crc", "_spill_len", "_spill_offset", "_used",
    )

    #: Keep the marks dict small on long-lived tails that are re-anchored at
    #: many watermarks (one per pin): above the cap, the smallest marks are
    #: dropped — verification at a dropped mark silently becomes a fresh
    #: anchor, which only narrows scrub coverage, never corrupts.
    _MAX_MARKS = 32

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("batch capacity must be positive")
        self.capacity = capacity
        self.buf = bytearray(capacity)
        self._used = 0
        self._crc_marks: dict[int, int] = {}
        self._lock = threading.Lock()
        #: The spill file while a region of it holds this batch's current
        #: bytes: ``_spill_len`` bytes at ``_spill_offset``, whose CRC32 is
        #: ``_spill_crc``, re-checked on every fault-in (the disk trust boundary).
        self._file: "SpillFile | None" = None
        self._spill_offset = self._spill_len = 0
        self._spill_crc: "int | None" = None
        #: Loads from disk — the out-of-core read cost.
        self.faults = 0
        #: Called with ``(bytes_loaded, seconds)`` after every fault-in: the
        #: memory manager's fault meter (:func:`spill_partition` installs it).
        self.on_fault: "Callable[[int, float], None] | None" = None
        #: Chaos hook called after each spill write with the file's path; a
        #: returned corruption mode damages this batch's region (``None`` =
        #: no chaos).
        self.chaos_corruption: "Callable[[str], str | None] | None" = None

    @property
    def used(self) -> int:
        return self._used

    @property
    def resident(self) -> bool:
        return hasattr(self, "buf")

    def reserve(self, nbytes: int) -> int | None:
        """Atomically claim ``nbytes``; returns the offset or None if full."""
        with self._lock:
            if self._file is not None and not self.resident:
                raise RuntimeError("cannot reserve space in a spilled batch")
            if self._used + nbytes > self.capacity:
                return None
            offset = self._used
            self._used += nbytes
            return offset

    def write(self, offset: int, data: bytes) -> None:
        if self._file is not None:  # the region stops matching the bytes here
            with self._lock:
                if not self.resident:
                    raise RuntimeError("cannot write to a spilled batch")
                self._file = None
        if self._crc_marks:
            self.drop_marks_beyond(offset)
        self.buf[offset : offset + len(data)] = data

    def append(self, data: bytes) -> int | None:
        """reserve + write; returns the offset or None if full."""
        offset = self.reserve(len(data))
        if offset is not None:
            self.write(offset, data)
        return offset

    @property
    def nbytes(self) -> int:
        return self.capacity

    def meter_state(self) -> tuple:
        """What this batch's metered size depends on (DESIGN.md §10):
        residency (a spill frees the buffer; each fault-in, counted, loads a
        new one), fill mark, spill region (by its file's path: holding the
        file would keep it on disk), the hooks a spill installs, the CRC
        marks."""
        marks = self._crc_marks
        spill_file = self._file
        return (self.resident, self._used, self.faults, spill_file and spill_file.path,
                self.on_fault, self.chaos_corruption, *marks, *marks.values())

    # -- out of core -----------------------------------------------------------------

    def spill(self, spill_dir: "str | None" = None) -> int:
        """Spill this batch alone (:func:`spill_batches`); returns the bytes
        freed. Idempotent; an untouched batch re-spills into its region."""
        return spill_batches([self], spill_dir)

    def spill_region(self) -> "tuple[str, int, int] | None":
        """``(path, offset, length)`` of the region holding this batch's
        bytes, or None when no spill file does."""
        spill_file = self._file
        if spill_file is None:
            return None
        return spill_file.path, self._spill_offset, self._spill_len

    def ensure_resident(self) -> bytearray:
        """The bytes, faulted back in from the batch's region when spilled."""
        try:
            return self.buf
        except AttributeError:
            pass
        with self._lock:
            if self.resident:  # faulted in by another reader meanwhile
                return self.buf
            t0 = time.perf_counter()
            path, length = self._file.path, self._spill_len  # type: ignore[union-attr]
            buf = bytearray(self.capacity)
            region = memoryview(buf)[:length]
            fd = os.open(path, os.O_RDONLY)
            try:
                got = os.preadv(fd, [region], self._spill_offset)
            finally:
                os.close(fd)
            actual = zlib.crc32(region[:got])
            if got != length or actual != self._spill_crc:
                # Stay spilled: the quarantine drops every block holding
                # this batch and lineage rebuilds fresh bytes.
                raise CorruptBlockError(
                    "spill_fault_in",
                    detail=f"{path}@{self._spill_offset}: {got}/{length} bytes",
                    batch=self, expected=self._spill_crc, actual=actual,
                )
            self.buf = buf
            self.faults += 1
            elapsed = time.perf_counter() - t0
            listener = self.on_fault
        if listener is not None:
            listener(self.capacity, elapsed)
        return buf

    def discard_file(self) -> None:
        """Drop the region of a resident batch (a spilled one's region holds
        its only copy); the file goes with the last region of it."""
        with self._lock:
            if self.resident:
                self._file = None

    # -- prefix CRC marks ----------------------------------------------------------------

    def checkpoint(self, upto: "int | None" = None) -> int:
        """Anchor (or return) the CRC32 of ``buf[:upto]``.

        Extends incrementally from the largest existing mark at or below
        ``upto``.
        """
        if upto is None:
            upto = self._used
        marks = self._crc_marks
        crc = marks.get(upto)
        if crc is not None:
            return crc
        base = base_crc = 0
        for count, mark in marks.items():
            if base < count <= upto:
                base, base_crc = count, mark
        crc = zlib.crc32(memoryview(self.ensure_resident())[base:upto], base_crc)
        marks[upto] = crc
        if len(marks) > self._MAX_MARKS:
            for count in sorted(marks)[: len(marks) - self._MAX_MARKS // 2]:
                del marks[count]
            marks[upto] = crc
        return crc

    def verify(self, upto: "int | None" = None, where: str = "verify") -> bool:
        """Recompute the CRC of ``buf[:upto]`` against the anchored mark.

        Returns False when no mark covers ``upto`` (nothing to verify yet),
        True on a match; raises :class:`CorruptBlockError` on a mismatch.
        """
        if upto is None:
            upto = self._used
        expected = self._crc_marks.get(upto)
        if expected is None:
            return False
        actual = zlib.crc32(memoryview(self.ensure_resident())[:upto])
        if actual != expected:
            if self._crc_marks.get(upto) != expected:
                # The mark was dropped mid-verify by a sibling completing a
                # pre-mark reservation: the read was stale, not corrupt.
                return False
            raise CorruptBlockError(
                where, detail=f"{upto} bytes", batch=self, expected=expected, actual=actual
            )
        return True

    def drop_marks_beyond(self, offset: int) -> None:
        """Invalidate marks covering bytes at or past ``offset`` (called by
        :meth:`write` before the store, so a mark never outlives its bytes)."""
        marks = self._crc_marks
        for count in [c for c in marks if c > offset]:
            del marks[count]

    def __repr__(self) -> str:  # pragma: no cover
        state = "resident" if self.resident else "spilled"
        return f"RowBatch(used={self._used}/{self.capacity}, {state})"


def spill_batches(batches: "list[RowBatch]", spill_dir: "str | None" = None) -> int:
    """Spill ``batches`` with one file write; returns the bytes freed.

    Resident batches without a region go, in order, into **one** new
    :class:`SpillFile`, each recording its region and its CRC; an untouched batch re-spills into the region it has. Each
    written batch's :attr:`RowBatch.chaos_corruption` is then asked whether to
    damage its region. Spilled batches are skipped.
    """
    freed = 0
    pending: "list[tuple[RowBatch, memoryview]]" = []
    for batch in batches:
        with batch._lock:
            buf = getattr(batch, "buf", None)
            if buf is None:
                continue
            if batch._file is not None:  # untouched since its region was written
                del batch.buf
                freed += batch.capacity
            else:
                pending.append((batch, memoryview(buf)[: batch._used]))
    if not pending:
        return freed
    data = b"".join([view for _, view in pending])
    spill_file = SpillFile(spill_dir, data)
    written, offset = memoryview(data), 0
    for batch, view in pending:
        length = len(view)
        with batch._lock:
            # Not a reservation since the copy, nor a spill by another caller.
            if batch._used == length and batch._file is None and batch.resident:
                batch._file, batch._spill_offset, batch._spill_len = spill_file, offset, length
                # The CRC of what *should* be on disk, taken before any chaos
                # touches the file, so injected damage is caught.
                batch._spill_crc = zlib.crc32(written[offset : offset + length])
                hook = batch.chaos_corruption
                mode = hook(spill_file.path) if hook is not None else None
                if mode:
                    corrupt_file(spill_file.path, length, mode, offset=offset)
                del batch.buf
                freed += batch.capacity
        offset += length
    return freed


def _distinct_batches(value: Any, keep_tail: bool = False) -> "list[RowBatch]":
    """The row batches of a partition or a list of them, each once; without
    each partition's tail when ``keep_tail``."""
    distinct: "dict[int, RowBatch]" = {}
    for item in value if isinstance(value, (list, tuple)) else [value]:
        batches = getattr(item, "batches", None) or []
        for batch in batches[:-1] if keep_tail else batches:
            distinct.setdefault(id(batch), batch)
    return list(distinct.values())


def spill_partition(
    partition: Any,
    spill_dir: "str | None" = None,
    keep_tail: bool = True,
    on_fault: "Callable[[int, float], None] | None" = None,
    corruption_hook: "Callable[[str], str | None] | None" = None,
) -> int:
    """Spill the batches of a partition (or of a list of them, such as one
    cached block) into one file (:func:`spill_batches`); returns the bytes
    freed.

    The active tail batch (still taking appends) stays in memory when
    ``keep_tail``. Reads fault cold batches back in, firing ``on_fault``
    when given; ``corruption_hook`` becomes each batch's
    :attr:`RowBatch.chaos_corruption`.
    """
    batches = _distinct_batches(partition, keep_tail)
    for batch in batches:
        if on_fault is not None:
            batch.on_fault = on_fault
        if corruption_hook is not None:
            batch.chaos_corruption = corruption_hook
    return spill_batches(batches, spill_dir)


def discard_resident_files(value: Any) -> int:
    """Drop the spill regions of *resident* batches in ``value`` (a
    partition or a list of them; anything else is ignored); returns how many.

    A resident batch's region is a stale copy of bytes already in memory,
    safe to drop even when MVCC siblings share the batch (a later spill
    rewrites it). Regions of spilled batches stay (a sibling may fault them
    in); a file is unlinked once no batch holds a region of it.
    """
    removed = 0
    for batch in _distinct_batches(value):
        if batch._file is not None and batch.resident:
            batch.discard_file()
            removed += 1
    return removed
