"""Row batches: fixed-capacity binary buffers holding encoded rows.

The paper's batches are 4 MB "unsafe" off-heap arrays; ours are
``bytearray`` buffers — likewise outside any per-row object bookkeeping.
Batches are **append-only and shared across MVCC versions**: a snapshot
shares the batch objects, and divergent children may keep appending into
the same tail batch because (a) space is *reserved atomically*, so writers
never overlap, and (b) visibility is governed solely by each version's own
cTrie and backward pointers, so foreign rows in a shared batch are simply
unreachable (Section III-E).

Integrity: every batch carries CRC32 *prefix marks*
(:class:`~repro.integrity.ChecksumMixin`) anchored when a batch
seals (the partition opens a fresh tail) and verified whenever the bytes
re-cross a storage or transport boundary.
"""

from __future__ import annotations

import threading

from repro.integrity import ChecksumMixin


class RowBatch(ChecksumMixin):
    """One append-only buffer of encoded rows."""

    __slots__ = ("buf", "capacity", "_crc_marks", "_lock", "_used")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("batch capacity must be positive")
        self.capacity = capacity
        self.buf = bytearray(capacity)
        self._used = 0
        self._crc_marks: dict[int, int] = {}
        self._lock = threading.Lock()

    @property
    def used(self) -> int:
        return self._used

    def reserve(self, nbytes: int) -> int | None:
        """Atomically claim ``nbytes``; returns the offset or None if full."""
        with self._lock:
            if self._used + nbytes > self.capacity:
                return None
            offset = self._used
            self._used += nbytes
            return offset

    def write(self, offset: int, data: bytes) -> None:
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
        """What this batch's metered size depends on besides its fixed buffer:
        the fill mark and the CRC marks (DESIGN.md §10)."""
        marks = self._crc_marks
        return (self._used, *marks, *marks.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"RowBatch(used={self._used}/{self.capacity})"
