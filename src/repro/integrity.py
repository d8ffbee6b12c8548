"""End-to-end data integrity: CRC32 prefix checksums over row batches.

The paper's batches are "unsafe" off-heap byte buffers, and since the
spill (PR 4) and sharded-serve (PR 7) work those raw bytes travel through
disk files and replica copies. A flipped bit on any of those paths would
previously decode into a silently wrong answer. This
module gives every batch flavour a cheap integrity vocabulary and the
boundaries a shared error type:

**Prefix marks.** Batches are append-only, so the CRC32 of ``buf[:n]`` is
permanent once the first ``n`` bytes are written: later appends land past
``n`` and cannot change it. :class:`ChecksumMixin` keeps a small
``byte count -> crc32`` dict per batch ("marks"). A mark is *anchored* at
a trust-establishing moment — sealing a batch, spilling to disk, pinning
a serve snapshot — and *verified* by recomputing the prefix CRC whenever
the same bytes re-enter across a boundary (spill fault-in, pin, scrub). Marks extend incrementally (CRC32 is streamable), so
re-anchoring a growing tail costs O(delta), not O(prefix).

The one way an anchored prefix can legitimately change is an MVCC sibling
completing a *reservation made before the mark*: space is claimed
atomically but written later, so a write may land below an existing mark.
``write()`` therefore drops every mark above the write offset — the next
anchor recomputes from the bytes actually present.

**Trust model.** Verification happens only at storage/transport edges,
never on in-memory reads — that is what keeps the overhead within the
fig08 budget. Corruption of resident memory between two boundary
crossings is caught at the *next* crossing or by the serve scrubber, not
at the moment of the flip.

:class:`CorruptBlockError` is retryable by design: the task scheduler
quarantines every cached block referencing the damaged bytes
(:meth:`~repro.engine.context.EngineContext.quarantine_corrupt`) and the
retry rebuilds them from lineage, so corruption degrades into the same
recovery path as an executor loss — never into a wrong row.

This module imports nothing from the rest of the package so every layer
(indexed, engine, serve) can reach it without cycles.
"""

from __future__ import annotations

import os
import zlib

#: Damage patterns the corruption chaos can inject. All of them XOR real
#: bytes (or genuinely shorten a file), so an injected corruption is
#: *guaranteed* to change the prefix CRC — detection never depends on luck.
CORRUPTION_MODES = ("bit_flip", "truncate", "garble_header")

#: Process-global integrity switch. Off, the anchor/verify calls collapse
#: to near-free no-ops — the baseline an A/B run measures checksum overhead
#: against.
_ENABLED = True


def integrity_enabled() -> bool:
    return _ENABLED


def set_integrity_enabled(enabled: bool) -> bool:
    """Flip the process-global integrity switch; returns the new value."""
    global _ENABLED
    _ENABLED = bool(enabled)
    return _ENABLED


class CorruptBlockError(RuntimeError):
    """A checksum mismatch at a trust boundary.

    ``where`` names the boundary (``"spill_fault_in"``, ``"pin"``,
    ``"scrub"``); ``batch`` identifies the damaged bytes so the quarantine
    can find every cached block that references them.
    """

    def __init__(
        self,
        where: str,
        detail: str = "",
        batch: object = None,
        expected: "int | None" = None,
        actual: "int | None" = None,
    ) -> None:
        self.where = where
        self.detail = detail
        self.batch = batch
        self.expected = expected
        self.actual = actual
        msg = f"corrupt block detected at {where}"
        if expected is not None and actual is not None:
            msg += f": crc32 0x{expected:08x} != 0x{actual:08x}"
        if detail:
            msg += f" [{detail}]"
        super().__init__(msg)


class ChecksumMixin:
    """Prefix-CRC bookkeeping shared by every row-batch flavour.

    Hosts expect ``self.buf`` (a writable byte buffer), ``self.used`` and a
    ``self._crc_marks`` dict created in ``__init__``. The marks dict is not
    locked: anchors and verifies happen at boundary crossings where the
    caller already holds a consistent view of the prefix, and the
    mark-dropped re-check in :meth:`verify` resolves the one benign race
    (a sibling completing an old reservation mid-verify).
    """

    __slots__ = ()

    #: Keep the marks dict small on long-lived tails that are re-anchored
    #: at many watermarks (one per pin): above the cap, the smallest
    #: marks are dropped — verification at a dropped mark silently becomes
    #: a fresh anchor, which only narrows scrub coverage, never corrupts.
    _MAX_MARKS = 32

    def checkpoint(self, upto: "int | None" = None) -> "int | None":
        """Anchor (or return) the CRC32 of ``buf[:upto]``.

        Extends incrementally from the largest existing mark at or below
        ``upto``; returns None when integrity checking is disabled.
        """
        if not _ENABLED:
            return None
        if upto is None:
            upto = self.used
        marks = self._crc_marks
        crc = marks.get(upto)
        if crc is not None:
            return crc
        base = 0
        base_crc = 0
        for count, mark in marks.items():
            if base < count <= upto:
                base, base_crc = count, mark
        crc = zlib.crc32(memoryview(self.buf)[base:upto], base_crc)
        marks[upto] = crc
        if len(marks) > self._MAX_MARKS:
            for count in sorted(marks)[: len(marks) - self._MAX_MARKS // 2]:
                del marks[count]
            marks[upto] = crc
        return crc

    def expected_checksum(self, upto: int) -> "int | None":
        return self._crc_marks.get(upto)

    def verify(self, upto: "int | None" = None, where: str = "verify") -> bool:
        """Recompute the CRC of ``buf[:upto]`` against the anchored mark.

        Returns False when no mark covers ``upto`` (nothing to verify yet),
        True on a match; raises :class:`CorruptBlockError` on a mismatch.
        """
        if not _ENABLED:
            return False
        if upto is None:
            upto = self.used
        expected = self._crc_marks.get(upto)
        if expected is None:
            return False
        actual = zlib.crc32(memoryview(self.buf)[:upto])
        if actual != expected:
            if self._crc_marks.get(upto) != expected:
                # The mark was dropped mid-verify by a sibling completing a
                # pre-mark reservation: the read was stale, not corrupt.
                return False
            raise CorruptBlockError(
                where,
                detail=f"{upto} bytes",
                batch=self,
                expected=expected,
                actual=actual,
            )
        return True

    def drop_marks_beyond(self, offset: int) -> None:
        """Invalidate marks covering bytes at or past ``offset`` (called by
        ``write()`` before the store, so a mark never outlives its bytes)."""
        marks = self._crc_marks
        for count in [c for c in marks if c > offset]:
            del marks[count]


# -- partition-level anchoring and audit --------------------------------------------


def checkpoint_partition(partition) -> int:
    """Anchor prefix marks at the partition's visible watermarks.

    Returns the number of batches anchored. For non-contiguous MVCC
    versions the watermarks cover only the contiguous prefix of each batch.
    """
    if not _ENABLED:
        return 0
    anchored = 0
    for batch, upto in zip(partition.batches, partition.visible_watermarks()):
        if upto:
            batch.checkpoint(upto)
            anchored += 1
    return anchored


def audit_partition(partition, where: str = "scrub") -> tuple[int, int]:
    """Verify every anchored visible prefix; anchor unmarked ones.

    Returns ``(verified, anchored)``. Raises :class:`CorruptBlockError` on
    the first mismatch. Spilled batches fault in through ``buf`` — their
    own spill-file CRC check runs first and raises the same error type.
    """
    if not _ENABLED:
        return (0, 0)
    verified = anchored = 0
    for batch, upto in zip(partition.batches, partition.visible_watermarks()):
        if not upto:
            continue
        if batch.verify(upto, where=where):
            verified += 1
        else:
            batch.checkpoint(upto)
            anchored += 1
    return verified, anchored


def batch_matches(batch, exc: CorruptBlockError) -> bool:
    """Does ``batch`` hold the bytes ``exc`` flagged as corrupt?"""
    return exc.batch is not None and batch is exc.batch


def value_contains_corruption(value, exc: CorruptBlockError) -> bool:
    """Does a cached block value (partition or list of them) reference the
    corrupt bytes? MVCC siblings share batch *objects*, so identity finds
    every version touched by the damage."""
    items = value if isinstance(value, (list, tuple)) else [value]
    for item in items:
        for batch in getattr(item, "batches", ()) or ():
            if batch_matches(batch, exc):
                return True
    return False


# -- chaos damage patterns ----------------------------------------------------------


def corrupt_buffer(buf, nbytes: int, mode: str, salt: int = 0) -> str:
    """XOR-damage the ``nbytes`` prefix of a writable buffer in place.

    A buffer cannot shrink in place, so ``truncate`` is emulated by
    smashing the tail. Every mode XORs with a non-zero pattern, so the
    prefix CRC is guaranteed to change. Returns a description for logs.
    """
    if nbytes <= 0:
        return "noop (empty region)"
    if mode == "garble_header":
        n = min(8, nbytes)
        for i in range(n):
            buf[i] ^= 0xA5
        return f"garbled {n}-byte header"
    if mode == "truncate":
        start = nbytes - max(1, min(4096, nbytes // 4))
        chunk = bytes(buf[start:nbytes])
        buf[start:nbytes] = bytes(b ^ 0xFF for b in chunk)
        return f"smashed tail [{start}:{nbytes})"
    i = (salt * 2654435761 + nbytes // 2) % nbytes
    buf[i] ^= 0x01
    return f"flipped bit 0 of byte {i}"


def corrupt_file(path: str, nbytes: int, mode: str, salt: int = 0) -> str:
    """Damage an on-disk spill file. ``truncate`` genuinely shortens it
    (detected by the length check before the CRC); other modes XOR bytes."""
    if mode == "truncate":
        keep = max(0, nbytes - max(1, nbytes // 4))
        os.truncate(path, keep)
        return f"truncated to {keep}/{nbytes} bytes"
    with open(path, "r+b") as f:
        data = bytearray(f.read())
        desc = corrupt_buffer(data, min(nbytes, len(data)), mode, salt)
        f.seek(0)
        f.write(data)
    return desc
