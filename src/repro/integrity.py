"""End-to-end data integrity: the trust boundaries' shared vocabulary.

The paper's batches are "unsafe" off-heap byte buffers, and since the
spill and sharded-serve work those raw bytes travel through disk files
and replica copies. A flipped bit on any of those paths would previously
decode into a silently wrong answer. The checks themselves live on the
one row batch type (:class:`~repro.indexed.row_batch.RowBatch`): CRC32
*prefix marks* anchored at a trust-establishing moment (sealing a batch,
pinning a serve snapshot) and verified whenever the same bytes re-enter
across a boundary (pin, scrub), and a spill-region CRC checked on every
fault-in. The checks are always on. This module holds what the boundaries
share: the error type, the partition-level anchor and audit, and the chaos
damage patterns.

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

#: Damage patterns the corruption chaos can inject. All of them XOR real
#: bytes (or genuinely shorten a file), so an injected corruption is
#: *guaranteed* to change the prefix CRC — detection never depends on luck.
CORRUPTION_MODES = ("bit_flip", "truncate", "garble_header")

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


# -- partition-level anchoring and audit --------------------------------------------


def checkpoint_partition(partition) -> int:
    """Anchor prefix marks at the partition's visible watermarks.

    Returns the number of batches anchored. For non-contiguous MVCC
    versions the watermarks cover only the contiguous prefix of each batch.
    """
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
    own spill-region CRC check runs first and raises the same error type.
    """
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


def corrupt_file(path: str, nbytes: int, mode: str, salt: int = 0, offset: int = 0) -> str:
    """Damage the ``nbytes`` region at ``offset`` of an on-disk spill file,
    and nothing else in it. ``truncate`` genuinely shortens the file when the
    region ends it (detected by the length check before the CRC) and smashes
    the region's tail otherwise; other modes XOR bytes."""
    if mode == "truncate" and offset + nbytes == os.path.getsize(path):
        keep = max(0, nbytes - max(1, nbytes // 4))
        os.truncate(path, offset + keep)
        return f"truncated to {keep}/{nbytes} bytes"
    with open(path, "r+b") as f:
        f.seek(offset)
        data = bytearray(f.read(nbytes))
        desc = corrupt_buffer(data, len(data), mode, salt)
        f.seek(offset)
        f.write(data)
    return desc
