"""Pinned MVCC snapshots: the serving layer's read anchor.

A :class:`PinnedSnapshot` holds the *actual in-process*
:class:`~repro.indexed.partition.IndexedPartition` objects of one Indexed
DataFrame version, obtained through
:meth:`~repro.indexed.indexed_dataframe.IndexedDataFrame.materialize_partitions`
(i.e. through ``run_job``, so a partition lost to an executor failure is
rebuilt from lineage before the pin completes).

Why this is safe under concurrent ingest (Section III-E): a partition at
version V is an immutable view — its cTrie snapshot is persistent, and its
row batches are shared with child versions via *watermarks*: children
append into reserved, disjoint byte ranges past the parent's watermark, so
a reader of V never observes bytes it shouldn't. Holding the partition
objects also keeps them alive even if the block store evicts or spills the
blocks later: the pin, not the cache, owns the read path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.integrity import CorruptBlockError, audit_partition

if TYPE_CHECKING:  # pragma: no cover
    from repro.indexed.indexed_dataframe import IndexedDataFrame


class SnapshotValidationError(RuntimeError):
    """The materialized partitions do not form a consistent version."""


class PinnedSnapshot:
    """One pinned, immutable version of an Indexed DataFrame."""

    __slots__ = ("idf", "partitioner", "partitions", "version")

    def __init__(self, idf: "IndexedDataFrame", partitions: list[Any]) -> None:
        self.idf = idf
        self.version = idf.version
        self.partitions = partitions
        self.partitioner = idf.partitioner
        self._validate()

    @classmethod
    def pin(cls, idf: "IndexedDataFrame") -> "PinnedSnapshot":
        """Materialize every partition of ``idf`` and pin the version.

        Runs one job (serialized by the context's ``job_lock``); afterwards
        every lookup on this snapshot is an in-process cTrie search with no
        scheduler involvement at all.

        Pinning is a trust boundary (DESIGN.md §16): every partition's
        checksums are verified (or anchored, on first pin) before the
        snapshot is served. A mismatch quarantines the damaged blocks and
        re-materializes once from lineage — the repair itself is attributed
        by the cache manager's rebuild path, not double-counted here.
        """
        try:
            return cls(idf, idf.materialize_partitions())
        except CorruptBlockError as exc:
            context = idf.session.context
            context.registry.inc("corruption_detected_total", where="pin")
            context.quarantine_corrupt(exc)
            return cls(idf, idf.materialize_partitions())

    def _validate(self) -> None:
        if len(self.partitions) != self.idf.num_partitions:
            raise SnapshotValidationError(
                f"pinned {len(self.partitions)} partitions, "
                f"expected {self.idf.num_partitions}"
            )
        for split, part in enumerate(self.partitions):
            if part.version != self.version:
                raise SnapshotValidationError(
                    f"partition {split} is at version {part.version}, "
                    f"pin wants {self.version}"
                )
            audit_partition(part, where="pin")

    def lookup(self, key: Any) -> list[tuple]:
        """All rows with ``key`` at this version (the paper's ``getRows``,
        minus the job): hash to the owning partition, search its cTrie,
        walk the backward-pointer chain."""
        split = self.partitioner.partition(key)
        return self.partitions[split].lookup(key)

    def range_lookup(self, krange: Any) -> tuple[list[tuple], int]:
        """All rows whose key falls in ``krange`` at this version, plus the
        number of rows decoded. Keys are hash-partitioned, so the range
        spans every partition: each one seeks its ordered index (DESIGN.md
        §15) — no job, no scheduler, same as :meth:`lookup`."""
        rows: list[tuple] = []
        scanned = 0
        for part in self.partitions:
            part_rows, part_scanned = part.range_lookup(krange)
            rows.extend(part_rows)
            scanned += part_scanned
        return rows, scanned

    def row_count(self) -> int:
        return sum(p.row_count for p in self.partitions)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PinnedSnapshot({self.idf.name}, v={self.version}, "
            f"partitions={len(self.partitions)})"
        )
