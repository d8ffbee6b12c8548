"""Columnar Indexed Partition — the paper's footnote-2 alternative.

    "In our prototype we store data in row-wise format in the Indexed Batch
    RDD. However, this could seamlessly be changed to columnar formats. The
    decision is based on the type of workload the user needs to support."

This module builds that alternative so the tradeoff is measurable
(``benchmarks/bench_ablation_storage_format.py``): the same cTrie index and
backward-pointer chains, but data stored as numpy column chunks instead of
binary row batches.

* point lookups gather one value per column per row (no codec, but one
  numpy indexing call per column — comparable to row decode);
* full scans / projections read whole column arrays vectorized — the
  access pattern where the paper's row-wise prototype loses (Fig. 8,
  SQ5/SQ6) and this variant matches the columnar baseline cache;
* the paper's counter-argument also shows up: materializing *all columns
  of all rows* from column chunks is slower than streaming rows (CORES
  [42]'s cache-miss point).

MVCC works like the row store: snapshots share chunk objects and space is
reserved atomically. Vectorized scans additionally need *contiguous
visibility* (this version's rows are exactly chunk prefixes); divergent
siblings writing into a shared tail chunk break that, which is detected and
degrades scans to the chain walk (correct, slower).
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

import numpy as np

from repro.ctrie import CTrie
from repro.indexed.pointers import MAX_OFFSET, NULL_POINTER, pack
from repro.sql.columnar import ColumnBatch
from repro.sql.types import Schema, StringType
from repro.utils.hashing import hash32
from repro.utils.memory import deep_sizeof


class ColumnarChunk:
    """Fixed-capacity columnar slab: one numpy array per column plus the
    backward-pointer column; rows are claimed with an atomic reserve."""

    __slots__ = ("arrays", "capacity", "prev_ptr", "_lock", "_used")

    def __init__(self, schema: Schema, capacity: int) -> None:
        self.capacity = capacity
        self.arrays: dict[str, np.ndarray] = {}
        for field in schema.fields:
            dtype = field.dtype.numpy_dtype
            if dtype is object:
                self.arrays[field.name] = np.empty(capacity, dtype=object)
            else:
                self.arrays[field.name] = np.zeros(capacity, dtype=dtype)
        self.prev_ptr = np.full(capacity, NULL_POINTER, dtype=np.uint64)
        self._used = 0
        self._lock = threading.Lock()

    @property
    def used(self) -> int:
        return self._used

    def reserve(self, nrows: int) -> int | None:
        """Atomically claim ``nrows`` slots; returns the start index or None."""
        with self._lock:
            if self._used + nrows > self.capacity:
                return None
            start = self._used
            self._used += nrows
            return start

    @property
    def nbytes(self) -> int:
        total = int(self.prev_ptr.nbytes)
        for arr in self.arrays.values():
            total += int(arr.nbytes)
        return total


class ColumnarIndexedPartition:
    """Drop-in sibling of :class:`~repro.indexed.partition.IndexedPartition`
    with columnar storage (same lookup/append/snapshot contract)."""

    __slots__ = (
        "chunk_rows",
        "chunks",
        "contiguous",
        "ctrie",
        "hash_string_keys",
        "key_is_string",
        "key_ordinal",
        "row_count",
        "schema",
        "version",
        "_watermarks",
    )

    def __init__(
        self,
        schema: Schema,
        key_column: str,
        chunk_rows: int = 4096,
        version: int = 0,
        hash_string_keys: bool = True,
    ) -> None:
        if chunk_rows <= 0 or chunk_rows > MAX_OFFSET:
            raise ValueError(f"chunk_rows out of range: {chunk_rows}")
        self.schema = schema
        self.key_ordinal = schema.index_of(key_column)
        self.key_is_string = isinstance(schema.field(key_column).dtype, StringType)
        self.hash_string_keys = hash_string_keys
        self.chunk_rows = chunk_rows
        self.ctrie = CTrie()
        self.chunks: list[ColumnarChunk] = []
        #: Rows of each chunk visible to THIS version (prefix lengths).
        self._watermarks: list[int] = []
        #: True while this version's rows are exactly the chunk prefixes.
        self.contiguous = True
        self.version = version
        self.row_count = 0

    # -- keys ----------------------------------------------------------------

    def index_key(self, key: Any) -> Any:
        if self.key_is_string and self.hash_string_keys:
            return hash32(key)
        return key

    # -- writes ----------------------------------------------------------------

    def _reserve(self, nrows: int) -> tuple[int, int]:
        """Claim a contiguous run; returns (chunk_idx, start). May return a
        run shorter than requested — caller loops."""
        if self.chunks:
            chunk_idx = len(self.chunks) - 1
            chunk = self.chunks[chunk_idx]
            start = chunk.reserve(nrows)
            if start is not None:
                return chunk_idx, start
        chunk = ColumnarChunk(self.schema, self.chunk_rows)
        start = chunk.reserve(nrows)
        if start is None:
            raise ValueError(f"batch of {nrows} rows exceeds chunk_rows={self.chunk_rows}")
        self.chunks.append(chunk)
        self._watermarks.append(0)
        return len(self.chunks) - 1, start

    def insert_rows(self, rows: "list[tuple] | Iterator[tuple]") -> int:
        """Bulk append: columns written in slices, index updated per row."""
        rows = list(rows)
        if not rows:
            return 0
        names = self.schema.names()
        trie = self.ctrie
        key_ord = self.key_ordinal
        index_key = self.index_key
        pos = 0
        while pos < len(rows):
            take = min(len(rows) - pos, self.chunk_rows)
            # Claim as much of the tail chunk as fits, else a fresh chunk.
            chunk_idx, start = self._reserve(1)
            chunk = self.chunks[chunk_idx]
            with chunk._lock:
                extra = min(take - 1, chunk.capacity - chunk._used)
                chunk._used += extra
            end = start + 1 + extra
            batch = rows[pos : pos + (end - start)]
            # Columnar write: one slice assignment per column.
            cols = list(zip(*batch))
            for name, values in zip(names, cols):
                chunk.arrays[name][start:end] = values
            # Index update: per-row cTrie head swap + backward pointer.
            for i, row in enumerate(batch):
                ridx = start + i
                trie_key = index_key(row[key_ord])
                prev = trie.lookup(trie_key, NULL_POINTER)
                chunk.prev_ptr[ridx] = prev
                trie.insert(trie_key, pack(chunk_idx, ridx, 0))
            # Contiguity: this version must own exactly the prefix.
            if start != self._watermarks[chunk_idx]:
                self.contiguous = False
            self._watermarks[chunk_idx] = max(self._watermarks[chunk_idx], end)
            self.row_count += end - start
            pos += end - start
        return len(rows)

    def insert_row(self, row: tuple) -> None:
        self.insert_rows([row])

    # -- reads -----------------------------------------------------------------

    def _row_at(self, chunk_idx: int, ridx: int) -> tuple:
        chunk = self.chunks[chunk_idx]
        return tuple(chunk.arrays[f.name][ridx] for f in self.schema.fields)

    def _walk_chain(self, pointer: int) -> Iterator[tuple]:
        while pointer != NULL_POINTER:
            chunk_idx = (pointer >> 40) & 0xFFFFFF
            ridx = (pointer >> 14) & 0x3FFFFFF
            yield self._row_at(chunk_idx, ridx)
            pointer = int(self.chunks[chunk_idx].prev_ptr[ridx])

    def lookup(self, key: Any) -> list[tuple]:
        pointer = self.ctrie.lookup(self.index_key(key), NULL_POINTER)
        if pointer == NULL_POINTER:
            return []
        rows = self._walk_chain(pointer)
        if self.key_is_string and self.hash_string_keys:
            key_ord = self.key_ordinal
            return [r for r in rows if r[key_ord] == key]
        return list(rows)

    def lookup_many(self, keys: "Iterator[Any] | list[Any]") -> dict[Any, list[tuple]]:
        out: dict[Any, list[tuple]] = {}
        for key in keys:
            if key not in out:
                out[key] = self.lookup(key)
        return out

    def iter_rows(self) -> Iterator[tuple]:
        if self.contiguous:
            # Vectorized path: bulk-convert visible prefixes column-wise.
            for chunk_idx, chunk in enumerate(self.chunks):
                n = self._watermarks[chunk_idx]
                if n == 0:
                    continue
                pylists = [
                    chunk.arrays[f.name][:n].tolist() for f in self.schema.fields
                ]
                yield from zip(*pylists)
            return
        for _key, pointer in self.ctrie.items():
            yield from self._walk_chain(pointer)

    def scan_rows(self) -> list[tuple]:
        """Full scan as a list (same API as IndexedPartition.scan_rows);
        :meth:`iter_rows` already vectorizes when contiguous."""
        return list(self.iter_rows())

    def scan_columns(self, names: "list[str]") -> "list[ColumnBatch] | None":
        """One :class:`ColumnBatch` per chunk over the visible rows (array
        slices, no copy) — the contract of ``IndexedPartition.scan_columns``
        — or None when the version is non-contiguous (diverged sibling wrote
        into a shared chunk): callers then fall back to :meth:`iter_rows`."""
        if not self.contiguous:
            return None
        schema = self.schema.select(names)
        return [
            ColumnBatch(schema, {name: chunk.arrays[name][:n] for name in names}, n)
            for chunk, n in zip(self.chunks, self._watermarks)
            if n
        ]

    def contains_key(self, key: Any) -> bool:
        if self.key_is_string and self.hash_string_keys:
            return bool(self.lookup(key))
        return self.ctrie.contains(self.index_key(key))

    def num_keys(self) -> int:
        return len(self.ctrie)

    # -- MVCC -------------------------------------------------------------------

    def snapshot(self, new_version: int) -> "ColumnarIndexedPartition":
        child = object.__new__(ColumnarIndexedPartition)
        child.schema = self.schema
        child.key_ordinal = self.key_ordinal
        child.key_is_string = self.key_is_string
        child.hash_string_keys = self.hash_string_keys
        child.chunk_rows = self.chunk_rows
        child.ctrie = self.ctrie.snapshot()
        child.chunks = list(self.chunks)
        child._watermarks = list(self._watermarks)
        child.contiguous = self.contiguous
        child.version = new_version
        child.row_count = self.row_count
        return child

    # -- accounting ----------------------------------------------------------------

    def index_bytes(self) -> int:
        return deep_sizeof(self.ctrie)

    def storage_bytes(self) -> int:
        return sum(c.nbytes for c in self.chunks)

    @property
    def nbytes(self) -> int:
        return self.storage_bytes()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ColumnarIndexedPartition(v={self.version}, rows={self.row_count}, "
            f"chunks={len(self.chunks)}, contiguous={self.contiguous})"
        )
