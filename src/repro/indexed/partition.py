"""IndexedPartition: one partition of the Indexed Batch RDD (paper Fig. 3).

Combines the three per-partition structures:

1. ``ordered`` — the index (:mod:`repro.indexed.ordered_index`): key -> packed
   64-bit pointer to the *latest* row with that key, as a sealed array base
   under the cTrie (``ctrie``: the heads written since the last seal),
2. ``batches`` — binary row batches holding the encoded rows,
3. backward pointers — each encoded row's header points to the previous row
   with the same key, giving a per-key linked list.

Pointer semantics: our packed pointer's size field holds the size of the
record the pointer refers to (so a reader can slice it without first
parsing the header); the paper words it as "the size of the previous row
indexed on the same key", which is the same number seen from the successor
row's perspective.

String keys are hashed to 32-bit integers before entering the index
(Section IV-E); chain traversal re-checks the decoded key column so hash
collisions cannot surface wrong rows — this extra hash+verify work is why
Fig. 15's string-keyed queries (Q1, Q2) speed up less than integer ones.

MVCC: :meth:`snapshot` is O(1) — it shares the sealed base, the cTrie (via
its constant-time snapshot) and the batch objects; divergent children append
independently (atomic space reservation in shared tail batches, visibility
via each version's own index).
"""

from __future__ import annotations

import copy
from typing import Any, Iterator

import numpy as np

from repro.ctrie import CTrie
from repro.indexed.ordered_index import KeyRange, OrderedIndex
from repro.indexed.pointers import MAX_OFFSET, MAX_SIZE, NULL_POINTER, OFFSET_BITS, SIZE_BITS, pack
from repro.indexed.row_batch import RowBatch
from repro.indexed.row_codec import RowCodec
from repro.sql.columnar import ColumnBatch
from repro.sql.types import Schema, StringType
from repro.utils.hashing import hash32
from repro.utils.memory import deep_sizeof


class IndexedPartition:
    """One hash partition of an Indexed DataFrame."""

    __slots__ = (
        "batch_size",
        "batches",
        "codec",
        "contiguous",
        "data_bytes",
        "hashed",
        "key_ordinal",
        "ordered",
        "row_count",
        "schema",
        "version",
        "_watermarks",
    )

    def __init__(
        self,
        schema: Schema,
        key_column: str,
        batch_size: int = 64 * 1024,
        max_row_size: int = 1024,
        version: int = 0,
        hash_string_keys: bool = True,
        ordered_compact_threshold: int = 512,
    ) -> None:
        self.schema = schema
        self.codec = RowCodec(schema, max_row_size=max_row_size)
        self.key_ordinal = schema.index_of(key_column)
        key_type = schema.field(key_column).dtype
        #: Trie keys are 32-bit hashes of the (string) key values.
        self.hashed = hash_string_keys and isinstance(key_type, StringType)
        self.batch_size = batch_size
        # ``ordered_compact_threshold`` distinct keys seal the index's delta
        # into its array base; 0 never seals (DESIGN.md §15).
        self.ordered = OrderedIndex(key_type.numpy_dtype, self.hashed, ordered_compact_threshold)
        self.batches: list[RowBatch] = []
        self.version = version
        self.row_count = 0
        self.data_bytes = 0
        # Sequential-scan validity: every byte below a batch's watermark
        # belongs to a row visible in *this* version. A diverged sibling
        # writing into a shared tail batch breaks contiguity, and full scans
        # fall back to the chain walk.
        self.contiguous = True
        self._watermarks: list[int] = []

    # -- key handling -------------------------------------------------------------

    def index_key(self, key: Any) -> Any:
        """The trie key for a column value (strings -> 32-bit hash)."""
        return hash32(key) if self.hashed else key

    @property
    def ctrie(self) -> CTrie:
        """The index's delta: the heads written since its last seal."""
        return self.ordered.delta

    # -- writes ----------------------------------------------------------------------

    def _reserve(self, size: int, count: int) -> tuple[int, int, int]:
        """Claim room for up to ``count`` records of ``size`` bytes in the
        tail batch, or else in a fresh one: ``(batch, offset, records)``."""
        if self.batches:
            tail = self.batches[-1]
            # A spilled tail (full spill, or a snapshot sharing one) faults
            # back in before taking writes; the write then invalidates the
            # on-disk copy so a re-spill can never resurrect stale bytes.
            if not getattr(tail, "resident", True):
                tail.ensure_resident()
            k = min(count, (tail.capacity - tail.used) // size)
            offset = tail.reserve(k * size) if k else None
            if offset is not None:
                return len(self.batches) - 1, offset, k
        if size > self.batch_size:
            raise ValueError(f"encoded row ({size} B) larger than batch size ({self.batch_size} B)")
        if self.batches:
            # Opening a fresh tail seals the previous one for this version:
            # anchor its content CRC at our watermark (integrity boundary
            # verification and the serve scrubber check against this mark).
            sealed = self.batches[-1]
            checkpoint = getattr(sealed, "checkpoint", None)
            idx = len(self.batches) - 1
            if checkpoint is not None and idx < len(self._watermarks) and self._watermarks[idx]:
                checkpoint(self._watermarks[idx])
        batch = RowBatch(self.batch_size)
        self.batches.append(batch)
        k = min(count, self.batch_size // size)
        return len(self.batches) - 1, batch.reserve(k * size), k

    def _write(self, batch_idx: int, offset: int, data: bytes) -> None:
        self.batches[batch_idx].write(offset, data)
        self._note_write(batch_idx, offset, len(data))

    def _note_write(self, batch_idx: int, offset: int, size: int) -> None:
        """Advance the scan watermark, or mark the version non-contiguous
        when a diverged sibling claimed space in between."""
        wm = self._watermarks
        while batch_idx >= len(wm):
            wm.append(0)
        if offset == wm[batch_idx]:
            wm[batch_idx] = offset + size
        else:
            self.contiguous = False

    def insert_row(self, row: tuple) -> None:
        """Append one row: a one-row :meth:`insert_rows`."""
        self.insert_rows([row])

    def insert_rows(self, rows: "Iterator[tuple] | list[tuple]") -> int:
        """The one write path, a batch at a time; returns the rows inserted.

        Rows are placed in arrival order (a first array build: in key order,
        :meth:`_insert_records`), the index is read once (one prior
        head per *distinct* key) and its heads are published once — also
        after an error part-way (an oversized row): every placed row stays
        reachable. Two layouts of the same bytes (DESIGN.md §5): a batch the
        codec takes as one structured array (:meth:`RowCodec.encode_records`:
        string-free, no NULL, nothing coerced) is placed a chunk per row
        batch, its pointers arithmetic and its chains threaded by one stable
        sort; any other is encoded and placed row by row, chains through a dict.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        records = self.codec.encode_records(rows)
        if records is not None:
            return self._insert_records(records)
        key_ord = self.key_ordinal
        keys = [row[key_ord] for row in rows]
        trie_keys = [hash32(key) for key in keys] if self.hashed else keys
        prior = self.ordered.heads(trie_keys)
        heads: dict[Any, int] = {}
        encode = self.codec.encode
        reserve, write = self._reserve, self._write
        n = nbytes = 0
        try:
            for row, trie_key in zip(rows, trie_keys):
                prev_ptr = heads.get(trie_key)
                encoded = encode(row, prior[trie_key] if prev_ptr is None else prev_ptr)
                batch_idx, offset, _ = reserve(len(encoded), 1)
                write(batch_idx, offset, encoded)
                heads[trie_key] = pack(batch_idx, offset, len(encoded))
                nbytes += len(encoded)
                n += 1
        finally:
            if self.hashed:
                # A used hash proves nothing about the key value: ask the chain.
                new_keys = [
                    key
                    for key, trie_key in dict(zip(keys[:n], trie_keys)).items()
                    if not self._chain(key, prior[trie_key])
                ]
            else:
                new_keys = [key for key in heads if prior[key] == NULL_POINTER]
            self.ordered.publish(heads, new_keys)
            self.row_count += n
            self.data_bytes += nbytes
        return n

    def _insert_records(self, records: np.ndarray) -> int:
        """:meth:`insert_rows`' array layout: the rows as one structured array.

        Into a partition with no batches the records are placed in key order:
        each key's rows are one run of records ending at its head, and the
        base this build seals says so (DESIGN.md §15, Runs). Any later batch
        is placed in arrival order."""
        n, size = len(records), records.itemsize
        keys = records[f"f{self.key_ordinal}"]
        # One stable sort groups each key's rows, in arrival order: a row's
        # chain predecessor is the row before it in its group, or for the
        # group's first row the key's prior head.
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
        firsts = order[starts]
        distinct = ranked[starts].tolist()
        prior = self.ordered.heads(distinct)
        prev = np.empty(n, np.intp)
        prev[order[1:]] = order[:-1]
        prev[firsts] = -1
        link = np.full(n, NULL_POINTER, np.uint64)
        link[firsts] = np.fromiter(map(prior.__getitem__, distinct), np.uint64, len(distinct))
        runs = not self.batches
        ptrs = np.empty(n, np.uint64)
        stride = pack(0, size, 0)
        done = 0
        try:
            while done < n:
                batch_idx, offset, k = self._reserve(size, n - done)
                pack(batch_idx, offset + (k - 1) * size, size)  # the chunk's range check
                # The rows placed next: the chunk's stretch of key order, or of arrival.
                chunk = order[done : done + k] if runs else slice(done, done + k)
                ptrs[chunk] = np.arange(k, dtype=np.uint64) * np.uint64(stride)
                ptrs[chunk] += np.uint64(pack(batch_idx, offset, size))
                before = prev[chunk]
                block = records[chunk]  # a copy in key order, a view in arrival order
                block["ptr"] = np.where(before >= 0, ptrs[before], link[chunk])
                self._write(batch_idx, offset, block.tobytes())
                done += k
        finally:
            # A key's head is its last placed row; keys go in first-arrival order.
            placed = np.add.reduceat((np.arange(n) if runs else order) < done, starts, dtype=np.intp)
            keep = np.argsort(firsts)
            keep = keep[placed[keep] > 0]
            last = order[starts[keep] + placed[keep] - 1]
            heads = dict(zip(ranked[starts[keep]].tolist(), ptrs[last].tolist()))
            new_keys = [key for key in heads if prior[key] == NULL_POINTER]
            self.ordered.publish(heads, new_keys, runs=runs)
            self.row_count += done
            self.data_bytes += done * size
        return done

    # -- reads ------------------------------------------------------------------------

    def _chain(self, key: Any, pointer: int) -> list[tuple]:
        """The rows of ``key`` on the chain under ``pointer``, newest first (one
        compiled :meth:`RowCodec.decode_chain` call per chain, not one per row)."""
        if pointer == NULL_POINTER:
            return []
        rows = self.codec.decode_chain(self.batches, pointer)
        if self.hashed:
            # Hash collisions: verify the actual key column.
            key_ord = self.key_ordinal
            return [r for r in rows if r[key_ord] == key]
        return rows

    def _heads(self, keys: list) -> "Iterator[tuple[Any, int]]":
        """``(key, chain head)`` per key, the heads fetched in one batch."""
        trie_keys = [hash32(key) for key in keys] if self.hashed else keys
        heads = self.ordered.heads(trie_keys)
        return zip(keys, [heads[trie_key] for trie_key in trie_keys])

    def lookup(self, key: Any) -> list[tuple]:
        """All rows with this key, newest first (index search + chain walk)."""
        return self._chain(key, self.ordered.head(self.index_key(key)))

    def lookup_many(self, keys: "Iterator[Any] | list[Any]") -> dict[Any, list[tuple]]:
        """Batch lookup: each distinct key's rows, newest first, from one
        :meth:`match_columns` — all heads from one index search, each run or
        chain read exactly once, so duplicate probe keys (common under
        power-law workloads) reuse one read."""
        keys = list(dict.fromkeys(keys))
        columns, counts = self.match_columns(keys)
        rows = _rows(columns)
        ends = np.cumsum(counts).tolist()
        return {key: rows[end - n : end] for key, end, n in zip(keys, ends, counts.tolist())}

    def match_columns(self, keys: list) -> "tuple[list[np.ndarray], np.ndarray]":
        """The rows of each of ``keys`` (distinct), newest first and key after
        key, as one array per schema field, and each key's row count.

        A run (:meth:`_locate`) is gathered from structured views of the
        batches (:meth:`RowCodec.gather`), no row decoded; every other key
        walks its chain, and its rows are spliced in at its place."""
        lo, hi, walk = self._locate(keys)
        counts = hi - lo
        total = int(counts.sum())
        if total:
            # Each run newest first: records hi, hi - 1, ..., lo + 1.
            numbers = np.repeat(hi + np.cumsum(counts) - counts, counts) - np.arange(total)
            records = self.codec.gather(self.batches, numbers, self.batch_size)
            columns = [records[name] for name in records.dtype.names]
        else:
            columns = [np.empty(0, object)] * len(self.schema)
        if not walk:
            return columns, counts
        chains = {key: self._chain(key, head) for key, head in walk.items()}
        walked = np.fromiter(map(chains.__contains__, keys), bool, len(keys))
        more = np.zeros_like(counts)
        more[walked] = [len(chain) for chain in chains.values()]
        # Where each key's rows start among the runs' rows then the walks',
        # and where they start in the answer.
        source = np.where(walked, total + np.cumsum(more) - more, np.cumsum(counts) - counts)
        counts += more
        take = np.repeat(source - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        extra = list(zip(*(row for chain in chains.values() for row in chain)))
        return [
            np.concatenate([column.astype(object), np.fromiter(values, object, len(values))])[take]
            for column, values in zip(columns, extra or [()] * len(columns))
        ], counts

    def _locate(self, keys: list) -> "tuple[np.ndarray, np.ndarray, dict[Any, int]]":
        """Where the rows of each of ``keys`` (distinct) are read: base key
        ``i`` of a base laid out in key order is the run of record numbers
        ``(lo, hi]`` — ``hi`` its head's (:meth:`_record_numbers`), ``lo``
        key ``i - 1``'s — and every other key found maps to the chain head it
        is walked from, in ``keys`` order (its ``lo == hi``, as an absent key's)."""
        lo = np.zeros(len(keys), np.intp)
        hi = np.zeros(len(keys), np.intp)
        ordered = self.ordered
        if ordered.base.runs:
            walk = ordered.delta_heads(keys)  # the keys the delta shadows
            base = ordered.base  # read after the delta, as every reader does
            if base.runs:  # not sealed over in between
                pos = base.find(keys)
                if walk:
                    pos[[i for i, key in enumerate(keys) if key in walk]] = -1
                hit = np.flatnonzero(pos >= 0)
                at = pos[hit]
                hi[hit] = self._record_numbers(base.heads[at])
                lo[hit] = np.where(at > 0, self._record_numbers(base.heads[at - 1]), -1)
                return lo, hi, walk
        return lo, hi, {key: head for key, head in self._heads(keys) if head != NULL_POINTER}

    def _record_numbers(self, pointers: np.ndarray) -> np.ndarray:
        """``batch × (batch_size // size) + offset // size`` of each packed
        pointer: the place of its record in a build of equal-sized records
        laid from the first byte of batch 0 on (DESIGN.md §15, Runs)."""
        batch = (pointers >> np.uint64(OFFSET_BITS + SIZE_BITS)).astype(np.intp)
        offset = ((pointers >> np.uint64(SIZE_BITS)) & np.uint64(MAX_OFFSET)).astype(np.intp)
        size = (pointers & np.uint64(MAX_SIZE)).astype(np.intp)
        return batch * (self.batch_size // size) + offset // size

    def iter_rows(self) -> Iterator[tuple]:
        """Full scan: walk every key's chain (row-wise decode: the cost that
        makes projections slower than the columnar baseline, Fig. 8)."""
        decode_chain = self.codec.decode_chain
        batches = self.batches
        for _key, pointer in self.ordered.items():
            yield from decode_chain(batches, pointer)

    def scan_rows(self) -> list[tuple]:
        """Full scan, batch-at-a-time: decode each row batch in one compiled
        pass (:meth:`RowCodec.decode_all`) when this version is contiguous —
        every byte below the watermarks is a visible row. Non-contiguous
        versions (a diverged sibling wrote into a shared batch) fall back to
        the per-chain walk. Row *set* equals ``iter_rows``; order is
        placement order: a first array build's rows in key order (each key's
        oldest first), every later batch's in arrival order.
        """
        if not self.contiguous:
            return list(self.iter_rows())
        decode_all = self.codec.decode_all
        out: list[tuple] = []
        for batch, watermark in zip(self.batches, self._watermarks):
            if watermark:
                out.extend(decode_all(batch.buf, watermark))
        return out

    def scan_columns(self, names: "list[str]") -> "list[ColumnBatch] | None":
        """Full scan, column-major: one :class:`ColumnBatch` per row batch,
        viewing the batch bytes below this version's watermark in place
        (:meth:`RowCodec.column_batch`; nothing is stored — the views live as
        long as the caller keeps them). None when the version is
        non-contiguous or a batch cannot be viewed (a NULL, a short record):
        the caller then takes :meth:`scan_rows`, which answers the same.
        """
        if not self.contiguous:
            return None
        column_batch = self.codec.column_batch
        out: list[ColumnBatch] = []
        for batch, watermark in zip(self.batches, self._watermarks):
            if watermark:
                columns = column_batch(batch.buf, watermark, names)
                if columns is None:
                    return None
                out.append(columns)
        return out

    def visible_watermarks(self) -> list[int]:
        """Per-batch byte counts visible to this version's sequential scans."""
        return self._watermarks

    def range_lookup(self, krange: KeyRange) -> tuple[list[tuple], int]:
        """Rows whose key falls in ``krange``; returns ``(rows, scanned)``.

        Enumerate candidate keys from the index in sorted order; under a base
        laid out in key order read them as :meth:`match_columns` does, under
        any other fetch their heads in one batch and walk each chain as
        :meth:`lookup` does — string hash collisions filtered the same way.
        ``scanned`` counts decoded rows (chain lengths, including
        collision-filtered ones), the number EXPLAIN ANALYZE compares against
        a full scan's ``row_count``.
        """
        keys = self.ordered.range_keys(krange)
        if self.ordered.base.runs:
            rows = _rows(self.match_columns(keys)[0])
            return rows, len(rows)
        key_ord = self.key_ordinal
        decode_chain = self.codec.decode_chain
        batches = self.batches
        rows = []
        scanned = 0
        for key, pointer in self._heads(keys):
            if pointer == NULL_POINTER:
                continue  # a key of an in-flight batch, not yet published
            chain = decode_chain(batches, pointer)
            scanned += len(chain)
            if self.hashed:
                chain = [r for r in chain if r[key_ord] == key]
            rows.extend(chain)
        return rows, scanned

    def contains_key(self, key: Any) -> bool:
        return bool(self.lookup(key))

    def num_keys(self) -> int:
        """Distinct key values, O(1)."""
        return len(self.ordered)

    # -- MVCC ---------------------------------------------------------------------------

    def snapshot(self, new_version: int) -> "IndexedPartition":
        """O(1) child: shared index base and batches, cTrie snapshot of the delta."""
        child = copy.copy(self)  # schema, codec, counters and flags carry over
        child.ordered = self.ordered.snapshot()
        child.batches = list(self.batches)  # share RowBatch objects
        child.version = new_version
        child._watermarks = list(self._watermarks)
        return child

    # -- accounting (Fig. 11) --------------------------------------------------------------

    def parts(self) -> list:
        """What a memory meter sizes apart from this object (DESIGN.md §10):
        the pieces versions and partitions share — row batches, the sealed
        index arrays, the codec, the schema. The rest (this object, its
        lists, the cTrie delta) is the partition's shell."""
        return [*self.batches, self.ordered.base, self.codec, self.schema]

    def meter_state(self) -> tuple:
        """What the shell's metered size depends on, and which parts it has.
        A delta holding keys changes under reads (path renewal after a
        snapshot), so it never compares equal; an empty one changes only by
        a root swap."""
        ordered = self.ordered
        delta = object() if ordered.delta_writes else ordered.delta.rdcss_read_root()
        return (delta, ordered.fresh, ordered.base, self.row_count, *self._watermarks,
                *self.batches)

    def index_bytes(self) -> int:
        """Deep size of every index structure held: base arrays, delta trie,
        fresh keys (the JAMM measurement of Fig. 11)."""
        return deep_sizeof(self.ordered)

    def storage_bytes(self) -> int:
        """Bytes of row data visible in this version."""
        return self.data_bytes

    def allocated_bytes(self) -> int:
        """Bytes allocated in batches (capacity, incl. slack)."""
        return sum(b.capacity for b in self.batches)

    def resident_batch_bytes(self) -> int:
        """Batch capacity currently held in memory (spilled batches excluded)."""
        return sum(b.capacity for b in self.batches if getattr(b, "resident", True))

    def spill_faults(self) -> int:
        """Total disk fault-ins paid by this partition's spillable batches."""
        return sum(getattr(b, "faults", 0) for b in self.batches)

    @property
    def nbytes(self) -> int:
        """Approximate transferable size (used when a remote executor reads
        this partition as a cached block)."""
        return self.data_bytes + 64 * max(1, self.row_count)

    def memory_overhead(self) -> float:
        """index bytes / data bytes — the paper reports < 2% at scale."""
        return self.index_bytes() / max(1, self.data_bytes)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"IndexedPartition(v={self.version}, rows={self.row_count}, "
            f"batches={len(self.batches)}, keys={self.num_keys()})"
        )


def _rows(columns: "list[np.ndarray]") -> list[tuple]:
    """Field columns back to row tuples."""
    return list(zip(*(column.tolist() for column in columns)))
