"""IndexedPartition: one partition of the Indexed Batch RDD (paper Fig. 3).

Combines the three per-partition structures:

1. ``ordered`` — the index (:mod:`repro.indexed.ordered_index`): key -> packed
   64-bit pointer to the *latest* row with that key, as a sealed array base
   under a delta (``ctrie``: the heads written since the last seal),
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

MVCC: :meth:`snapshot` shares the sealed base and the batch objects and
snapshots the delta (a copy of fewer keys than the seal threshold, or the
cTrie's constant-time snapshot at threshold 0); divergent children append
independently (atomic space reservation in shared tail batches, visibility
via each version's own index). A shared batch spills and faults back in as
one object, for every version holding it.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from typing import Any, Iterator, Sequence

import numpy as np

from repro.ctrie import CTrie
from repro.indexed.ordered_index import KeyRange, OrderedIndex, WriteBuffer
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
        ordered_compact_threshold: int = 512,
    ) -> None:
        self.schema = schema
        self.codec = RowCodec(schema, max_row_size=max_row_size)
        self.key_ordinal = schema.index_of(key_column)
        key_type = schema.field(key_column).dtype
        #: Trie keys are 32-bit hashes of the (string) key values.
        self.hashed = isinstance(key_type, StringType)
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
    def ctrie(self) -> "CTrie | WriteBuffer":
        """The index's delta: the heads written since its last seal. A
        :class:`WriteBuffer` under a seal threshold; a cTrie only at
        threshold 0, where the delta is the paper's whole index."""
        return self.ordered.delta

    # -- writes ----------------------------------------------------------------------

    def _reserve(self, ends: "Sequence[int]") -> tuple[int, int, int]:
        """Claim room for the longest run of the next records that fits in the
        tail batch, or else in a fresh one: ``(batch, offset, records)``.
        ``ends[i]`` is where record ``i`` ends, counted from the first's start."""

        def fit(room: int) -> tuple[int, int]:
            k = bisect_right(ends, room)
            return k, int(ends[k - 1]) if k else 0

        if self.batches:
            tail = self.batches[-1]
            # A spilled tail (a full spill, seen by every version sharing it)
            # faults back in before taking writes; the write then invalidates
            # the file so a re-spill can never resurrect stale bytes.
            tail.ensure_resident()
            k, nbytes = fit(tail.capacity - tail.used)
            offset = tail.reserve(nbytes) if k else None
            if offset is not None:
                return len(self.batches) - 1, offset, k
        if ends[0] > self.batch_size:
            raise ValueError(f"encoded row ({ends[0]} B) larger than batch size ({self.batch_size} B)")
        if self.batches:
            # Opening a fresh tail seals the previous one for this version:
            # anchor its content CRC at our watermark (integrity boundary
            # verification and the serve scrubber check against this mark).
            idx = len(self.batches) - 1
            if idx < len(self._watermarks) and self._watermarks[idx]:
                self.batches[idx].checkpoint(self._watermarks[idx])
        batch = RowBatch(self.batch_size)
        self.batches.append(batch)
        k, nbytes = fit(self.batch_size)
        return len(self.batches) - 1, batch.reserve(nbytes), k

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

        Rows are placed in arrival order (a first array build of equal-sized
        records: in key order, :meth:`_insert_records`), the index is read
        once (one prior head per *distinct* key) and its heads are published
        once — also after an error part-way (an oversized row): every placed
        row stays reachable. Two layouts of the same bytes (DESIGN.md §5): a
        batch the codec takes as arrays (:meth:`RowCodec.encode_records`: no
        NULL, nothing coerced, no record over the size limit) is placed a
        chunk per row batch, its pointers arithmetic and its chains threaded
        by one stable sort; any other is encoded and placed row by row,
        chains through a dict.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        placed = self._insert_records(rows)
        if placed is not None:
            return placed
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
                batch_idx, offset, _ = reserve((len(encoded),))
                write(batch_idx, offset, encoded)
                heads[trie_key] = pack(batch_idx, offset, len(encoded))
                nbytes += len(encoded)
                n += 1
        finally:
            self._publish(heads, prior, n, nbytes, dict(zip(keys[:n], trie_keys)) if self.hashed else None)
        return n

    def _insert_records(self, rows: list) -> "int | None":
        """:meth:`insert_rows`' array layout, or None when the codec refuses
        ``rows``: equal-sized records as one structured array, records with
        strings as ``(data, sizes)`` (:meth:`RowCodec.encode_records`).

        Records are packed greedily, a chunk per row batch, as
        :meth:`_reserve` packs rows one by one, in arrival order. Equal-sized
        records into a partition with no batches are placed in key order
        instead: each key's rows are one run of records ending at its head,
        and the base this build seals says so (DESIGN.md §15, Runs). The
        placement's arrays are gone before the index work starts."""
        publish: list = []
        try:
            return self._place_records(rows, publish)
        finally:
            if publish:
                self._publish(*publish)

    def _place_records(self, rows: list, publish: list) -> "int | None":
        """:meth:`_insert_records`' placement; leaves the arguments of its
        :meth:`_publish` in ``publish``, also after an error part-way."""
        records = self.codec.encode_records(rows)
        if records is None:
            return None
        runs = not isinstance(records, tuple) and not self.batches
        if isinstance(records, tuple):
            data, sizes = records
            keys = np.fromiter((row[self.key_ordinal] for row in rows), object, len(rows))
            dtype = np.int64 if self.hashed else self.schema.fields[self.key_ordinal].dtype.numpy_dtype
            trie = np.fromiter(map(hash32, keys) if self.hashed else keys, dtype, len(keys))
        else:
            field = f"f{self.key_ordinal}"
            if runs:  # placed in key order, which is arrival order from here on
                records = records[np.argsort(records[field], kind="stable")]
            keys = trie = records[field]
            data, sizes = records.view(np.uint8), np.full(len(records), records.itemsize)
        # One stable sort groups each key's rows, in arrival order: a row's
        # chain predecessor is the row before it in its group, or for the
        # group's first row the key's prior head.
        n = len(trie)
        order = np.argsort(trie, kind="stable")
        ranked = trie[order]
        starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
        firsts = order[starts]
        # Key values of the rows themselves (a hashed index: the trie keys).
        distinct = (ranked[starts] if self.hashed else keys[firsts]).tolist()
        del ranked
        prior = self.ordered.heads(distinct)
        prev = np.empty(n, np.intp)
        prev[order[1:]] = order[:-1]
        prev[firsts] = -1
        link = np.full(n, NULL_POINTER, np.uint64)
        link[firsts] = np.fromiter(map(prior.__getitem__, distinct), np.uint64, len(distinct))
        ptrs = np.empty(n, np.uint64)
        ends = np.cumsum(sizes)
        span = self.batch_size // int(sizes.min()) + 1  # more records than fit in a batch
        done = 0
        try:
            while done < n:
                first = int(ends[done] - sizes[done])  # where record ``done`` starts in ``data``
                room = ends[done : done + span] - first
                batch_idx, offset, k = self._reserve(room)
                chunk = slice(done, done + k)
                at = (room[:k] - sizes[chunk]).astype(np.uint64)  # each record's start in the chunk
                pack(batch_idx, offset + int(at[-1]), int(sizes[chunk].max()))  # the chunk's range check
                ptrs[chunk] = at * np.uint64(pack(0, 1, 0)) + sizes[chunk].astype(np.uint64)
                ptrs[chunk] += np.uint64(pack(batch_idx, offset, 0))
                before = prev[chunk]
                links = np.where(before >= 0, ptrs[before], link[chunk]).astype("<u8")
                data[(first + at.astype(np.intp))[:, None] + np.arange(8)] = links.view(np.uint8).reshape(k, 8)
                self._write(batch_idx, offset, data[first : first + int(room[k - 1])].data)
                done += k
        finally:
            nbytes = int(ends[done - 1]) if done else 0
            # A key's head is its last placed row; keys go in first-arrival order.
            placed = np.add.reduceat(order < done, starts, dtype=np.intp)
            keep = np.argsort(firsts)
            keep = keep[placed[keep] > 0]
            last = ptrs[order[starts[keep] + placed[keep] - 1]].tolist()
            # Only the heads are built from here on: free the rest first.
            del records, data, sizes, ends, prev, link, order, starts, firsts, ptrs, placed
            heads = dict(zip(np.array(distinct, object)[keep], last))
            publish += heads, prior, done, nbytes, dict(zip(keys[:done], trie)) if self.hashed else None, runs
        return done

    def _publish(
        self, heads: dict, prior: dict, n: int, nbytes: int, written: "dict | None" = None, runs: bool = False
    ) -> None:
        """Make ``n`` placed rows of ``nbytes`` visible: their chain ``heads``,
        and the key values no earlier row carried — a hashed index's are
        ``written`` (key value -> trie key): a used hash proves nothing about
        the key value, so its chain is asked."""
        if self.hashed:
            counts = self._walk(list(written), [prior[t] for t in written.values()])[1]
            new_keys = [key for key, count in zip(written, counts) if not count]
        else:
            new_keys = [key for key in heads if prior[key] == NULL_POINTER]
        self.ordered.publish(heads, new_keys, runs=runs)
        self.row_count += n
        self.data_bytes += nbytes

    # -- reads ------------------------------------------------------------------------

    def _walk(self, keys: list, pointers: list) -> "tuple[list[tuple], list[int], int]":
        """The rows of each of ``keys`` on the chain under its pointer, newest
        first and key after key, each key's row count, and the rows decoded:
        every chain in one :meth:`RowCodec.decode_chains` call. A hashed
        key's chain also holds the rows of keys with its hash: they are
        decoded, counted in the third value, and dropped."""
        rows, counts = self.codec.decode_chains(self.batches, pointers)
        scanned = len(rows)
        if self.hashed and rows:
            key_ord, kept, at = self.key_ordinal, [], 0
            for i, (key, n) in enumerate(zip(keys, counts)):
                chain = [row for row in rows[at : at + n] if row[key_ord] == key]
                kept += chain
                counts[i], at = len(chain), at + n
            rows = kept
        return rows, counts, scanned

    def lookup(self, key: Any) -> list[tuple]:
        """All rows with this key, newest first (index search + chain walk)."""
        head = self.ordered.head(self.index_key(key))
        if head == NULL_POINTER:
            return []
        if self.hashed:
            return self._walk((key,), (head,))[0]
        return self.codec.decode_chains(self.batches, (head,))[0]

    def lookup_many(self, keys: "Iterator[Any] | list[Any]") -> dict[Any, list[tuple]]:
        """Batch lookup: each distinct key's rows, newest first, from one
        :meth:`match_columns` — all heads from one index search, each run or
        chain read exactly once, so duplicate probe keys (common under
        power-law workloads) reuse one read."""
        keys = list(dict.fromkeys(keys))
        columns, counts, _source = self.match_columns(keys)
        rows = _rows(columns)
        ends = np.cumsum(counts).tolist()
        return {key: rows[end - n : end] for key, end, n in zip(keys, ends, counts.tolist())}

    def match_columns(self, keys: list) -> "tuple[list[np.ndarray], np.ndarray, str]":
        """The rows of each of ``keys`` (distinct), newest first and key after
        key, as one array per schema field, each key's row count, and the
        read's source for ``indexed_key_reads_total{source}``.

        A run (:meth:`_locate`) is gathered from the batches
        (:meth:`RowCodec.gather`), no row decoded; every other key walks its
        chain, and its rows are spliced in at its place. The source is
        ``walk`` if any key was walked, else ``run``."""
        lo, hi, walk = self._locate(keys)
        source = "walk" if walk or not self.ordered.base.runs else "run"
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
            return columns, counts, source
        walked_rows, walked_counts, _ = self._walk(list(walk), list(walk.values()))
        walked = np.fromiter(map(walk.__contains__, keys), bool, len(keys))
        more = np.zeros_like(counts)
        more[walked] = walked_counts
        # Where each key's rows start among the runs' rows then the walks',
        # and where they start in the answer.
        start = np.where(walked, total + np.cumsum(more) - more, np.cumsum(counts) - counts)
        counts += more
        take = np.repeat(start - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        extra = list(zip(*walked_rows))
        return [
            np.concatenate([column.astype(object), np.fromiter(values, object, len(values))])[take]
            for column, values in zip(columns, extra or [()] * len(columns))
        ], counts, source

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
                ends = self._record_numbers(base.heads[np.concatenate((at, at - 1))])
                hi[hit] = ends[: len(at)]
                lo[hit] = np.where(at > 0, ends[len(at) :], -1)
                return lo, hi, walk
        trie_keys = [hash32(key) for key in keys] if self.hashed else keys
        heads = ordered.heads(trie_keys)
        walk = {key: heads[trie_key] for key, trie_key in zip(keys, trie_keys)}
        return lo, hi, {key: head for key, head in walk.items() if head != NULL_POINTER}

    def _span(self, base: Any, i: int, j: int) -> list[tuple]:
        """The rows of keys ``i .. j - 1`` of a key-ordered base, each key's newest first:
        records ``r(heads[i - 1]) + 1 … r(heads[j - 1])``, each run reversed."""
        if i >= j:
            return []
        ends = self._record_numbers(base.heads[max(i - 1, 0) : j])
        ends = ends if i else np.concatenate(([-1], ends))
        first, last = int(ends[0]) + 1, int(ends[-1]) + 1
        records = self.codec.gather(self.batches, range(first, last), self.batch_size)
        if last - first > j - i:  # some key has older rows: reverse each run
            # Each key's newest row's place in the span plus its first row's in the answer.
            newest = ends[1:] + ends[:-1] - 2 * first + 1
            records = records[np.repeat(newest, ends[1:] - ends[:-1]) - np.arange(last - first)]
        return _rows([records[name] for name in records.dtype.names])

    def _record_numbers(self, pointers: np.ndarray) -> np.ndarray:
        """``batch × (batch_size // size) + offset // size`` of each packed
        pointer: the place of its record in a build of equal-sized records
        laid from the first byte of batch 0 on (DESIGN.md §15, Runs)."""
        batch, offset, size = _fields(pointers)
        return batch * (self.batch_size // size) + offset // size

    def _index_starts(self) -> "dict[int, np.ndarray]":
        """The record starts of each batch this version's index pointers tile
        (DESIGN.md §18): sorted, a batch's pointers start at offset 0, each
        record ends where the next starts and the last at the watermark.
        Every pointer is a real record of this version, so records that tile
        the visible bytes are all of them. Any other batch (a key's older
        row: duplicates, hash collisions, a seal over appends; a cTrie delta)
        is absent, and its starts are walked."""
        ordered = self.ordered
        delta = ordered.delta  # read before the base, as every reader does
        if not isinstance(delta, WriteBuffer):
            return {}
        delta_heads = np.fromiter(delta.values(), np.uint64, len(delta))
        pointers = np.sort(np.concatenate([delta_heads, ordered.base.heads]))
        batch, offset, size = _fields(pointers)
        end = offset + size
        bounds = np.flatnonzero(np.diff(batch, prepend=-1, append=-1)).tolist()
        out: dict[int, np.ndarray] = {}
        for lo, hi in zip(bounds, bounds[1:]):
            b, starts = int(batch[lo]), offset[lo:hi]
            if (
                starts[0] == 0
                and end[hi - 1] == self._watermarks[b]
                and (starts[1:] == end[lo : hi - 1]).all()
            ):
                out[b] = starts
        return out

    def iter_rows(self) -> Iterator[tuple]:
        """Full scan: walk every key's chain, all in one kernel call (row-wise
        decode: the cost that makes projections slower than the columnar
        baseline, Fig. 8)."""
        pointers = [pointer for _key, pointer in self.ordered.items()]
        return iter(self.codec.decode_chains(self.batches, pointers)[0])

    def scan_rows(self) -> list[tuple]:
        """Full scan, batch-at-a-time: each row batch decoded whole
        (:meth:`RowCodec.decode_all`: the column views, materialised) when
        this version is contiguous — every byte below the watermarks is a
        visible row; variable-width records are found from the index's
        pointers where they tile a batch (:meth:`_index_starts`), as
        :meth:`scan_columns` finds them. Non-contiguous versions (a diverged
        sibling wrote into a shared batch) fall back to the per-chain walk.
        Row *set* equals ``iter_rows``; order is placement order: a first
        array build's rows in key order (each key's oldest first), every
        later batch's in arrival order.
        """
        if not self.contiguous:
            return list(self.iter_rows())
        decode_all = self.codec.decode_all
        starts = self._index_starts() if self.codec.gathers else {}
        out: list[tuple] = []
        for i, (batch, watermark) in enumerate(zip(self.batches, self._watermarks)):
            if watermark:
                out.extend(decode_all(batch.ensure_resident(), watermark, starts.get(i)))
        return out

    def scan_columns(self, names: "list[str]", registry: Any = None) -> "ColumnBatch | None":
        """Full scan, column-major: the records below this version's
        watermarks, in placement order, as *one* :class:`ColumnBatch` over
        ``names`` (:meth:`RowCodec.column_batch`), so a scan kernel runs once
        a partition. A single row batch is viewed in place; several are
        concatenated a named column at a time, and no view of a batch
        outlives the call. Nothing is stored. Variable-width records are
        found from the index's pointers where they tile a batch
        (:meth:`_index_starts`), else by a walk; ``registry`` counts each
        batch's source in ``indexed_scan_starts_total{source}``. None when
        the version is non-contiguous or a record cannot be viewed (a NULL,
        a short record): the caller then takes :meth:`scan_rows`, which
        answers the same.
        """
        if not self.contiguous:
            return None
        codec = self.codec
        index_starts = self._index_starts() if codec.gathers else {}
        parts, starts = [], []
        for i, (batch, watermark) in enumerate(zip(self.batches, self._watermarks)):
            if watermark:
                parts.append((batch.ensure_resident(), watermark))
                starts.append(index_starts.get(i))
        columns = codec.column_batch(parts, names, starts)
        if columns is not None and registry is not None and codec.gathers:
            registry.inc("indexed_scan_starts_total", len(index_starts), source="index")
            registry.inc("indexed_scan_starts_total", len(parts) - len(index_starts), source="walk")
        return columns

    def visible_watermarks(self) -> list[int]:
        """Per-batch byte counts visible to this version's sequential scans."""
        return self._watermarks

    def range_lookup(self, krange: KeyRange) -> tuple[list[tuple], int]:
        """``(rows, scanned)`` of :meth:`range_read`."""
        rows, scanned, _source = self.range_read(krange)
        return rows, scanned

    def range_read(self, krange: KeyRange) -> tuple[list[tuple], int, str]:
        """Rows whose key falls in ``krange``; returns ``(rows, scanned,
        source)``.

        A key-ordered base under an unwritten delta reads one span
        (:meth:`_span`); under a written one, the keys the ordered index
        lists are read as :meth:`match_columns` does. Any other base takes
        the keys and their heads from :meth:`OrderedIndex.range_heads`
        (O(log n + k): the delta is not walked) and decodes every chain in
        one kernel call, string hash collisions filtered as :meth:`lookup`
        filters them; a key whose head is not published yet reads nothing.
        ``scanned`` counts decoded rows (chain lengths, including
        collision-filtered ones), the number EXPLAIN ANALYZE compares
        against a full scan's ``row_count``; ``source`` is the read's
        ``indexed_key_reads_total`` label: ``span``, ``run`` or ``walk``.
        """
        ordered = self.ordered
        # The base is read after the delta, as every reader does.
        if not ordered.delta_writes and (base := ordered.base).runs:
            rows = self._span(base, *base.span(krange))
            return rows, len(rows), "span"
        if ordered.base.runs:
            columns, _counts, source = self.match_columns(ordered.range_keys(krange))
            rows = _rows(columns)
            return rows, len(rows), source
        rows, _counts, scanned = self._walk(*ordered.range_heads(krange, hash32))
        return rows, scanned, "walk"

    def contains_key(self, key: Any) -> bool:
        return bool(self.lookup(key))

    def num_keys(self) -> int:
        """Distinct key values, O(1)."""
        return len(self.ordered)

    # -- MVCC ---------------------------------------------------------------------------

    def snapshot(self, new_version: int) -> "IndexedPartition":
        """A child: shared index base and batches, a snapshot of the delta."""
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
        lists, the delta) is the partition's shell."""
        return [*self.batches, self.ordered.base, self.codec, self.schema]

    def meter_state(self) -> tuple:
        """What the shell's metered size depends on, and which parts it has.
        A delta holding keys never compares equal (a cTrie's nodes renew
        under reads after a snapshot). An empty cTrie changes only by a root
        swap; an empty buffer is its own token: copying it never mutates it."""
        ordered = self.ordered
        delta = ordered.delta
        if ordered.delta_writes:
            delta = object()
        elif isinstance(delta, CTrie):
            delta = delta.rdcss_read_root()
        return (delta, ordered.fresh, ordered.null_key, ordered.base, self.row_count, *self._watermarks,
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
        return sum(b.capacity for b in self.batches if b.resident)

    def spill_faults(self) -> int:
        """Total disk fault-ins paid by this partition's batches."""
        return sum(b.faults for b in self.batches)

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


def _fields(pointers: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Each packed pointer's (batch, offset, record size), as ``intp`` arrays."""
    batch = (pointers >> np.uint64(OFFSET_BITS + SIZE_BITS)).astype(np.intp)
    offset = ((pointers >> np.uint64(SIZE_BITS)) & np.uint64(MAX_OFFSET)).astype(np.intp)
    return batch, offset, (pointers & np.uint64(MAX_SIZE)).astype(np.intp)


def _rows(columns: "list[np.ndarray]") -> list[tuple]:
    """Field columns back to row tuples."""
    return list(zip(*(column.tolist() for column in columns)))
