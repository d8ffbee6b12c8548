"""Schema-driven binary row encoding for the row batches.

The Indexed Batch RDD stores rows *row-wise* in binary buffers (paper
Fig. 3 and footnote 2). Encoded layout of one row::

    [prev_ptr: u64]        backward pointer (written by the partition)
    [row_len:  u16]        total bytes after this field
    [null bitmap]          ceil(n_fields / 8) bytes
    [field 0][field 1]...  fixed-width primitives; strings length-prefixed

The prev_ptr prefix is what makes the per-key linked list ("backward
pointers") navigable: the cTrie points at the newest row; each row points
at its predecessor.

The codec compiles per-field pack/unpack closures once per schema — the
per-row hot path does no type dispatch (guide: hoist work out of loops).
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Callable, Sequence

import numpy as np

from repro.sql.columnar import ColumnBatch
from repro.sql.types import (
    BooleanType,
    DataType,
    DoubleType,
    IntegerType,
    LongType,
    Schema,
    StringType,
)

HEADER_PREV_PTR = struct.Struct("<Q")
HEADER_ROW_LEN = struct.Struct("<H")
#: Bytes before the null bitmap: 8 (prev ptr) + 2 (row length).
ROW_HEADER_SIZE = HEADER_PREV_PTR.size + HEADER_ROW_LEN.size

#: Rows per round-trip comparison in :meth:`RowCodec.encode_records`: the
#: tuples are compared while still in cache — 7–25 % less a row than one
#: ``tolist`` of a whole partition (DESIGN.md §5). Records with strings are
#: encoded a window of this many rows at a time.
_GUARD_ROWS = 1024

_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")


class RowCodec:
    """Encodes/decodes row tuples for one schema."""

    def __init__(self, schema: Schema, max_row_size: int = 1024) -> None:
        self.schema = schema
        self.max_row_size = max_row_size
        self.num_fields = len(schema)
        self.null_bitmap_bytes = (self.num_fields + 7) // 8
        self._encoders: list[Callable[[Any, bytearray], None]] = []
        self._decoders: list[Callable[[bytes, int], tuple[Any, int]]] = []
        for field in schema.fields:
            enc, dec = _codec_for(field.dtype)
            self._encoders.append(enc)
            self._decoders.append(dec)
        # Null-free rows encode through *segments*: each maximal run of
        # fixed-width fields is one precompiled Struct call; strings stay
        # length-prefixed between runs.
        self._segments = _build_segments(schema)
        self._zero_bitmap = bytes(self.null_bitmap_bytes)
        # Backward-pointer chains (lookup, key walk, range) decode in one call
        # of source generated and compiled once per schema. A whole batch
        # decodes through the column views below (decode_all).
        self._chain_walk = _compile_chain_walker(self._segments, self.null_bitmap_bytes)
        # Column views (DESIGN.md §18): numpy dtype of each field as stored.
        # A string-free record is one item of a structured dtype: prev_ptr,
        # row_len, bitmap, fields.
        self._stored = stored = [_STORED_DTYPES[type(f.dtype)] for f in schema.fields]
        self._record_dtype: "np.dtype | None" = None
        #: The fields alone, at their offsets in a record (encode_records).
        self._values_dtype: "np.dtype | None" = None
        if all(isinstance(d, np.dtype) for d in stored):
            self._record_dtype = record = np.dtype(
                [("ptr", "<u8"), ("len", "<u2"), ("nulls", "u1", (self.null_bitmap_bytes,))]
                + [(f"f{i}", d) for i, d in enumerate(stored)]
            )
            if record.itemsize <= max_row_size:
                names = record.names[3:]
                self._values_dtype = np.dtype({
                    "names": names,
                    "formats": stored,
                    "offsets": [record.fields[n][1] for n in names],
                    "itemsize": record.itemsize,
                })
        #: A record with strings (encode_records) as packed fixed-width
        #: stretches, one before each string's bytes and one after the last:
        #: header and bitmap, fields, and the next string's length (``f{i}``).
        self._stretches: "list[np.dtype]" = []
        if self.gathers:
            fields: list = [("ptr", "<u8"), ("len", "<u2"), ("nulls", "u1", (self.null_bitmap_bytes,))]
            for i, dtype in enumerate(stored):
                fields.append((f"f{i}", "<u2" if dtype is object else dtype))
                if dtype is object:
                    self._stretches.append(np.dtype(fields))
                    fields = []
            self._stretches.append(np.dtype(fields))

    # -- encode -----------------------------------------------------------------

    def encode(self, row: tuple, prev_ptr: int) -> bytes:
        """Encode one row with its backward pointer; returns the full record."""
        if len(row) != self.num_fields:
            raise ValueError(f"row has {len(row)} fields, schema has {self.num_fields}")
        try:
            if None in row:  # struct's "?" would pack a NULL as False
                raise TypeError
            parts = []
            idx = 0
            for kind, st, count in self._segments:
                if kind == "f":
                    parts.append(st.pack(*row[idx : idx + count]))
                    idx += count
                else:
                    raw = row[idx].encode("utf-8")
                    parts.append(_U16.pack(len(raw)))
                    parts.append(raw)
                    idx += 1
        except (struct.error, TypeError, AttributeError):
            pass  # nulls or out-of-range values: take the generic path
        else:
            body_bytes = b"".join(parts)
            row_len = self.null_bitmap_bytes + len(body_bytes)
            total = ROW_HEADER_SIZE + row_len
            if total > self.max_row_size:
                raise ValueError(
                    f"encoded row is {total} bytes, exceeding the "
                    f"{self.max_row_size}-byte limit"
                )
            out = bytearray(ROW_HEADER_SIZE)
            HEADER_PREV_PTR.pack_into(out, 0, prev_ptr)
            HEADER_ROW_LEN.pack_into(out, 8, row_len)
            out += self._zero_bitmap
            out += body_bytes
            return bytes(out)
        bitmap = bytearray(self.null_bitmap_bytes)
        body = bytearray()
        for i, (value, enc) in enumerate(zip(row, self._encoders)):
            if value is None:
                bitmap[i >> 3] |= 1 << (i & 7)
            else:
                enc(value, body)
        row_len = self.null_bitmap_bytes + len(body)
        total = ROW_HEADER_SIZE + row_len
        if total > self.max_row_size:
            raise ValueError(
                f"encoded row is {total} bytes, exceeding the {self.max_row_size}-byte "
                "limit (paper Section III-C: rows may have up to 1 KB)"
            )
        out = bytearray(ROW_HEADER_SIZE)
        HEADER_PREV_PTR.pack_into(out, 0, prev_ptr)
        HEADER_ROW_LEN.pack_into(out, 8, row_len)
        out += bitmap
        out += body
        return bytes(out)

    def encode_records(self, rows: list) -> "np.ndarray | tuple[np.ndarray, np.ndarray] | None":
        """``rows`` as records, each byte for byte what :meth:`encode` writes
        with a zero ``ptr`` (the caller's to fill) — the write side of
        :meth:`column_batch`. A string-free schema's are one structured array
        (field ``i`` is column ``f{i}``); a schema with strings gives
        ``(data, sizes)``: the records back to back as ``uint8`` and each one's
        size, encoded ``_GUARD_ROWS`` rows at a time (:meth:`_encode_varying`).

        None, and the caller encodes row by row, unless there is more than one
        row and every row is a tuple of the schema's arity whose values
        survive the round trip through the record unchanged: no NULL, NaN,
        coerced (``1.5`` in a LONG, ``2`` in a BOOLEAN) or out-of-range value,
        non-``str`` in a STRING column, or record over ``max_row_size``.
        """
        if len(rows) < 2:
            return None
        if self._stretches:
            parts = []
            for i in range(0, len(rows), _GUARD_ROWS):
                part = self._encode_varying(rows[i : i + _GUARD_ROWS])
                if part is None:
                    return None
                parts.append(part)
            data, sizes = zip(*parts)
            return np.concatenate(data), np.concatenate(sizes)
        if self._values_dtype is None:
            return None
        try:
            values = np.array(rows, dtype=self._values_dtype)
        except (TypeError, ValueError, OverflowError):
            return None
        if values.ndim != 1 or any(
            values[i : i + _GUARD_ROWS].tolist() != rows[i : i + _GUARD_ROWS]
            for i in range(0, len(rows), _GUARD_ROWS)
        ):
            return None
        records = values.view(self._record_dtype)
        records["ptr"] = 0
        records["len"] = records.itemsize - ROW_HEADER_SIZE
        records["nulls"] = 0
        return records

    def _encode_varying(self, rows: list) -> "tuple[np.ndarray, np.ndarray] | None":
        """:meth:`encode_records` for a schema with strings: each string
        column UTF-8-encoded once, record sizes and offsets from a ``cumsum``,
        and every fixed-width stretch and string scattered to its offsets in
        one ``uint8`` buffer."""
        n = len(rows)
        values: dict[str, np.ndarray] = {}
        strings = []
        try:
            if set(map(type, rows)) != {tuple} or set(map(len, rows)) != {self.num_fields}:
                return None
            for i, (column, stored) in enumerate(zip(zip(*rows), self._stored)):
                if stored is object:
                    raw = list(map(str.encode, column))
                    values[f"f{i}"] = lengths = np.fromiter(map(len, raw), np.intp, n)
                    strings.append((np.frombuffer(b"".join(raw), np.uint8), lengths))
                else:
                    values[f"f{i}"] = np.array(column, stored)
                    if values[f"f{i}"].tolist() != list(column):
                        return None
        except (TypeError, ValueError, OverflowError):  # a UnicodeEncodeError too
            return None
        sizes = sum(s.itemsize for s in self._stretches) + sum(lengths for _, lengths in strings)
        if sizes.max() > min(self.max_row_size, ROW_HEADER_SIZE + 0xFFFF):
            return None
        values["len"] = sizes - ROW_HEADER_SIZE
        pieces = []
        for stretch, string in itertools.zip_longest(self._stretches, strings):
            block = np.zeros(n, stretch)
            for name in stretch.names:
                if name in values:
                    block[name] = values[name]
            pieces += [(block.view(np.uint8), np.full(n, stretch.itemsize)), string]
        out = np.empty(int(sizes.sum()), np.uint8)
        at = np.cumsum(sizes) - sizes  # where each record's next piece goes
        for data, lengths in filter(None, pieces):
            out[np.repeat(at - np.cumsum(lengths) + lengths, lengths) + np.arange(len(data))] = data
            at += lengths
        return out, sizes

    # -- decode -----------------------------------------------------------------

    def decode(self, buf: "bytes | bytearray | memoryview", offset: int) -> tuple[tuple, int, int]:
        """Decode the record at ``offset`` field by field, nulls included;
        returns (row, prev_ptr, record_size). :meth:`decode_all` and the
        chain walker fall back to it for records with NULLs."""
        prev_ptr = HEADER_PREV_PTR.unpack_from(buf, offset)[0]
        row_len = HEADER_ROW_LEN.unpack_from(buf, offset + 8)[0]
        pos = offset + ROW_HEADER_SIZE
        bitmap = bytes(buf[pos : pos + self.null_bitmap_bytes])
        pos += self.null_bitmap_bytes
        values: list[Any] = []
        for i, dec in enumerate(self._decoders):
            if bitmap[i >> 3] & (1 << (i & 7)):
                values.append(None)
            else:
                value, pos = dec(buf, pos)
                values.append(value)
        return tuple(values), prev_ptr, ROW_HEADER_SIZE + row_len

    def decode_all(
        self,
        buf: "bytes | bytearray | memoryview",
        end: "int | None" = None,
        starts: "np.ndarray | None" = None,
    ) -> list[tuple]:
        """Decode every record laid back-to-back in ``buf[0:end]``, in order:
        the one full-batch decoder, :meth:`column_batch` over every column
        materialised as rows (``ColumnBatch.to_rows``).

        When the views refuse the batch because a record holds a NULL, the
        records are found from ``starts`` (the index's, as
        :meth:`column_batch` takes them) or :meth:`record_starts`; the
        NULL-free ones are still gathered as columns, and each NULL-bearing
        one is decoded by :meth:`decode` and spliced in at its place.
        ``end`` defaults to ``len(buf)``; pass the watermark for batches
        with slack capacity.
        """
        end = len(buf) if end is None else end
        if starts is None and self.gathers:
            starts = self.record_starts(buf, end)
        names = self.schema.names()
        batch = self.column_batch([(buf, end)], names, [starts])
        if batch is not None:
            return batch.to_rows()
        if starts is None:  # fixed width: a NULL shortened a record
            starts = self.record_starts(buf, end)
        if starts is None:
            raise ValueError(f"the last record overruns byte {end}")
        nulls = self._null_records(buf, end, starts)
        rows = self._gathered_batch(buf, end, names, starts[~nulls]).to_rows()
        for i in np.flatnonzero(nulls).tolist():  # in order: rows[:i] are final
            rows.insert(i, self.decode(buf, int(starts[i]))[0])
        return rows

    def decode_chains(self, batches: list, pointers: "list[int]") -> "tuple[list[tuple], list[int]]":
        """Decode whole backward-pointer chains, all in one compiled call.

        ``batches`` is the partition's RowBatch list (a spilled batch a
        chain reaches is faulted in); ``pointers`` packed 64-bit pointers
        (see :mod:`repro.indexed.pointers`), ``NULL_POINTER`` an empty
        chain. Returns the rows of every chain, newest first and chain after
        chain, and each chain's row count. This is the one kernel under
        point lookups, key walks, range reads and full walks.
        """
        return self._chain_walk(batches, pointers, self.decode)

    # -- column views --------------------------------------------------------------

    @property
    def gathers(self) -> bool:
        """Whether :meth:`column_batch` gathers columns from record starts
        (variable-width records) rather than viewing one record array."""
        return self._record_dtype is None

    def column_batch(
        self,
        parts: "Sequence[tuple[bytearray | memoryview, int]]",
        names: "list[str]",
        starts: "Sequence[np.ndarray | None] | None" = None,
    ) -> "ColumnBatch | None":
        """The records laid back-to-back in each ``buf[0:end]`` of ``parts``
        (a partition's row batches and their watermarks, in order) as *one*
        column batch over ``names``, without decoding rows (DESIGN.md §18).

        String-free schemas: each batch's records are viewed in place, their
        lengths and bitmaps checked in one pass over all of them, and each
        named column is one concatenation of its field's views (INTEGER
        widened to the int64 every column batch stores it as, in the same
        copy). A single batch's columns are read-only strided views of its
        bytes. Schemas with strings (:attr:`gathers`): batch ``i``'s record
        starts are ``starts[i]`` when the caller has them (the index's
        pointers), else :meth:`record_starts`; the batches' visible bytes
        are one ``uint8`` concatenation (a single batch: its own buffer),
        fixed-width columns are gathered from it and string columns are
        *deferred* (:class:`ColumnBatch`): decoded on first use, for the rows
        still selected. With no ``names`` no byte is copied. Returns None —
        the caller decodes rows, same answer — when a record holds a NULL
        (fixed-width: is short of full size).
        """
        if not parts:
            parts, starts = [(b"", 0)], None
        starts = [None] * len(parts) if starts is None else starts
        if self._record_dtype is None:
            return self._gathered_parts(parts, names, starts)
        size = self._record_dtype.itemsize
        if any(end % size for _, end in parts):
            return None
        views = [np.frombuffer(buf, dtype=self._record_dtype, count=end // size) for buf, end in parts]
        views[0].flags.writeable = False  # a single batch's columns are views of it
        if (_joined(views, "len") != size - ROW_HEADER_SIZE).any() or _joined(views, "nulls").any():
            return None
        index_of = self.schema.index_of
        columns = {n: _joined(views, f"f{index_of(n)}") for n in names}
        return ColumnBatch(self.schema.select(names), columns, sum(map(len, views)))

    def _gathered_parts(
        self,
        parts: "Sequence[tuple[bytearray | memoryview, int]]",
        names: "list[str]",
        starts: "Sequence[np.ndarray | None]",
    ) -> "ColumnBatch | None":
        """:meth:`column_batch` for a schema with strings."""
        starts = [self.record_starts(buf, end) if at is None else at for (buf, end), at in zip(parts, starts)]
        if any(at is None for at in starts):
            return None
        if not names:  # nothing to gather: test each batch in place
            if any(self._null_records(buf, end, at).any() for (buf, end), at in zip(parts, starts)):
                return None
            return ColumnBatch(self.schema.select([]), {}, sum(map(len, starts)))
        if len(parts) == 1:
            (buf, end), at = parts[0], starts[0]
        else:
            sizes = [end for _, end in parts]
            offsets = (np.cumsum(sizes) - sizes).tolist()  # where each batch's bytes start in ``buf``
            buf = np.concatenate([np.frombuffer(b, np.uint8, e) for b, e in parts])
            at = np.concatenate([s + offset for s, offset in zip(starts, offsets)])
            end = len(buf)
        if self._null_records(buf, end, at).any():
            return None
        return self._gathered_batch(buf, end, names, at)

    def record_starts(self, buf: "bytearray | memoryview", end: int) -> "np.ndarray | None":
        """Where each record laid back-to-back in ``buf[0:end]`` starts: one
        walk over the ``row_len`` headers (each start is the previous
        record's end, so the walk is sequential — DESIGN.md §18). None when
        the last record overruns ``end``."""
        starts: list[int] = []
        note = starts.append
        pos = 0
        while pos < end:
            note(pos)
            pos += ROW_HEADER_SIZE + (buf[pos + 8] | (buf[pos + 9] << 8))
        return np.array(starts, dtype=np.intp) if pos == end else None

    def _null_records(self, buf: "bytearray | memoryview", end: int, starts: np.ndarray) -> np.ndarray:
        """Whether each record at ``starts`` holds a NULL: any bit of its bitmap."""
        nulls = np.zeros(len(starts), dtype=bool)
        window = _window(buf, end, _U1)
        for i in range(self.null_bitmap_bytes):
            nulls |= window[starts + ROW_HEADER_SIZE + i] != 0
        return nulls

    def _gathered_batch(
        self, buf: "bytearray | memoryview", end: int, names: "list[str]", starts: np.ndarray
    ) -> ColumnBatch:
        """The NULL-free records at ``starts`` as a column batch over
        ``names`` (see :meth:`column_batch`): fixed-width fields gathered,
        strings deferred."""
        at = starts + ROW_HEADER_SIZE + self.null_bitmap_bytes
        wanted = set(names)
        last = max((self.schema.index_of(n) for n in names), default=-1)
        columns: dict[str, np.ndarray] = {}
        deferred: dict[str, Any] = {}
        for field, stored in zip(self.schema.fields[: last + 1], self._stored):
            if stored is object:
                lengths = _window(buf, end, _LE_U2)[at].astype(np.intp)
                at = at + 2
                if field.name in wanted:
                    deferred[field.name] = _string_decoder(buf, at, at + lengths)
                at = at + lengths
            else:
                if field.name in wanted:
                    columns[field.name] = _widen(_window(buf, end, stored)[at])
                at = at + stored.itemsize
        return ColumnBatch(self.schema.select(names), columns, len(at), deferred)

    def gather(self, batches: list, numbers: "np.ndarray | range", batch_size: int) -> np.ndarray:
        """Records by number, as one structured array of the schema's fields
        (``f0``, ``f1``, …; no row decoded): record ``r`` is the ``r % n``-th
        of batch ``r // n``, ``n = batch_size // record size``. Records are
        copied whole, as opaque items: a slice a batch for one span of
        numbers (a ``range``), else the numbers grouped by batch once and
        one ``take`` a batch. String-free schemas only, whose records are all
        one size (DESIGN.md §15, Runs).
        """
        dtype = self._values_dtype
        size = dtype.itemsize
        n = batch_size // size
        record = np.dtype((np.void, size))
        out = np.empty(len(numbers), record)
        if isinstance(numbers, range):
            first, stop = numbers.start, numbers.stop
            for b in range(first // n, -(-stop // n)):
                lo, hi = max(first, b * n), min(stop, (b + 1) * n)
                out[lo - first : hi - first] = np.frombuffer(batches[b].ensure_resident(), record, hi - lo, lo % n * size)
        else:
            which, slot = np.divmod(numbers, n)
            order = np.argsort(which, kind="stable")
            ends = np.cumsum(np.bincount(which)).tolist()
            for b, (lo, hi) in enumerate(zip([0, *ends], ends)):
                if lo < hi:
                    at = order[lo:hi]
                    out[at] = np.frombuffer(batches[b].ensure_resident(), record, n).take(slot[at])
        return out.view(dtype)

    def record_size(self, buf: "bytes | bytearray | memoryview", offset: int) -> int:
        return ROW_HEADER_SIZE + HEADER_ROW_LEN.unpack_from(buf, offset + 8)[0]

    def read_prev_ptr(self, buf: "bytes | bytearray | memoryview", offset: int) -> int:
        return HEADER_PREV_PTR.unpack_from(buf, offset)[0]


#: How each field type sits in a record, as a numpy dtype (``object``: a
#: length-prefixed string, decoded not viewed).
_STORED_DTYPES: dict[type, Any] = {
    IntegerType: np.dtype("<i4"),
    LongType: np.dtype("<i8"),
    DoubleType: np.dtype("<f8"),
    BooleanType: np.dtype("?"),
    StringType: object,
}
_U1 = np.dtype("u1")
_LE_U2 = np.dtype("<u2")


def _widen(column: np.ndarray) -> np.ndarray:
    """INTEGER is 4 bytes in a record and int64 in every column batch."""
    return column.astype(np.int64) if column.dtype.itemsize == 4 else column


def _joined(records: "list[np.ndarray]", field: str) -> np.ndarray:
    """Field ``field`` of the record arrays ``records`` end to end: a view of
    the one array when there is one, else one copy, INTEGER widened in it."""
    columns = [r[field] for r in records]
    if len(columns) == 1:
        return _widen(columns[0])
    return np.concatenate(columns, dtype=np.int64 if columns[0].dtype.itemsize == 4 else None)


def _window(buf: "bytearray | memoryview", end: int, dtype: np.dtype) -> np.ndarray:
    """``out[p]`` is the ``dtype`` value stored at byte ``p`` of ``buf``: a
    read-only, one-byte-stride view of ``buf[0:end]`` (no copy), so one
    fancy index gathers a field that starts at a different byte per record."""
    out = np.ndarray((max(end - dtype.itemsize + 1, 0),), dtype=dtype, buffer=buf, strides=(1,))
    out.flags.writeable = False
    return out


def _string_decoder(
    buf: "bytearray | memoryview", starts: np.ndarray, ends: np.ndarray
) -> Callable[["np.ndarray | None"], np.ndarray]:
    """Deferred string column: decodes ``buf[start:end]`` for the rows asked
    for. The rows' byte window is decoded once as latin-1 and sliced: a slice
    is its UTF-8 decode exactly when it is ASCII (``isascii`` is O(1) on a
    str). Any other slice sends the column to the per-value UTF-8 decode,
    which also raises what invalid UTF-8 raises."""

    def decode(rows: "np.ndarray | None") -> np.ndarray:
        lo, hi = (starts, ends) if rows is None else (starts[rows], ends[rows])
        out = np.empty(len(lo), dtype=object)
        if not len(lo):
            return out
        base = int(lo.min())
        window = str(buf[base : int(hi.max())], "latin-1")
        values = [window[a:b] for a, b in zip((lo - base).tolist(), (hi - base).tolist())]
        if not all(map(str.isascii, values)):
            values = [str(buf[a:b], "utf-8") for a, b in zip(lo.tolist(), hi.tolist())]
        out[:] = values
        return out

    return decode


_FIXED_CODES = {
    IntegerType: "i",
    LongType: "q",
    DoubleType: "d",
    BooleanType: "?",
}


#: Chain terminator baked into the chain-walk kernel (pointers.NULL_POINTER;
#: duplicated here to keep the codec import-free of the pointer module).
_NULL_POINTER = (1 << 64) - 1


def _compile_chain_walker(
    segments: list[tuple[str, Any, int]], null_bitmap_bytes: int
) -> Callable[[Any, Any, Any], "tuple[list[tuple], list[int]]"]:
    """Generate the backward-pointer chain kernel for one schema.

    Follows each pointer's per-key linked list across batches inside one
    compiled loop, one outer iteration a chain, so a read decodes every chain
    it needs with a single Python-level call. A NULL-free record costs one
    unpack of a prefix struct — header (prev_ptr, row_len), the null bitmap
    as ``B`` ints (so the null test reads unpacked ints) and the leading run
    of fixed-width fields, in one C call — plus one unpack per later run.
    Strings are sliced with byte arithmetic; a record's final string ends at
    the record's end, so its length prefix is not read. A record with a NULL
    goes to the passed generic decoder.
    """
    fmt, rest = "<QH" + "B" * null_bitmap_bytes, segments
    if segments and segments[0][0] == "f":
        fmt, rest = fmt + segments[0][1].format.lstrip("<"), segments[1:]
    pre = struct.Struct(fmt)
    k = 2 + null_bitmap_bytes  # vals[k:] = leading fixed-field values
    ns: dict[str, Any] = {"_pre": pre}
    lines = [
        "def _chains(batches, pointers, generic):",
        "    out = []",
        "    append = out.append",
        "    counts = []",
        "    count = counts.append",
        "    for pointer in pointers:",
        "        first = len(out)",
        f"        while pointer != {_NULL_POINTER}:",
        "            try:",
        "                buf = batches[(pointer >> 40) & 0xFFFFFF].buf",
        "            except AttributeError:",  # a spilled batch: fault it in
        "                buf = batches[(pointer >> 40) & 0xFFFFFF].ensure_resident()",
        "            pos = (pointer >> 14) & 0x3FFFFFF",
        # A record with nulls can be shorter than the prefix struct, and
        # this one may end the buffer.
        f"            if len(buf) - pos < {pre.size}:",
        "                row, pointer, _sz = generic(buf, pos)",
        "                append(row)",
        "                continue",
        "            vals = _pre.unpack_from(buf, pos)",
        f"            if {' or '.join(f'vals[{2 + i}]' for i in range(null_bitmap_bytes))}:",
        "                row, pointer, _sz = generic(buf, pos)",
        "                append(row)",
        "                continue",
        "            pointer = vals[0]",
    ]
    if rest:
        lines += [
            f"            rec_end = pos + {ROW_HEADER_SIZE} + vals[1]",
            f"            p = pos + {pre.size}",
            f"            row = vals[{k}:]",
        ]
        for i, (kind, st, _count) in enumerate(rest):
            if kind == "f":
                ns[f"_s{i}"] = st
                lines += [f"            row += _s{i}.unpack_from(buf, p)", f"            p += {st.size}"]
            elif i == len(rest) - 1:
                lines.append('            row += (str(buf[p + 2:rec_end], "utf-8"),)')
            else:
                lines += [
                    "            _e = p + 2 + (buf[p] | (buf[p + 1] << 8))",
                    '            row += (str(buf[p + 2:_e], "utf-8"),)',
                    "            p = _e",
                ]
        lines.append("            append(row)")
    else:
        lines.append(f"            append(vals[{k}:])")
    lines += [
        "        count(len(out) - first)",
        "    return out, counts",
    ]
    exec("\n".join(lines), ns)  # noqa: S102 - controlled, schema-derived source
    return ns["_chains"]


def _build_segments(schema: Schema) -> list[tuple[str, Any, int]]:
    """Compile the schema into codec segments.

    Returns a list of ``("f", Struct, field_count)`` for maximal runs of
    fixed-width fields and ``("s", None, 1)`` for string fields.
    """
    segments: list[tuple[str, Any, int]] = []
    run: list[str] = []

    def flush() -> None:
        if run:
            segments.append(("f", struct.Struct("<" + "".join(run)), len(run)))
            run.clear()

    for field in schema.fields:
        code = _FIXED_CODES.get(type(field.dtype))
        if code is None:
            flush()
            segments.append(("s", None, 1))
        else:
            run.append(code)
    flush()
    return segments


def _codec_for(
    dtype: DataType,
) -> tuple[Callable[[Any, bytearray], None], Callable[[bytes, int], tuple[Any, int]]]:
    if isinstance(dtype, IntegerType):

        def enc_i32(v: Any, out: bytearray) -> None:
            out += _I32.pack(int(v))

        def dec_i32(buf: bytes, pos: int) -> tuple[int, int]:
            return _I32.unpack_from(buf, pos)[0], pos + 4

        return enc_i32, dec_i32
    if isinstance(dtype, LongType):

        def enc_i64(v: Any, out: bytearray) -> None:
            out += _I64.pack(int(v))

        def dec_i64(buf: bytes, pos: int) -> tuple[int, int]:
            return _I64.unpack_from(buf, pos)[0], pos + 8

        return enc_i64, dec_i64
    if isinstance(dtype, DoubleType):

        def enc_f64(v: Any, out: bytearray) -> None:
            out += _F64.pack(float(v))

        def dec_f64(buf: bytes, pos: int) -> tuple[float, int]:
            return _F64.unpack_from(buf, pos)[0], pos + 8

        return enc_f64, dec_f64
    if isinstance(dtype, BooleanType):

        def enc_bool(v: Any, out: bytearray) -> None:
            out.append(1 if v else 0)

        def dec_bool(buf: bytes, pos: int) -> tuple[bool, int]:
            return bool(buf[pos]), pos + 1

        return enc_bool, dec_bool
    if isinstance(dtype, StringType):

        def enc_str(v: Any, out: bytearray) -> None:
            raw = v.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError("string field exceeds 64 KB")
            out += _U16.pack(len(raw))
            out += raw

        def dec_str(buf: bytes, pos: int) -> tuple[str, int]:
            n = _U16.unpack_from(buf, pos)[0]
            start = pos + 2
            return bytes(buf[start : start + n]).decode("utf-8"), start + n

        return enc_str, dec_str
    raise TypeError(f"no codec for {dtype!r}")
