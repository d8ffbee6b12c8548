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

import struct
from typing import Any, Callable

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
#: ``tolist`` of a whole partition (DESIGN.md §5).
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
        # Fast path: null-free rows encode/decode through *segments* — each
        # maximal run of fixed-width fields becomes one precompiled Struct
        # call; strings stay length-prefixed between runs. One C-level call
        # per run instead of one Python closure per field is the difference
        # between the indexed scan being ~10x vs ~2x slower per row than the
        # columnar cache (and why the paper recommends primitive key types).
        self._segments = _build_segments(schema)
        self._zero_bitmap = bytes(self.null_bitmap_bytes)
        # Codegen (the whole-stage-codegen analogue): a decoder specialized
        # to this schema is generated and compiled once; it returns None for
        # rows with nulls, which fall back to the generic per-field path.
        self._fast_decode = _compile_fast_decoder(self._segments, self.null_bitmap_bytes)
        # Batch-at-a-time kernels: one compiled call decodes a whole buffer
        # (sequential scan) or a whole backward-pointer chain (lookup/probe)
        # instead of re-entering Python per row.
        self._batch_scan = _compile_batch_scanner(self._segments, self.null_bitmap_bytes)
        self._chain_walk = _compile_chain_walker(self._segments, self.null_bitmap_bytes)
        # Column views (DESIGN.md §18): numpy dtype of each field as stored;
        # None when some field's type has no entry (no views for this schema).
        # A string-free record is one item of a structured dtype: prev_ptr,
        # row_len, bitmap, fields.
        stored = [_STORED_DTYPES.get(type(f.dtype)) for f in schema.fields]
        self._stored: "list[Any] | None" = None if any(d is None for d in stored) else stored
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

    # -- encode -----------------------------------------------------------------

    def encode(self, row: tuple, prev_ptr: int) -> bytes:
        """Encode one row with its backward pointer; returns the full record."""
        if len(row) != self.num_fields:
            raise ValueError(f"row has {len(row)} fields, schema has {self.num_fields}")
        try:
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

    def encode_records(self, rows: list) -> "np.ndarray | None":
        """``rows`` as one structured array of records, each byte for byte
        what :meth:`encode` writes (field ``i`` is column ``f{i}``; ``ptr`` is
        the caller's to fill) — the write side of :meth:`column_batch`.

        None, and the caller encodes row by row, unless the schema is
        string-free, there is more than one row, and every row is a tuple of
        the schema's arity whose values survive the round trip through the
        record unchanged: no NULL, NaN, coerced (``1.5`` in a LONG, ``2`` in a
        BOOLEAN) or out-of-range value.
        """
        if self._values_dtype is None or len(rows) < 2:
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

    # -- decode -----------------------------------------------------------------

    def decode(self, buf: "bytes | bytearray | memoryview", offset: int) -> tuple[tuple, int, int]:
        """Decode the record at ``offset``; returns (row, prev_ptr, record_size)."""
        fast = self._fast_decode(buf, offset)
        if fast is not None:
            return fast
        return self._decode_generic(buf, offset)

    def _decode_generic(
        self, buf: "bytes | bytearray | memoryview", offset: int
    ) -> tuple[tuple, int, int]:
        """Per-field decode handling null bitmaps (any row shape)."""
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
        self, buf: "bytes | bytearray | memoryview", end: "int | None" = None
    ) -> list[tuple]:
        """Decode every record laid back-to-back in ``buf[0:end]``.

        One compiled pass over a whole row batch — the batch-at-a-time
        kernel behind full scans. Rows with nulls fall back (per record) to
        the generic decoder; everything else is straight-line generated
        code, which is what makes a multi-threaded scan worth its GIL time.
        ``end`` defaults to ``len(buf)``; pass :attr:`RowBatch.used` for
        batches with slack capacity.
        """
        return self._batch_scan(buf, len(buf) if end is None else end, self._decode_generic)

    def decode_chain(self, batches: list, pointer: int) -> list[tuple]:
        """Decode a whole backward-pointer chain in one compiled call.

        ``batches`` is the partition's RowBatch list; ``pointer`` a packed
        64-bit pointer (see :mod:`repro.indexed.pointers`). Returns rows
        newest-first, exactly as the per-row chain walk would. This is the
        kernel under point lookups and the indexed join's probe loop.
        """
        return self._chain_walk(batches, pointer, self._decode_generic)

    # -- column views --------------------------------------------------------------

    def column_batch(
        self, buf: "bytearray | memoryview", end: int, names: "list[str]"
    ) -> "ColumnBatch | None":
        """The records laid back-to-back in ``buf[0:end]`` as a column batch
        over ``names`` — without decoding rows and without copying the batch.

        String-free schemas: each column is a read-only strided view of
        ``buf`` (INTEGER is widened to the int64 every column batch stores
        it as — the one copy). Schemas with strings: one walk over the
        ``row_len`` headers finds the record starts, fixed-width columns are
        gathered from them and string columns are *deferred*
        (:class:`ColumnBatch`): decoded on first use, for the rows still
        selected. Returns None — the caller takes the row path, same answer
        — when a record holds a NULL (or, fixed-width, is short of full
        size), or when a field's type has no numpy form.
        """
        if self._stored is None:
            return None
        if self._record_dtype is None:
            return self._gathered_batch(buf, end, names)
        size = self._record_dtype.itemsize
        if end % size:
            return None
        records = np.frombuffer(buf, dtype=self._record_dtype, count=end // size)
        records.flags.writeable = False
        if (records["len"] != size - ROW_HEADER_SIZE).any() or records["nulls"].any():
            return None
        index_of = self.schema.index_of
        columns = {n: _widen(records[f"f{index_of(n)}"]) for n in names}
        return ColumnBatch(self.schema.select(names), columns, len(records))

    def _gathered_batch(
        self, buf: "bytearray | memoryview", end: int, names: "list[str]"
    ) -> "ColumnBatch | None":
        """Variable-width records: see :meth:`column_batch`."""
        starts: list[int] = []
        note = starts.append
        pos = 0
        while pos < end:
            note(pos)
            pos += ROW_HEADER_SIZE + (buf[pos + 8] | (buf[pos + 9] << 8))
        if pos != end:
            return None
        at = np.array(starts, dtype=np.intp) + ROW_HEADER_SIZE
        for _ in range(self.null_bitmap_bytes):
            if _window(buf, end, _U1)[at].any():
                return None
            at = at + 1
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
        return ColumnBatch(self.schema.select(names), columns, len(starts), deferred)

    def gather(self, batches: list, numbers: np.ndarray, batch_size: int) -> np.ndarray:
        """Records by number, as one structured array of the schema's fields
        (``f0``, ``f1``, …; no row decoded): record ``r`` is the ``r % n``-th
        of batch ``r // n``, ``n = batch_size // record size``. One fancy
        index into a structured view of each batch it touches; string-free
        schemas only, whose records are all one size (DESIGN.md §15, Runs).
        """
        dtype = self._values_dtype
        per_batch = batch_size // dtype.itemsize
        which, slot = np.divmod(numbers, per_batch)
        out = np.empty(len(numbers), dtype)
        for b in np.unique(which).tolist():
            at = which == b
            out[at] = np.frombuffer(batches[b].buf, dtype, count=per_batch)[slot[at]]
        return out

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


def _window(buf: "bytearray | memoryview", end: int, dtype: np.dtype) -> np.ndarray:
    """``out[p]`` is the ``dtype`` value stored at byte ``p`` of ``buf``: a
    read-only, one-byte-stride view of ``buf[0:end]`` (no copy), so one
    fancy index gathers a field that starts at a different byte per record."""
    out = np.ndarray((end - dtype.itemsize + 1,), dtype=dtype, buffer=buf, strides=(1,))
    out.flags.writeable = False
    return out


def _string_decoder(
    buf: "bytearray | memoryview", starts: np.ndarray, ends: np.ndarray
) -> Callable[["np.ndarray | None"], np.ndarray]:
    """Deferred string column: decodes ``buf[start:end]`` for the rows asked for."""

    def decode(rows: "np.ndarray | None") -> np.ndarray:
        lo, hi = (starts, ends) if rows is None else (starts[rows], ends[rows])
        out = np.empty(len(lo), dtype=object)
        out[:] = [str(buf[a:b], "utf-8") for a, b in zip(lo.tolist(), hi.tolist())]
        return out

    return decode


_FIXED_CODES = {
    IntegerType: "i",
    LongType: "q",
    DoubleType: "d",
    BooleanType: "?",
}


#: Header struct reading prev_ptr and row_len with one C call.
_HEADER = struct.Struct("<QH")


def _compile_fast_decoder(
    segments: list[tuple[str, Any, int]], null_bitmap_bytes: int
) -> Callable[[Any, int], "tuple[tuple, int, int] | None"]:
    """Generate a decoder function specialized to one schema.

    This is the repository's analogue of Spark's whole-stage code
    generation: the segment loop, offsets and struct objects are baked into
    straight-line source compiled once per schema, ~2x faster per row than
    the generic loop. The generated function returns None when the row has
    nulls (caller falls back to :meth:`RowCodec._decode_generic`).
    """
    ns: dict[str, Any] = {"_hdr": _HEADER, "_u16": _U16}
    lines = [
        "def _fast(buf, offset):",
        "    prev_ptr, row_len = _hdr.unpack_from(buf, offset)",
        f"    pos = offset + {ROW_HEADER_SIZE}",
    ]
    # Null check: rows with any null take the generic path.
    checks = " or ".join(f"buf[pos + {i}]" for i in range(null_bitmap_bytes))
    lines.append(f"    if {checks}:")
    lines.append("        return None")
    lines.append(f"    pos += {null_bitmap_bytes}")
    lines.append("    out = ()")
    for i, (kind, st, _count) in enumerate(segments):
        if kind == "f":
            ns[f"_s{i}"] = st
            lines.append(f"    out += _s{i}.unpack_from(buf, pos)")
            lines.append(f"    pos += {st.size}")
        else:
            lines.append("    _n = _u16.unpack_from(buf, pos)[0]")
            lines.append("    _e = pos + 2 + _n")
            lines.append('    out += (str(buf[pos + 2:_e], "utf-8"),)')
            lines.append("    pos = _e")
    lines.append(f"    return out, prev_ptr, {ROW_HEADER_SIZE} + row_len")
    exec("\n".join(lines), ns)  # noqa: S102 - controlled, schema-derived source
    return ns["_fast"]


def _kernel_prefix(
    segments: list[tuple[str, Any, int]], null_bitmap_bytes: int
) -> tuple[Any, int, list[tuple[str, Any, int]]]:
    """Build the combined per-record prefix struct for the batch kernels.

    One ``Struct`` covering header (prev_ptr + row_len), the null bitmap
    (as ``B`` bytes, so the null check runs on already-unpacked ints), and
    the leading run of fixed-width fields — a single C call extracts all of
    it. Returns (prefix_struct, leading_field_count, remaining_segments).
    """
    fmt = "<QH" + "B" * null_bitmap_bytes
    leading = 0
    rest = segments
    if segments and segments[0][0] == "f":
        st = segments[0][1]
        fmt += st.format.lstrip("<")
        leading = segments[0][2]
        rest = segments[1:]
    return struct.Struct(fmt), leading, rest


def _rest_segment_lines(
    rest: list[tuple[str, Any, int]], ns: dict[str, Any], indent: str
) -> list[str]:
    """Generated-source fragment decoding the segments after the prefix
    struct, starting at ``p`` and extending ``row``.

    Strings are sliced with plain byte arithmetic (no Struct call); when
    the record's *final* field is a string its end is already known from
    the row length (``rec_end``), so even the 2-byte length prefix is
    skipped.
    """
    lines: list[str] = []
    for i, (kind, st, _count) in enumerate(rest):
        if kind == "f":
            ns[f"_s{i}"] = st
            lines.append(f"{indent}row += _s{i}.unpack_from(buf, p)")
            lines.append(f"{indent}p += {st.size}")
        elif i == len(rest) - 1:
            # Final string: ends exactly at rec_end (defined by the caller).
            lines.append(f'{indent}row += (str(buf[p + 2:rec_end], "utf-8"),)')
        else:
            lines.append(f"{indent}_e = p + 2 + (buf[p] | (buf[p + 1] << 8))")
            lines.append(f'{indent}row += (str(buf[p + 2:_e], "utf-8"),)')
            lines.append(f"{indent}p = _e")
    return lines


def _null_check_expr(null_bitmap_bytes: int, first_index: int) -> str:
    """Null test over the bitmap ints unpacked by the prefix struct."""
    return " or ".join(f"vals[{first_index + i}]" for i in range(null_bitmap_bytes))


def _compile_batch_scanner(
    segments: list[tuple[str, Any, int]], null_bitmap_bytes: int
) -> Callable[[Any, int, Any], list[tuple]]:
    """Generate the sequential whole-buffer scan kernel for one schema.

    The generated function walks records back-to-back from offset 0 to
    ``end`` in a single compiled loop; each null-free record costs one
    prefix-struct unpack (header + bitmap + leading fixed fields in one C
    call) plus one unpack per remaining segment — no per-row Python
    function call, no per-row method dispatch. String-free schemas advance
    by a constant stride. Null-bearing records fall back (per record) to
    the passed generic decoder.
    """
    pre, leading, rest = _kernel_prefix(segments, null_bitmap_bytes)
    k = 2 + null_bitmap_bytes  # vals[k:] = leading fixed-field values
    ns: dict[str, Any] = {"_pre": pre, "_u16": _U16}
    lines = ["def _scan(buf, end, generic):"]
    if not rest:
        # Fixed-width schemas: when every record is full size, the whole
        # buffer is one aligned array of records and decodes with a single
        # iter_unpack comprehension. Verify alignment exactly by checking
        # the strided row_len bytes: any null shortens its record, and the
        # first short record's real row_len sits precisely on the strided
        # offset being tested, so a mixed buffer can't pass by accident.
        row_len = pre.size - ROW_HEADER_SIZE
        ns["_lo"] = bytes([row_len & 0xFF])
        ns["_hi"] = bytes([row_len >> 8])
        lines += [
            f"    if end and end % {pre.size} == 0:",
            f"        n = end // {pre.size}",
            f"        if bytes(buf[8:end:{pre.size}]) == _lo * n and "
            f"bytes(buf[9:end:{pre.size}]) == _hi * n:",
            f"            return [v[{k}:] for v in _pre.iter_unpack(buf[:end])]",
        ]
    lines += [
        "    out = []",
        "    append = out.append",
        "    pos = 0",
        # A record with nulls can be *shorter* than the prefix struct, so
        # the combined unpack could overrun at the buffer tail. Keep the
        # hot loop guard-free by bounding it to positions where a full
        # prefix is guaranteed to fit; the tail loop below decodes any
        # remaining short records generically.
        f"    safe = end - {pre.size}",
        "    while pos <= safe:",
        "        vals = _pre.unpack_from(buf, pos)",
        f"        if {_null_check_expr(null_bitmap_bytes, 2)}:",
        "            row, _ptr, _sz = generic(buf, pos)",
        "            append(row)",
        "            pos += _sz",
        "            continue",
    ]
    if rest:
        lines += [
            f"        rec_end = pos + {ROW_HEADER_SIZE} + vals[1]",
            f"        p = pos + {pre.size}",
            f"        row = vals[{k}:]",
        ]
        lines += _rest_segment_lines(rest, ns, "        ")
        lines += [
            "        append(row)",
            "        pos = rec_end",
        ]
    else:
        # Fixed-width records: constant stride, prefix covers everything.
        lines += [
            f"        append(vals[{k}:])",
            f"        pos += {pre.size}",
        ]
    lines += [
        "    while pos < end:",
        "        row, _ptr, _sz = generic(buf, pos)",
        "        append(row)",
        "        pos += _sz",
        "    return out",
    ]
    _ = leading
    exec("\n".join(lines), ns)  # noqa: S102 - controlled, schema-derived source
    return ns["_scan"]


#: Chain terminator baked into the chain-walk kernel (pointers.NULL_POINTER;
#: duplicated here to keep the codec import-free of the pointer module).
_NULL_POINTER = (1 << 64) - 1


def _compile_chain_walker(
    segments: list[tuple[str, Any, int]], null_bitmap_bytes: int
) -> Callable[[Any, int, Any], list[tuple]]:
    """Generate the backward-pointer chain kernel for one schema.

    Follows the per-key linked list across batches inside one compiled
    loop (pointer field extraction and the prefix-struct unpack inlined),
    so a lookup or join probe decodes its whole chain with a single
    Python-level call.
    """
    pre, _leading, rest = _kernel_prefix(segments, null_bitmap_bytes)
    k = 2 + null_bitmap_bytes
    ns: dict[str, Any] = {"_pre": pre, "_u16": _U16}
    lines = [
        "def _chain(batches, pointer, generic):",
        "    out = []",
        "    append = out.append",
        f"    while pointer != {_NULL_POINTER}:",
        "        buf = batches[(pointer >> 40) & 0xFFFFFF].buf",
        "        pos = (pointer >> 14) & 0x3FFFFFF",
        # Same tail guard as the batch scanner: null records can be shorter
        # than the prefix struct, and this one may end the buffer.
        f"        if len(buf) - pos < {pre.size}:",
        "            row, pointer, _sz = generic(buf, pos)",
        "            append(row)",
        "            continue",
        "        vals = _pre.unpack_from(buf, pos)",
        f"        if {_null_check_expr(null_bitmap_bytes, 2)}:",
        "            row, pointer, _sz = generic(buf, pos)",
        "            append(row)",
        "            continue",
        "        pointer = vals[0]",
    ]
    if rest:
        lines += [
            f"        rec_end = pos + {ROW_HEADER_SIZE} + vals[1]",
            f"        p = pos + {pre.size}",
            f"        row = vals[{k}:]",
        ]
        lines += _rest_segment_lines(rest, ns, "        ")
        lines.append("        append(row)")
    else:
        lines.append(f"        append(vals[{k}:])")
    lines.append("    return out")
    exec("\n".join(lines), ns)  # noqa: S102 - controlled, schema-derived source
    return ns["_chain"]


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
