"""Batch-at-a-time decode kernels: ``decode_all`` / ``decode_chains``.

These are the compiled full-batch scanners behind ``scan_rows``; they must
agree byte-for-byte with the per-row generic decoder across schema shapes
(fixed-only, trailing string, interior strings, nullable fields) and must
be bypassed safely when MVCC divergence breaks prefix contiguity.
"""

from __future__ import annotations

import pytest

from repro.indexed.partition import IndexedPartition
from repro.indexed.row_codec import RowCodec
from repro.sql.types import BOOLEAN, DOUBLE, INTEGER, LONG, STRING, Schema

FIXED_SCHEMA = Schema.of(("a", LONG), ("b", INTEGER), ("c", DOUBLE), ("d", BOOLEAN))
TRAILING_STR = Schema.of(("id", LONG), ("score", DOUBLE), ("name", STRING))
INTERIOR_STR = Schema.of(("id", LONG), ("name", STRING), ("score", DOUBLE), ("tag", STRING))


def fixed_rows(n: int) -> list[tuple]:
    return [(i, i % 1000, i * 0.5, i % 3 == 0) for i in range(n)]


def trailing_rows(n: int) -> list[tuple]:
    return [(i, i * 1.25, f"name-{i % 97}") for i in range(n)]


def interior_rows(n: int) -> list[tuple]:
    return [(i, f"user{i % 31}", i * 0.125, f"t{i % 7}" * (i % 4 + 1)) for i in range(n)]


def encode_batch(codec: RowCodec, rows: list[tuple]) -> bytes:
    out = bytearray()
    for row in rows:
        out += codec.encode(row, prev_ptr=(1 << 64) - 1)
    return bytes(out)


class TestDecodeAll:
    @pytest.mark.parametrize(
        ("schema", "maker"),
        [
            (FIXED_SCHEMA, fixed_rows),
            (TRAILING_STR, trailing_rows),
            (INTERIOR_STR, interior_rows),
        ],
        ids=["fixed-only", "trailing-string", "interior-strings"],
    )
    def test_matches_per_row_decode(self, schema: Schema, maker) -> None:
        codec = RowCodec(schema)
        rows = maker(257)
        buf = encode_batch(codec, rows)
        # Reference: walk record-by-record with the per-row decoder.
        expected = []
        pos = 0
        while pos < len(buf):
            row, _ptr, size = codec.decode(buf, pos)
            expected.append(row)
            pos += size
        assert codec.decode_all(buf) == expected == rows

    def test_honors_end_watermark(self) -> None:
        codec = RowCodec(FIXED_SCHEMA)
        rows = fixed_rows(10)
        buf = encode_batch(codec, rows)
        # Visible prefix only: decoding must stop at the watermark even
        # though more bytes (a divergent sibling's rows) follow.
        _row, _ptr, first_size = codec.decode(buf, 0)
        assert codec.decode_all(buf, first_size) == rows[:1]
        assert codec.decode_all(buf, len(buf)) == rows

    def test_null_rows_fall_back_to_generic(self) -> None:
        codec = RowCodec(TRAILING_STR)
        rows = [(1, 0.5, "x"), (2, None, "y"), (3, 1.5, None), (None, None, None)]
        buf = encode_batch(codec, rows)
        assert codec.decode_all(buf) == rows

    def test_fixed_schema_nulls_break_alignment(self) -> None:
        """Null records shorten fixed-width rows; the aligned iter_unpack
        fast path must detect this and take the guarded loop instead."""
        codec = RowCodec(FIXED_SCHEMA)
        rows = [(1, 2, 3.0, True), (4, None, 5.0, False), (None, 6, None, None), (7, 8, 9.0, True)]
        buf = encode_batch(codec, rows)
        assert codec.decode_all(buf) == rows
        # Trailing null record (shorter than the prefix struct).
        tail = encode_batch(codec, [(1, 2, 3.0, True), (None, None, None, None)])
        assert codec.decode_all(tail) == [(1, 2, 3.0, True), (None, None, None, None)]

    def test_empty_buffer(self) -> None:
        codec = RowCodec(FIXED_SCHEMA)
        assert codec.decode_all(b"") == []


class TestDecodeChain:
    def test_walks_backward_pointers(self) -> None:
        part = IndexedPartition(TRAILING_STR, key_column="id", batch_size=1 << 14)
        for i in range(5):
            part.insert_row((7, float(i), f"v{i}"))
        ptr = part.ctrie.lookup(part.index_key(7), (1 << 64) - 1)
        rows, counts = part.codec.decode_chains(part.batches, [ptr])
        # Chain yields newest-first.
        assert rows == [(7, float(i), f"v{i}") for i in reversed(range(5))]
        assert counts == [5]


class TestScanRows:
    def test_scan_equals_iter_rows(self) -> None:
        part = IndexedPartition(INTERIOR_STR, key_column="id", batch_size=1 << 12)
        rows = interior_rows(500)
        part.insert_rows(rows)
        assert part.contiguous
        assert sorted(part.scan_rows()) == sorted(part.iter_rows()) == sorted(rows)

    def test_divergent_sibling_degrades_to_chain_walk(self) -> None:
        """Two snapshots of one parent appending into the shared tail batch:
        the second writer loses contiguity and must fall back, and neither
        sibling sees the other's rows."""
        parent = IndexedPartition(FIXED_SCHEMA, key_column="a", batch_size=1 << 14)
        base = fixed_rows(50)
        parent.insert_rows(base)
        c1 = parent.snapshot(1)
        c2 = parent.snapshot(2)
        extra1 = [(1000 + i, i, 0.0, False) for i in range(10)]
        extra2 = [(2000 + i, i, 1.0, True) for i in range(10)]
        c1.insert_rows(extra1)  # extends the shared tail at the watermark
        c2.insert_rows(extra2)  # writes past c1's rows -> divergent
        assert c1.contiguous
        assert not c2.contiguous
        assert sorted(c1.scan_rows()) == sorted(base + extra1)
        assert sorted(c2.scan_rows()) == sorted(base + extra2)
        assert sorted(parent.scan_rows()) == sorted(base)

    def test_multi_batch_scan(self) -> None:
        # Batch size small enough to force several batches.
        part = IndexedPartition(TRAILING_STR, key_column="id", batch_size=1 << 10)
        rows = trailing_rows(300)
        part.insert_rows(rows)
        assert len(part.batches) > 1
        assert sorted(part.scan_rows()) == sorted(rows)
