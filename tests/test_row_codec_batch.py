"""Full-batch and chain decode: ``decode_all`` / ``decode_chains``.

``decode_all`` is the column views (``RowCodec.column_batch``) of every
column, materialised as rows; a record with a NULL is decoded alone and
spliced in at its place. Both decoders must agree with the per-record
``decode`` walk across schema shapes (fixed-only, trailing string, interior
strings, nullable fields), and ``scan_rows`` must fall back safely when MVCC
divergence breaks prefix contiguity. A seeded differential checks the same
over random schemas, values, NULL patterns, write layouts and versions.
"""

from __future__ import annotations

import math
import random

import numpy as np
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
        """Null records shorten fixed-width rows: the record view must refuse
        the batch, and its records be found by a walk instead."""
        codec = RowCodec(FIXED_SCHEMA)
        # (10, 11, 12.0, None): a NULL BOOLEAN alone, which struct's "?" would pack as False.
        rows = [(1, 2, 3.0, True), (4, None, 5.0, False), (None, 6, None, None), (7, 8, 9.0, True),
                (10, 11, 12.0, None)]
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


# -- seeded differential ------------------------------------------------------------

FIXED_TYPES = (INTEGER, LONG, DOUBLE, BOOLEAN)
EXTREMES = {
    INTEGER: (-(2**31), 2**31 - 1, 0, -1),
    LONG: (-(2**63), 2**63 - 1, 0, -1),
    DOUBLE: (math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1.7976931348623157e308),
}
STRINGS = ("", "x", "naïve café", "日本語", "😀", "a\x00b", "ümlaut-" * 3)
NULL_MODES = ("none", "one_percent", "all_null")


def random_schema(rng: random.Random, n_strings: int) -> "tuple[Schema, str]":
    """Fields of the five types with ``n_strings`` STRING columns, and a key
    column (LONG, INTEGER or STRING)."""
    types = [rng.choice(FIXED_TYPES) for _ in range(rng.randint(1, 9))] + [STRING] * n_strings
    rng.shuffle(types)
    keyable = [i for i, t in enumerate(types) if t in (INTEGER, LONG, STRING)]
    if not keyable:
        keyable = [0]
        types.insert(0, rng.choice((INTEGER, LONG)))
    schema = Schema.of(*((f"c{i}", t) for i, t in enumerate(types)))
    return schema, f"c{rng.choice(keyable)}"


def random_value(rng: random.Random, dtype, nan: bool) -> object:
    if dtype is STRING:
        return rng.choice(STRINGS) if rng.random() < 0.5 else "".join(
            rng.choice("abcxyz-é日") for _ in range(rng.randrange(12)))
    if dtype is BOOLEAN:
        return rng.random() < 0.5
    if rng.random() < 0.3:
        value = rng.choice(EXTREMES[dtype])
        return value if nan or value == value else 0.5
    if dtype is DOUBLE:
        return rng.uniform(-1e9, 1e9)
    bits = 31 if dtype is INTEGER else 63
    return rng.randrange(-(2**bits), 2**bits)


def random_rows(rng, schema, key, n, null_mode, unique_keys) -> list[tuple]:
    """``n`` rows; half the calls write no NaN (which keeps them off the
    array layout, as a NULL does)."""
    k = schema.index_of(key)
    key_type = schema.fields[k].dtype
    nan = rng.random() < 0.5
    rows = []
    for i in range(n):
        row = [random_value(rng, f.dtype, nan) for f in schema.fields]
        if unique_keys:
            row[k] = f"k{i}-{rng.randrange(10**6)}" if key_type is STRING else i * 7919 - n
        else:
            row[k] = rng.choice(STRINGS) if key_type is STRING else rng.randrange(-3, 9)
        if null_mode == "one_percent" and rng.random() < 0.01:
            row[rng.choice([j for j in range(len(row)) if j != k] or [k])] = None
        elif null_mode == "all_null" and rng.random() < 0.3:
            row = [v if j == k else None for j, v in enumerate(row)]
        rows.append(tuple(row))
    if null_mode != "none" and len(schema) > 1 and all(None not in r for r in rows):
        rows[rng.randrange(n)] = tuple(v if j == k else None for j, v in enumerate(rows[0]))
    return rows


def same(got: list, want: list) -> bool:
    """Equal row for row, value for value: NaN equals NaN, -0.0 is not 0.0
    and True is not 1 (``repr`` tells them apart)."""
    return list(map(repr, got)) == list(map(repr, want))


def walk(codec: RowCodec, buf, end: int) -> "tuple[list[tuple], list[int]]":
    """The reference: each record decoded alone, and the record boundaries."""
    rows, bounds = [], [0]
    while bounds[-1] < end:
        row, _ptr, size = codec.decode(buf, bounds[-1])
        rows.append(row)
        bounds.append(bounds[-1] + size)
    assert bounds[-1] == end
    return rows, bounds


def check_decode_all(rng, codec, buf, end, starts=None) -> list[tuple]:
    """``decode_all`` at sampled record-boundary ends, with and without the
    given record starts, against the walk; returns the walk's rows."""
    rows, bounds = walk(codec, buf, end)
    picks = {0, len(rows)} | {rng.randrange(len(bounds)) for _ in range(3)}
    for n in sorted(picks):
        cut = bounds[n]
        assert same(codec.decode_all(buf, cut), rows[:n]), (cut, end)
        if starts is not None:
            assert same(codec.decode_all(buf, cut, starts[starts < cut]), rows[:n]), (cut, end)
    return rows


def check_version(rng, part: IndexedPartition) -> None:
    assert part.contiguous
    index_starts = part._index_starts()
    walked: list[tuple] = []
    for i, (batch, watermark) in enumerate(zip(part.batches, part.visible_watermarks())):
        walked += check_decode_all(rng, part.codec, batch.ensure_resident(), watermark, index_starts.get(i))
    scanned = part.scan_rows()
    assert same(scanned, walked)
    assert same(sorted(scanned, key=repr), sorted(part.iter_rows(), key=repr))


def decode_differential(seed: int) -> None:
    rng = random.Random(seed)
    n_strings, null_mode = seed % 4, NULL_MODES[seed // 4 % 3]
    schema, key = random_schema(rng, n_strings)
    unique_keys = rng.random() < 0.5
    codec = RowCodec(schema)
    # Records back to back, as the codec writes them, all-NULL ones included.
    rows = random_rows(rng, schema, key, rng.randint(1, 300), null_mode, unique_keys)
    if null_mode == "all_null":
        rows.insert(rng.randrange(len(rows) + 1), (None,) * len(schema))
    buf = bytearray(b"".join(codec.encode(row, (1 << 64) - 1) for row in rows))
    _, bounds = walk(codec, buf, len(buf))
    assert same(check_decode_all(rng, codec, buf, len(buf), np.array(bounds[:-1])), rows)
    # Through a partition: the array layout (when the codec takes the rows)
    # and the row layout, then appended versions.
    for layout in ("array", "row"):
        part = IndexedPartition(schema, key, batch_size=rng.choice((2048, 4096)))
        if layout == "row":
            part.codec.encode_records = lambda batch: None
        rows = random_rows(rng, schema, key, rng.randint(2, 400), null_mode, unique_keys)
        part.insert_rows(rows)
        check_version(rng, part)
        assert same(sorted(part.scan_rows(), key=repr), sorted(rows, key=repr))
        version = part
        for v in (1, 2):
            version = version.snapshot(v)
            version.insert_rows(random_rows(rng, schema, key, rng.randint(1, 120), null_mode, False))
            check_version(rng, version)
        check_version(rng, part)  # the parent's watermarks stop where it did


class TestDecodeDifferential:
    """``decode_all`` (with and without the index's record starts) and
    ``scan_rows`` against the per-record walk, over seeded random inputs."""

    @pytest.mark.parametrize("seed", range(40))
    def test_seed(self, seed: int) -> None:
        decode_differential(seed)

    @pytest.mark.slow
    def test_many_seeds(self) -> None:
        for seed in range(40, 440):
            decode_differential(seed)
