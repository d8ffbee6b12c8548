"""``insert_rows``' two layouts write the same bytes (DESIGN.md §5).

A batch of more than one row of a string-free schema, every value of which
survives the trip through a structured array, takes the array layout
(:meth:`RowCodec.encode_records`, placed a chunk per row batch); anything
else is encoded row by row. The reference here is a partition whose codec
never hands out records, so it writes everything row by row. A seeded
differential feeds both the same calls — random INTEGER/LONG/DOUBLE/BOOLEAN
schemas in any column order, batches of 1…5 000 rows with repeated keys, into
empty, sealed, delta-holding and snapshot-sibling partitions sharing a tail —
and after every call asserts the same bytes, watermarks, ``contiguous``, CRC
marks and index entries (pointers included, so the same chains), and chains
that hold what was inserted. Rows the array layout must refuse produce
exactly the row layout's bytes or its exception. A first array build (into
a partition with no batches) is placed in key order (DESIGN.md §15, Runs):
its reference is the row layout fed the same rows stably sorted by key.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.indexed.partition import IndexedPartition
from repro.sql.types import BOOLEAN, DOUBLE, INTEGER, LONG, Schema

FIXED = (INTEGER, LONG, DOUBLE, BOOLEAN)


class Pair:
    """One version written by both layouts, and (``oracle``, when the rows
    decode to what went in) each key's rows, newest first."""

    def __init__(self, array: IndexedPartition, rows: IndexedPartition, oracle) -> None:
        self.array, self.rows, self.oracle = array, rows, oracle

    @classmethod
    def root(cls, schema: Schema, key: str, batch_size: int, threshold: int, oracle=True):
        array, rows = (
            IndexedPartition(schema, key, batch_size=batch_size, ordered_compact_threshold=threshold)
            for _ in range(2)
        )
        rows.codec.encode_records = lambda batch: None  # the reference: row by row
        return cls(array, rows, {} if oracle else None)

    def child(self) -> "Pair":
        version = self.array.version + 1
        oracle = None if self.oracle is None else {k: list(v) for k, v in self.oracle.items()}
        return Pair(self.array.snapshot(version), self.rows.snapshot(version), oracle)

    def insert(self, batch: list) -> bool:
        """Both layouts take ``batch``; True when the array layout did."""
        took_array = self.array.codec.encode_records(batch) is not None
        before = self.array.row_count
        key_ord = self.array.key_ordinal
        placed = batch
        if took_array and not self.array.batches:  # a first array build: key order
            placed = sorted(batch, key=lambda row: row[key_ord])
        outcomes = []
        for part, rows in ((self.array, batch), (self.rows, placed)):
            try:
                outcomes.append(part.insert_rows(rows))
            except (ValueError, struct.error) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        if self.oracle is not None:
            for row in placed[: self.array.row_count - before]:
                self.oracle.setdefault(row[key_ord], []).insert(0, tuple(row))
        self.check()
        return took_array

    def check(self) -> None:
        a, r = self.array, self.rows
        assert len(a.batches) == len(r.batches)
        for x, y in zip(a.batches, r.batches):
            assert x.used == y.used
            assert bytes(x.buf[: x.used]) == bytes(y.buf[: y.used])
            assert x._crc_marks == y._crc_marks
        assert a.visible_watermarks() == r.visible_watermarks()
        assert a.contiguous == r.contiguous
        assert (a.row_count, a.data_bytes) == (r.row_count, r.data_bytes)
        assert list(a.ordered.items()) == list(r.ordered.items())
        assert a.ordered.delta_writes == r.ordered.delta_writes
        assert list(map(len, a.ordered.base)) == list(map(len, r.ordered.base))
        if self.oracle is not None:
            assert a.lookup_many(self.oracle) == self.oracle


def random_schema(rng: random.Random) -> tuple[Schema, str]:
    types = [rng.choice(FIXED) for _ in range(rng.randrange(1, 6))]
    schema = Schema.of(*((f"c{i}", t) for i, t in enumerate(types)))
    return schema, f"c{rng.randrange(len(types))}"


def random_value(rng: random.Random, dtype, domain: "int | None") -> object:
    """A value of ``dtype`` (one of ``domain`` distinct ones for the key);
    outside the key, sometimes one of another type that equals one (``3``
    for ``3.0``)."""
    if dtype is BOOLEAN:
        return rng.random() < 0.5 if domain or rng.random() < 0.9 else rng.randrange(2)
    if domain is not None:
        k = rng.randrange(domain)
        return k / 4 if dtype is DOUBLE else k
    if dtype is DOUBLE:
        return rng.uniform(-1e9, 1e9) if rng.random() < 0.8 else rng.randrange(-1000, 1000)
    bits = 31 if dtype is INTEGER else 63
    return rng.randrange(-(2**bits), 2**bits)


def random_batch(rng: random.Random, schema: Schema, key: str, domain: int) -> list[tuple]:
    size = int(5000 ** rng.random() ** 2)  # 1 … 5 000, mostly small
    types = [f.dtype for f in schema.fields]
    key_ord = schema.index_of(key)
    return [
        tuple(random_value(rng, t, domain if i == key_ord else None) for i, t in enumerate(types))
        for _ in range(size)
    ]


def run_differential(seed: int, steps: int) -> list[int]:
    """Returns how many batches took the row layout and the array layout."""
    rng = random.Random(seed)
    schema, key = random_schema(rng)
    domain = rng.choice((3, 40, 600))
    pair = Pair.root(schema, key, rng.choice((256, 1000, 4096)), rng.choice((0, 7, 512)))
    versions = [pair]
    paths = [0, 0]
    for _ in range(steps):
        target = rng.choice(versions)
        if rng.random() < 0.6:
            touched = [target]
        else:  # two children of one parent: the second writes into a shared tail
            touched = [target.child(), target.child()]
            versions += touched
        for version in touched:
            paths[version.insert(random_batch(rng, schema, key, domain))] += 1
    for version in versions:  # no later write moved an earlier version
        version.check()
    return paths


@pytest.mark.parametrize("seed", range(40))
def test_array_layout_writes_what_the_row_layout_writes(seed):
    run_differential(seed, 6)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40, 240))
def test_array_layout_writes_what_the_row_layout_writes_long(seed):
    run_differential(seed, 14)


def test_the_differential_exercises_both_layouts():
    rows, arrays = map(sum, zip(*(run_differential(seed, 6) for seed in range(8))))
    assert rows >= 5 and arrays >= 10, (rows, arrays)


SCHEMA = Schema.of(("n", INTEGER), ("k", LONG), ("w", DOUBLE), ("b", BOOLEAN), ("m", LONG))


@pytest.mark.parametrize(
    "bad",
    [
        (None, 1, 0.5, True, 1),  # NULLs: shorter records
        (1, 1, None, False, 1),
        (1, 1, 0.5, None, 1),
        (1, 1, float("nan"), True, 1),
        (1, 1, 0.5, True, 1.5),  # coerced by the row layout's generic path
        (1, 1, 0.5, 2, 1),
        (1, 1, 0.5, True, 2**63),  # out of range: the row layout's struct.error
        (2**31, 1, 0.5, True, 1),
        (1, 1, 0.5, True),  # wrong arity: its ValueError
        (1, 1, 0.5, True, 7, 7),
    ],
    ids=repr,
)
@pytest.mark.parametrize("threshold", (0, 512))
def test_rows_the_array_layout_refuses_are_written_row_by_row(bad, threshold):
    rng = random.Random(repr(bad))
    good = [(i, rng.randrange(20), i / 8, i % 3 == 0, -i) for i in range(2600)]
    pair = Pair.root(SCHEMA, "k", 1024, threshold, oracle=False)
    assert pair.insert(good[:100])
    batch = good[100:]
    batch.insert(rng.randrange(len(batch)), bad)  # mostly past the guard's first 1 024 rows
    assert not pair.insert(batch)
    assert pair.insert(good[:50])  # and takes records again after


def test_lists_as_rows_are_written_row_by_row():
    pair = Pair.root(SCHEMA, "k", 1024, 512)
    rows = [[i, i % 7, i / 2, True, i] for i in range(200)]
    assert not pair.insert(rows)
