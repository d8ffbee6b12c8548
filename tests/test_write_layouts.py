"""``insert_rows``' two layouts write the same bytes (DESIGN.md §5).

A batch of more than one row, every value of which survives the trip
through its record (:meth:`RowCodec.encode_records`: one structured array,
or for a schema with strings the records scattered into one byte buffer),
takes the array layout, placed a chunk per row batch; anything else is
encoded row by row. The reference here is a partition whose codec never
hands out records, so it writes everything row by row. A seeded
differential feeds both the same calls — random INTEGER/LONG/DOUBLE/BOOLEAN/
STRING schemas in any column order (STRING keys are hashed), ASCII,
non-ASCII and empty strings, batches of 1…5 000 rows with repeated keys,
now and then one NULL, non-``str`` or record of exactly and one byte over
``max_row_size``, into empty, sealed, delta-holding, snapshot-sibling
partitions sharing a tail and spilled tails — and after every call asserts
the same bytes, watermarks, ``contiguous``, CRC marks and index entries
(pointers included, so the same chains), and chains that hold what was
inserted. Rows the array layout must refuse produce exactly the row
layout's bytes or its exception. A first array build of equal-sized records
(into a partition with no batches) is placed in key order (DESIGN.md §15,
Runs): its reference is the row layout fed the same rows stably sorted by
key. Records with strings are placed in arrival order.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.indexed.partition import IndexedPartition
from repro.sql.types import BOOLEAN, DOUBLE, INTEGER, LONG, STRING, Schema

FIXED = (INTEGER, LONG, DOUBLE, BOOLEAN)
#: The exceptions a refused row raises from the row layout.
REFUSALS = (ValueError, struct.error, AttributeError, TypeError)


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
        records = self.array.codec.encode_records(batch)
        took_array = records is not None
        before = self.array.row_count
        key_ord = self.array.key_ordinal
        placed = batch
        if took_array and not isinstance(records, tuple) and not self.array.batches:
            placed = sorted(batch, key=lambda row: row[key_ord])  # a first build: key order
        outcomes = []
        for part, rows in ((self.array, batch), (self.rows, placed)):
            try:
                outcomes.append(part.insert_rows(rows))
            except REFUSALS as exc:
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
            assert bytes(x.ensure_resident()[: x.used]) == bytes(y.ensure_resident()[: y.used])
            assert x._crc_marks == y._crc_marks
        assert a.visible_watermarks() == r.visible_watermarks()
        assert a.contiguous == r.contiguous
        assert (a.row_count, a.data_bytes) == (r.row_count, r.data_bytes)
        assert list(a.ordered.items()) == list(r.ordered.items())
        assert a.ordered.delta_writes == r.ordered.delta_writes
        assert list(map(len, a.ordered.base)) == list(map(len, r.ordered.base))
        if self.oracle is not None:
            assert a.lookup_many(self.oracle) == self.oracle

    def spill_tail(self) -> None:
        """Spill both layouts' tail batch: the next write faults it back in."""
        for part in (self.array, self.rows):
            if part.batches:
                part.batches[-1].spill()


def random_schema(rng: random.Random, strings: bool) -> tuple[Schema, str]:
    kinds = FIXED + (STRING,) * (2 * strings)
    types = [rng.choice(kinds) for _ in range(rng.randrange(1, 6))]
    if strings and STRING not in types:
        types[rng.randrange(len(types))] = STRING
    schema = Schema.of(*((f"c{i}", t) for i, t in enumerate(types)))
    return schema, f"c{rng.randrange(len(types))}"


def random_string(rng: random.Random) -> str:
    """ASCII, non-ASCII (2-, 3- and 4-byte UTF-8) or empty."""
    alphabet = "abcxyz01" if rng.random() < 0.7 else "aé€😀ß"
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(-3, 14)))


def random_value(rng: random.Random, dtype, domain: "int | None") -> object:
    """A value of ``dtype`` (one of ``domain`` distinct ones for the key);
    outside the key, sometimes one of another type that equals one (``3``
    for ``3.0``)."""
    if dtype is BOOLEAN:
        return rng.random() < 0.5 if domain or rng.random() < 0.9 else rng.randrange(2)
    if domain is not None:
        k = rng.randrange(domain)
        if dtype is STRING:
            return ("", "k", "é", "😀")[k % 4] + (str(k) if k else "")
        return k / 4 if dtype is DOUBLE else k
    if dtype is STRING:
        return random_string(rng)
    if dtype is DOUBLE:
        return rng.uniform(-1e9, 1e9) if rng.random() < 0.8 else rng.randrange(-1000, 1000)
    bits = 31 if dtype is INTEGER else 63
    return rng.randrange(-(2**bits), 2**bits)


def random_batch(rng: random.Random, schema: Schema, key: str, domain: int, codec) -> list[tuple]:
    """1 … 5 000 rows, mostly few; with strings, half of the batches 1 024
    (one encode window) … 3 000. Three in ten batches with a
    non-key STRING column hold one row with a NULL, a non-``str``, or a
    string that makes its record exactly ``max_row_size`` or one byte over."""
    types = [f.dtype for f in schema.fields]
    size = int(5000 ** rng.random() ** 2)  # 1 … 5 000, mostly small
    if STRING in types and rng.random() < 0.5:
        size = rng.randrange(1024, 3000)
    key_ord = schema.index_of(key)
    rows = [
        tuple(random_value(rng, t, domain if i == key_ord else None) for i, t in enumerate(types))
        for _ in range(size)
    ]
    strings = [i for i, t in enumerate(types) if t is STRING and i != key_ord]
    if strings and rng.random() < 0.3:
        r, c = rng.randrange(size), rng.choice(strings)
        row = list(rows[r])
        short = codec.max_row_size - len(codec.encode(rows[r], 0))
        row[c] = rng.choice((None, 7, b"x", row[c] + "x" * short, row[c] + "x" * (short + 1)))
        rows[r] = tuple(row)
    return rows


def run_differential(seed: int, steps: int, strings: "bool | None" = None) -> list[int]:
    """Returns how many batches took the row layout and the array layout;
    ``strings`` forces a schema with (or without) a STRING column."""
    rng = random.Random(seed)
    schema, key = random_schema(rng, rng.random() < 0.5 if strings is None else strings)
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
            if rng.random() < 0.15:
                version.spill_tail()
            batch = random_batch(rng, schema, key, domain, version.array.codec)
            paths[version.insert(batch)] += 1
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
    for strings in (False, True):
        rows, arrays = map(sum, zip(*(run_differential(seed, 6, strings) for seed in range(8))))
        assert rows >= 5 and arrays >= 10, (strings, rows, arrays)


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
