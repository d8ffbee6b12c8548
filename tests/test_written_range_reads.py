"""Range reads on a written index (DESIGN.md §15, Range reads on a written
index): the sorted ``fresh`` tier, ``OrderedIndex.range_heads`` and the
multi-chain kernel against a per-key walk.

A seeded differential writes to an index after its first build — keys no
earlier row carried (``fresh``), updates that shadow base keys, NULL keys —
through snapshot children, two siblings diverging in one shared tail batch
(non-contiguous), and spills of every batch but the tail, so chain walks
fault batches back in part-way. LONG keys over fixed-width rows (runs) and
over rows with a string (a plain base), and hashed STRING keys (the hash
squeezed to 199 values: most chains mix keys), prefix ranges on strings,
seal thresholds 0 (the cTrie, never sealed), 7, 512 and one never reached.
After every step each version's ``range_lookup`` must return exactly the rows
a per-key walk returns (every key value ``KeyRange.matches``, ascending, each
key's chain walked on its own and hash collisions filtered), order included,
and a dict-of-lists oracle's.

A counted test pins the cost: a range over ≥ 500 fresh keys is one chain
kernel call and evaluates no per-key predicate.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.indexed import partition as partition_module
from repro.indexed.ordered_index import KeyRange
from repro.indexed.partition import IndexedPartition
from repro.indexed.pointers import NULL_POINTER
from repro.indexed.row_batch import spill_partition
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

NEVER_REACHED = 10**6
THRESHOLDS = (0, 7, 512, NEVER_REACHED)
#: A fixed-width first build is placed in key order (its keys are runs); a
#: LONG key over rows with a string (``serve_mixed``'s ``users``) seals a
#: plain base whose keys are read through ``range_heads``, as are hashed
#: STRING keys.
SCHEMAS = {
    "int": Schema.of(("k", LONG), ("seq", LONG), ("w", DOUBLE)),
    "rows": Schema.of(("k", LONG), ("seq", LONG), ("w", STRING)),
    "hashed": Schema.of(("k", STRING), ("seq", LONG), ("w", DOUBLE)),
}
KINDS = tuple(SCHEMAS)
BASE_DOMAIN = 200  # first-build keys; written keys reach twice as far


def make_key(kind: str, i: int):
    return f"{'ab'[i % 2]}{i:04d}" if kind == "hashed" else i


@pytest.fixture
def colliding_hash32(monkeypatch):
    monkeypatch.setattr(
        partition_module, "hash32", lambda key: zlib.crc32(str(key).encode()) % 199
    )


def per_key_walk(part: IndexedPartition, krange: KeyRange, values: "set | None" = None) -> "tuple[list[tuple], list]":
    """The range read as it was before ``range_heads``: every key value the
    version holds (``values``, else read off its rows) that
    ``krange.matches``, ascending, each walked on its own from its head (one
    kernel call a key), hash collisions filtered."""
    if values is None:
        values = {row[0] for row in part.iter_rows() if row[0] is not None}
    keys = sorted(key for key in values if krange.matches(key))
    rows = []
    for key in keys:
        head = part.ordered.head(part.index_key(key))
        assert head != NULL_POINTER
        rows += [r for r in part.codec.decode_chains(part.batches, [head])[0] if r[0] == key]
    return rows, keys


class Version:
    def __init__(self, part: IndexedPartition, oracle: dict) -> None:
        self.part = part
        self.oracle = oracle  # key -> rows, newest first

    def child(self, version: int) -> "Version":
        return Version(self.part.snapshot(version), {k: list(v) for k, v in self.oracle.items()})

    def insert(self, rows: list[tuple]) -> None:
        self.part.insert_rows(rows)
        for row in rows:
            self.oracle.setdefault(row[0], []).insert(0, row)

    def check(self, kind: str, rng: random.Random) -> None:
        part, oracle = self.part, self.oracle
        keys = sorted(k for k in oracle if k is not None)
        a, b = sorted(make_key(kind, rng.randrange(2 * BASE_DOMAIN + 10)) for _ in range(2))
        ranges = [
            KeyRange(a, b),
            KeyRange(a, b, lo_inclusive=False, hi_inclusive=False),
            KeyRange(lo=a),
            KeyRange(hi=b, hi_inclusive=False),
            KeyRange(b, a),
            KeyRange(a, a),
            KeyRange(),
        ]
        if kind == "hashed":
            ranges += [KeyRange.prefix_of(p) for p in ("a", "b01", a[:4], "zz", "")]
        values = {row[0] for row in part.iter_rows() if row[0] is not None}
        for krange in ranges:
            wanted = [k for k in keys if krange.matches(k)]
            expected = [r for k in wanted for r in oracle[k]]
            rows, scanned = part.range_lookup(krange)
            walked, walked_keys = per_key_walk(part, krange, values)
            assert rows == walked == expected, (part.version, krange)
            assert part.ordered.range_keys(krange) == walked_keys == wanted, (part.version, krange)
            assert scanned >= len(rows)
        assert part.num_keys() == len(oracle)


def has_room(version: Version) -> bool:
    """Whether the tail batch takes two more rows: siblings then share it."""
    tail = version.part.batches[-1]
    return tail.capacity - tail.used >= 128


def run_scenario(seed: int) -> None:
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    threshold = THRESHOLDS[seed // len(KINDS) % len(THRESHOLDS)]
    seq = 0

    def rows_of(keys: list) -> list[tuple]:
        nonlocal seq
        out = []
        for key in keys:
            seq += 1
            out.append((key, seq, f"w{seq}" if kind == "rows" else seq / 4))
        return out

    root = Version(
        IndexedPartition(SCHEMAS[kind], "k", batch_size=512, ordered_compact_threshold=threshold), {}
    )
    root.insert(rows_of([make_key(kind, rng.randrange(BASE_DOMAIN)) for _ in range(400)]))
    versions = [root]
    steps = ["fresh", "shadow", "null", "siblings", "spill"] + rng.choices(
        ["fresh", "shadow", "null", "siblings", "spill"], k=3
    )
    rng.shuffle(steps)
    diverged = spilled = False
    for number, step in enumerate(steps, start=1):
        parent = rng.choice(versions)
        if step == "spill":
            spill_partition(parent.part, keep_tail=True)
            faults = parent.part.spill_faults()
            parent.check(kind, rng)
            spilled |= parent.part.spill_faults() > faults  # a walk faulted a batch in
            continue
        if step == "siblings":
            if not has_room(parent):  # fill a child until its tail can take both siblings' rows
                parent = parent.child(number * 10 + 2)
                while not has_room(parent):
                    parent.insert(rows_of([make_key(kind, rng.randrange(2 * BASE_DOMAIN))]))
                versions.append(parent)
            touched = [parent.child(number * 10), parent.child(number * 10 + 1)]
            for sibling in touched:
                sibling.insert(rows_of([make_key(kind, rng.randrange(2 * BASE_DOMAIN))
                                        for _ in range(rng.randrange(1, 4))]))
            diverged |= not touched[1].part.contiguous
        else:
            child = parent.child(number * 10)
            if step == "fresh":  # keys no earlier row carried
                keys = [make_key(kind, BASE_DOMAIN + rng.randrange(BASE_DOMAIN)) for _ in range(60)]
            elif step == "shadow":  # new rows for base keys: the delta shadows them
                keys = [make_key(kind, rng.randrange(BASE_DOMAIN)) for _ in range(rng.choice((3, 30)))]
            else:
                keys = [None] * 3 + [make_key(kind, rng.randrange(2 * BASE_DOMAIN)) for _ in range(5)]
            child.insert(rows_of(keys))
            touched = [child]
        versions += touched
        for version in touched:
            version.check(kind, rng)
    for version in versions:  # every ancestor still answers as it did
        version.check(kind, rng)
    assert diverged and spilled, (diverged, spilled)


@pytest.mark.parametrize("seed", range(24))  # each kind and threshold twice
def test_range_reads_on_written_indexes_equal_a_per_key_walk(seed, colliding_hash32):
    run_scenario(seed)


@pytest.mark.parametrize("kind", KINDS)
def test_a_range_over_500_fresh_keys_is_one_kernel_call_and_no_key_predicate(kind, monkeypatch):
    """Under a threshold never reached, 600 keys written after the first
    build stay in the delta: a range over all of them and the base keys
    between reads every chain in one kernel call, and tests no key against
    the range one by one."""
    part = IndexedPartition(SCHEMAS[kind], "k", ordered_compact_threshold=NEVER_REACHED)
    w = "w" if kind == "rows" else 0.0
    part.insert_rows([(make_key(kind, 2 * i), i, w) for i in range(1000)])  # even keys: the base
    for start in range(0, 600, 200):  # odd keys: fresh, three publishes
        part.insert_rows([(make_key(kind, 2 * i + 1), i, w) for i in range(start, start + 200)])
    assert len(part.ordered.fresh) == 600 and part.ordered.delta_writes == 600
    krange = KeyRange(make_key(kind, 0), make_key(kind, 1199))
    expected, keys = per_key_walk(part, krange)
    assert sum(key in part.ordered.fresh for key in keys) == 600  # every fresh key, and base keys

    calls, matched = [], []
    codec = part.codec
    kernel = codec.decode_chains
    monkeypatch.setattr(codec, "decode_chains", lambda b, p: calls.append(len(p)) or kernel(b, p))
    matches = KeyRange.matches
    monkeypatch.setattr(KeyRange, "matches", lambda self, key: matched.append(key) or matches(self, key))
    rows, scanned = part.range_lookup(krange)
    walked = 600 if kind == "int" else len(keys)  # an int build's base keys are runs
    assert calls == [walked] and matched == []
    assert rows == expected and len(rows) == scanned == len(keys)


def test_like_prefix_over_a_written_string_index_answers_as_a_plain_table():
    """Through SQL: a ``LIKE`` prefix on an appended string-keyed index reads
    the fresh keys and the shadowed base keys as a plain table does."""
    schema = SCHEMAS["hashed"]
    rows = [(make_key("hashed", i % 150), i, i / 2) for i in range(600)]
    session = Session()
    idf = session.create_dataframe(rows, schema, "t").create_index("k", num_partitions=4)
    more = [(make_key("hashed", 100 + i % 120), 1000 + i, 0.0) for i in range(240)]
    idf.append_rows(more).append_rows([(None, 5000, 0.0)]).create_or_replace_temp_view("t")
    session.create_dataframe(rows + more + [(None, 5000, 0.0)], schema, "plain").create_or_replace_temp_view(
        "plain"
    )
    for prefix in ("a01", "b02", "a", "b00"):  # shadowed and fresh, fresh only, all, base only
        where = f" WHERE k LIKE '{prefix}%'"
        assert "IndexedRangeScan" in session.sql_explain("SELECT * FROM t" + where)
        got = session.sql("SELECT * FROM t" + where).collect_tuples()
        assert got and sorted(got) == sorted(session.sql("SELECT * FROM plain" + where).collect_tuples())
