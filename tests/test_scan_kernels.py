"""The full-scan kernels of DESIGN.md §18 and the aggregate's dense group ids.

* One column batch a partition: ``scan_columns`` over every visible row
  batch answers the projected ``scan_rows``, or None exactly where a record
  cannot be viewed (a NULL, a short record) or the version is not
  contiguous — a seeded differential over many small batches.
* Record starts from the index: where this version's index pointers tile a
  row batch, they are its record starts — the same the ``row_len`` walk
  finds; every other batch is walked, and the column batch is the same.
* Strings decoded per window: one latin-1 decode of the selected rows' bytes,
  sliced, whenever every slice is ASCII; the per-value UTF-8 decode otherwise.
* Dense group ids: one integer key spanning at most the batch's row count is
  grouped by ``bincount`` + ``cumsum``, with the ``np.unique`` path's keys,
  order and ids.
"""

import random
import zlib

import numpy as np
import pytest

from repro.indexed import partition as partition_module
from repro.indexed.row_batch import spill_partition
from repro.indexed.partition import IndexedPartition
from repro.indexed.row_codec import RowCodec
from repro.sql import aggregates
from repro.sql.aggregates import _group_rows
from repro.sql.functions import col
from repro.sql.types import BOOLEAN, DOUBLE, INTEGER, LONG, STRING, Schema

#: Fixed-length strings make every record 26 bytes: 10 a batch of 260.
STR_SCHEMA = Schema.of(("s", STRING), ("x", LONG))
RECORD = 26
USER_SCHEMA = Schema.of(("uid", LONG), ("name", STRING), ("score", DOUBLE))


def str_rows(keys):
    return [(f"s{k % 10_000:04d}", k) for k in keys]


def make(rows=(), key="x", batch_size=10 * RECORD, schema=STR_SCHEMA, **kw) -> IndexedPartition:
    p = IndexedPartition(schema, key, batch_size=batch_size, **kw)
    if rows:
        p.insert_rows(list(rows))
    return p


def walked(p) -> dict:
    """Each visible batch's record starts, from the ``row_len`` walk."""
    return {
        i: p.codec.record_starts(batch.buf, wm)
        for i, (batch, wm) in enumerate(zip(p.batches, p.visible_watermarks()))
        if wm
    }


def assert_index_starts_are_the_walks(p, every_batch=True):
    index, walk = p._index_starts(), walked(p)
    assert set(index) <= set(walk)
    for b, starts in index.items():
        assert starts.tolist() == walk[b].tolist(), b
    if every_batch:
        assert set(index) == set(walk)
    return index


def walk_only(p, names):
    """``scan_columns`` with every batch's starts walked."""
    return p.codec.column_batch(
        [(batch.buf, wm) for batch, wm in zip(p.batches, p.visible_watermarks()) if wm], names
    )


#: The differential's schemas: every fixed-width type, and strings before,
#: between and after fixed-width columns.
DIFF_SCHEMAS = (
    Schema.of(("k", LONG), ("i", INTEGER), ("w", DOUBLE), ("ok", BOOLEAN)),
    Schema.of(("head", STRING), ("k", LONG), ("mid", STRING), ("w", DOUBLE), ("i", INTEGER), ("tail", STRING)),
)


def random_row(rng, schema, null_share=0.0):
    values = []
    for field in schema.fields:
        if rng.random() < null_share:
            values.append(None)
        elif field.name == "k":
            values.append(rng.randrange(40))  # duplicate keys: chains and walked starts
        elif field.dtype == LONG:
            values.append(rng.randrange(-(2**63), 2**63))
        elif field.dtype == INTEGER:
            values.append(rng.randrange(-(2**31), 2**31))
        elif field.dtype == DOUBLE:
            values.append(rng.uniform(-1e6, 1e6))
        elif field.dtype == BOOLEAN:
            values.append(rng.random() < 0.5)
        else:
            values.append("".join(rng.choice("ab zé日") for _ in range(rng.randrange(12))))
    return tuple(values)


def scan_differential(seed: int, spill_dir: str) -> int:
    """One seeded partition history — a first build, appended versions, a
    NULL now and then, a diverged sibling, spilled batches — and, for every
    version, ``scan_columns`` of random names against the projected
    ``scan_rows()``. Returns how many versions were viewed."""
    rng = random.Random(seed)
    schema = rng.choice(DIFF_SCHEMAS)
    key = rng.choice([n for n in ("k", "head") if n in schema.names()])
    part = IndexedPartition(
        schema, key, batch_size=rng.randrange(256, 4097), ordered_compact_threshold=rng.choice([0, 4, 512])
    )
    versions = [part]
    if rng.random() < 0.9:
        part.insert_rows([random_row(rng, schema) for _ in range(rng.randrange(1, 300))])
    for _ in range(rng.randrange(4)):
        version = versions[-1].snapshot(len(versions))
        share = 0.2 if rng.random() < 0.15 else 0.0
        version.insert_rows([random_row(rng, schema, share) for _ in range(rng.randrange(1, 80))])
        versions.append(version)
    if rng.random() < 0.2:  # siblings writing into one shared tail
        parent = versions[-1]
        for sibling in (parent.snapshot(len(versions)), parent.snapshot(len(versions))):
            sibling.insert_rows([random_row(rng, schema) for _ in range(rng.randrange(1, 4))])
            versions.append(sibling)
    if rng.random() < 0.3:
        spill_partition(rng.choice(versions), spill_dir=spill_dir, keep_tail=rng.random() < 0.5)
    viewed = 0
    for version in versions:
        names = rng.sample(schema.names(), rng.randrange(len(schema) + 1))
        batch = version.scan_columns(names)
        rows = version.scan_rows()
        if not version.contiguous or any(None in row for row in rows):
            assert batch is None, (seed, version.version)
            continue
        assert batch.num_rows == len(rows), (seed, version.version)
        ordinals = [schema.index_of(n) for n in names]
        assert batch.to_rows() == [tuple(row[i] for i in ordinals) for row in rows], (seed, names)
        viewed += 1
    return viewed


@pytest.mark.parametrize(
    "seeds",
    [range(40), pytest.param(range(40, 440), marks=pytest.mark.slow)],
    ids=["40-seeds", "400-seeds"],
)
def test_one_column_batch_is_the_projected_row_scan(seeds, tmp_path):
    viewed = [scan_differential(seed, str(tmp_path)) for seed in seeds]
    assert sum(viewed) > len(viewed)  # most histories are viewable


class TestOneBatchAPartition:
    def test_many_batches_are_one_column_batch(self):
        p = make(str_rows(range(95)))
        assert len(p.batches) == 10
        batch = p.scan_columns(["x", "s"])
        assert batch.num_rows == 95 and batch.to_rows() == [(k, f"s{k:04d}") for k in range(95)]

    def test_no_names_copies_no_string_bytes(self, monkeypatch):
        p = make(str_rows(range(95)))
        joined, concatenate = [], np.concatenate
        monkeypatch.setattr(
            np, "concatenate", lambda arrays, *a, **kw: joined.extend(arrays) or concatenate(arrays, *a, **kw)
        )
        assert p.scan_columns(["x"]) is not None
        assert any(part.dtype == np.uint8 for part in joined)  # the bytes, joined for a gather
        joined.clear()
        batch = p.scan_columns([])
        assert not any(part.dtype == np.uint8 for part in joined)
        assert batch.num_rows == 95 and not batch.columns and not batch.deferred

    def test_an_empty_partition_is_an_empty_batch(self):
        for schema, key in ((STR_SCHEMA, "x"), (DIFF_SCHEMAS[0], "k")):
            batch = make(schema=schema, key=key).scan_columns(schema.names())
            assert batch.num_rows == 0 and batch.to_rows() == []
            assert all(len(batch.column(n)) == 0 for n in schema.names())

    def test_starts_are_counted_per_batch(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        p = make(str_rows(list(range(10)) + [9] + list(range(11, 30))))  # batch 0 does not tile
        assert p.scan_columns(["s"], registry) is not None
        counts = registry.counter_by_label("indexed_scan_starts_total", "source")
        assert counts == {"index": len(p._index_starts()), "walk": 1}
        assert sum(counts.values()) == len(p.batches) == 3


class TestStartsFromTheIndex:
    def test_unique_keys_tile_every_batch(self):
        p = make(str_rows(random.Random(1).sample(range(500), 95)))
        assert len(p.batches) == 10
        assert_index_starts_are_the_walks(p)

    def test_appends_into_the_delta_tile(self):
        v0 = make(str_rows(range(0, 95)))
        v1 = v0.snapshot(1)
        v1.insert_rows(str_rows(range(1000, 1013)))
        v1.insert_rows(str_rows(range(2000, 2004)))
        assert v1.ordered.delta_writes and len(v1.ordered.delta) == 17
        assert_index_starts_are_the_walks(v1)
        assert_index_starts_are_the_walks(v0)  # the parent's pointers stop at its watermarks

    def test_a_shadowed_key_still_tiles_until_a_seal(self):
        p = make(str_rows(range(95)), ordered_compact_threshold=8)
        p.insert_rows(str_rows([3, 500]))  # key 3's old row is still a base head
        assert_index_starts_are_the_walks(p)
        p.insert_rows(str_rows(range(600, 610)))  # seals: key 3's old row has no pointer
        assert not p.ordered.delta_writes
        index = assert_index_starts_are_the_walks(p, every_batch=False)
        assert 0 not in index and len(index) == len(walked(p)) - 1

    def test_a_seal_after_unique_appends_tiles(self):
        p = make(str_rows(range(95)), ordered_compact_threshold=8)
        for lo in range(100, 160, 3):
            p.insert_rows(str_rows(range(lo, lo + 3)))  # seals every few appends
        assert_index_starts_are_the_walks(p)

    @pytest.mark.parametrize("key", ["x", "s"], ids=["long", "hashed"])
    def test_a_null_key_row_tiles(self, key):
        rows = str_rows(range(40))
        null = (None, 40) if key == "s" else ("sNULL", None)
        p = make(rows[:20] + [null] + rows[20:], key=key, ordered_compact_threshold=4)
        p.insert_rows(str_rows(range(100, 106)))  # a seal keeps the NULL head in the delta
        assert_index_starts_are_the_walks(p)

    def test_hashed_string_keys_tile(self):
        p = make(str_rows(range(95)), key="s")
        assert p.hashed
        assert_index_starts_are_the_walks(p)


class TestBatchesThatDoNotTile:
    def assert_same_as_the_walk(self, p, untiled):
        index = assert_index_starts_are_the_walks(p, every_batch=False)
        assert set(walked(p)) - set(index) == set(untiled)
        names = ["x", "s"]
        got = p.scan_columns(names)
        assert got.to_rows() == walk_only(p, names).to_rows() == [(r[1], r[0]) for r in p.scan_rows()]

    def test_duplicate_keys(self):
        rows = str_rows(random.Random(2).choices(range(12), k=95))
        p = make(rows)
        untiled = set(walked(p)) - set(p._index_starts())
        assert untiled
        self.assert_same_as_the_walk(p, untiled)

    def test_a_batchs_last_record_shadowed_by_the_next_batch(self):
        # Rows 0-9 fill batch 0; the row after it repeats key 9, so batch
        # 0's pointers tile all but its last record.
        keys = list(range(10)) + [9] + list(range(11, 30))
        p = make(str_rows(keys))
        self.assert_same_as_the_walk(p, {0})

    def test_a_batchs_first_record_shadowed(self):
        keys = list(range(30)) + [0]  # batch 0's first record is no head
        self.assert_same_as_the_walk(make(str_rows(keys)), {0})

    def test_forced_hash32_collisions(self, monkeypatch):
        monkeypatch.setattr(
            partition_module, "hash32", lambda key: zlib.crc32(str(key).encode()) % 13
        )
        p = make(str_rows(range(95)), key="s")
        assert len(p.ordered) == 95 and len(p.ordered.base.keys) <= 13
        untiled = set(walked(p)) - set(p._index_starts())
        assert untiled
        self.assert_same_as_the_walk(p, untiled)

    def test_threshold_zero_walks_every_batch(self):
        p = make(str_rows(range(95)), ordered_compact_threshold=0)
        assert p._index_starts() == {}
        self.assert_same_as_the_walk(p, set(walked(p)))

    def test_spilled_batches_fault_in(self, tmp_path):
        p = make(str_rows(range(95)))
        spill_partition(p, spill_dir=str(tmp_path), keep_tail=False)
        assert not any(b.resident for b in p.batches)
        assert len(p._index_starts()) == len(p.batches)  # the index reads no batch
        assert p.spill_faults() == 0
        batch = p.scan_columns(["x", "s"])
        assert p.spill_faults() == len(p.batches)
        assert batch.to_rows() == [(k, f"s{k:04d}") for k in range(95)]

    def test_a_non_contiguous_sibling_is_none(self):
        parent = make(str_rows(range(5)))
        a, b = parent.snapshot(1), parent.snapshot(1)
        a.insert_rows(str_rows([100]))
        b.insert_rows(str_rows([200]))  # lands after a's row in the shared tail
        assert_index_starts_are_the_walks(a)
        assert a.scan_columns(["x"]).to_rows() == [(k,) for k in [0, 1, 2, 3, 4, 100]]
        assert not b.contiguous and b.scan_columns(["x"]) is None


class TestStartsCounter:
    def test_a_unique_key_string_table_scans_every_batch_from_the_index(self, session):
        rng = random.Random(4)
        users = [(uid, "n" * rng.randrange(1, 30), rng.random() * 100) for uid in range(3000)]
        rng.shuffle(users)
        v0 = session.create_dataframe(users, USER_SCHEMA, "users").create_index("uid").cache_index()
        registry = session.context.registry
        query = "SELECT uid, name FROM users WHERE score > 50"

        def scanned(idf):
            before = registry.counter_by_label("indexed_scan_starts_total", "source")
            idf.create_or_replace_temp_view("users")
            got = session.sql(query).collect_tuples()
            after = registry.counter_by_label("indexed_scan_starts_total", "source")
            visible = sum(
                sum(1 for wm in p.visible_watermarks() if wm) for p in idf.materialize_partitions()
            )
            assert visible > len(idf.materialize_partitions())  # several batches a partition
            assert after.get("index", 0) - before.get("index", 0) == visible
            assert after.get("walk", 0) == before.get("walk", 0)
            return sorted(got)

        assert scanned(v0) == sorted((u, n) for u, n, s in users if s > 50)
        extra = [(uid, f"a{uid}", rng.random() * 100) for uid in range(3000, 3200)]
        v1 = v0.append_rows(extra).cache_index()
        assert scanned(v1) == sorted((u, n) for u, n, s in users + extra if s > 50)

    def test_duplicate_keys_count_walks(self, session, users):
        # Three copies of each row, one batch a partition: no batch tiles.
        idf = session.create_dataframe(users * 3, USER_SCHEMA, "users").create_index("uid")
        idf.cache_index().create_or_replace_temp_view("users")
        session.sql("SELECT name FROM users WHERE score > 1").collect_tuples()
        counts = session.context.registry.counter_by_label("indexed_scan_starts_total", "source")
        assert counts["walk"] > 0 and counts.get("index", 0) == 0


def codec_batch(values, max_row_size=1024):
    """One buffer of ``(s, x)`` records and a codec that reads it."""
    codec = RowCodec(STR_SCHEMA, max_row_size=max_row_size)
    buf = bytearray(b"".join(codec.encode((v, i), 0) for i, v in enumerate(values)))
    return codec, buf


class TestWindowDecode:
    @pytest.mark.parametrize(
        "values",
        [
            ["abc", "", "x" * 40, "", "zz"],
            ["été", "ascii", "", "日本語", "naïve", "a"],
            ["", "", ""],
            ["\x7f", "\x00", "ok"],
        ],
        ids=["ascii", "non-ascii", "all-empty", "control"],
    )
    def test_values_equal_the_utf8_decode(self, values):
        codec, buf = codec_batch(values)
        batch = codec.column_batch([(buf, len(buf))], ["s", "x"])
        assert batch.column("s").tolist() == values
        decode = codec.column_batch([(buf, len(buf))], ["s"]).deferred["s"]
        for rows in ([0], [len(values) - 1], [2, 0], list(range(len(values)))[::-1], []):
            assert decode(np.array(rows, np.intp)).tolist() == [values[r] for r in rows]

    def test_maximum_length_strings(self):
        longest = 1024 - 10 - 1 - 2 - 8
        values = ["m" * longest, "é" * (longest // 2), "", "q" * longest]
        codec, buf = codec_batch(values)
        with pytest.raises(ValueError):
            codec.encode(("m" * (longest + 1), 0), 0)
        assert codec.column_batch([(buf, len(buf))], ["s"]).column("s").tolist() == values

    def test_ascii_rows_selected_beside_non_ascii_ones(self):
        values = ["ab", "ü", "cd", "ß", "ef"]
        codec, buf = codec_batch(values)
        batch = codec.column_batch([(buf, len(buf))], ["s", "x"])
        kept = batch.scan(col("x") % 2 == 0, ["s"])
        assert kept.to_rows() == [("ab",), ("cd",), ("ef",)]
        kept = batch.scan(col("x") > 0, ["s"])
        assert kept.to_rows() == [(v,) for v in values[1:]]

    def test_invalid_utf8_raises_what_the_per_value_decode_raises(self):
        codec, buf = codec_batch(["good", "bad!", "fine"])
        at = buf.index(b"bad!")
        buf[at + 1] = 0xFF  # an invalid start byte inside the second string
        with pytest.raises(UnicodeDecodeError) as expected:
            str(buf[at : at + 4], "utf-8")
        batch = codec.column_batch([(buf, len(buf))], ["s"])
        with pytest.raises(UnicodeDecodeError) as raised:
            batch.column("s")
        assert str(raised.value) == str(expected.value)
        decode = codec.column_batch([(buf, len(buf))], ["s"]).deferred["s"]
        assert decode(np.array([0, 2], np.intp)).tolist() == ["good", "fine"]  # the bad row not asked


def unique_groups(column):
    """The ``np.unique`` path: ascending keys, first-seen-row form, ids."""
    _, first, ids = np.unique(column, return_index=True, return_inverse=True)
    return [(v,) for v in column[first].tolist()], ids


class TestDenseGroupIds:
    @pytest.fixture()
    def unique_calls(self, monkeypatch):
        calls = []
        real = np.unique

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(aggregates.np, "unique", counting)
        return calls

    def assert_like_unique(self, column, dense, unique_calls):
        want_keys, want_ids = unique_groups(column)
        unique_calls.clear()
        keys, groups = _group_rows([column], len(column))
        assert keys == want_keys
        assert [type(k[0]) for k in keys] == [type(k[0]) for k in want_keys]
        assert groups.count == len(want_keys)
        assert np.array_equal(groups.ids, want_ids)
        assert groups.ids.dtype == np.intp
        assert bool(unique_calls) != dense  # the dense path takes no np.unique

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_columns(self, seed, unique_calls):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        low = int(rng.integers(-(10**6), 10**6))
        span = int(rng.integers(1, 2 * n + 1))
        column = rng.integers(low, low + span, n, dtype=np.int64)
        dense = int(column.max()) - int(column.min()) < n
        self.assert_like_unique(column, dense, unique_calls)
        self.assert_like_unique(column.astype(np.int32), dense, unique_calls)

    def test_negative_keys(self, unique_calls):
        column = np.array([-3, -7, -3, -5, -7, -4, -6], np.int64)
        self.assert_like_unique(column, True, unique_calls)

    def test_uint64(self, unique_calls):
        top = np.iinfo(np.uint64).max
        self.assert_like_unique(np.array([top, top - 2, top, top - 1], np.uint64), True, unique_calls)
        self.assert_like_unique(np.array([5, 2, 5, 3], np.uint64), True, unique_calls)
        self.assert_like_unique(np.array([5, 1, 5, 3], np.uint64), False, unique_calls)

    def test_span_of_exactly_num_rows_and_one_more(self, unique_calls):
        n = 50
        exact = np.random.default_rng(3).permutation(np.arange(100, 100 + n))
        self.assert_like_unique(exact, True, unique_calls)
        wider = exact.copy()
        wider[7] = 100 + n  # span n + 1
        self.assert_like_unique(wider, False, unique_calls)

    def test_one_group_and_all_distinct(self, unique_calls):
        self.assert_like_unique(np.full(30, 42, np.int64), True, unique_calls)
        self.assert_like_unique(np.array([9], np.int64), True, unique_calls)
        self.assert_like_unique(np.random.default_rng(4).permutation(60) - 30, True, unique_calls)

    def test_int64_extremes(self, unique_calls):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        self.assert_like_unique(np.array([lo, lo + 2, lo, lo + 1], np.int64), True, unique_calls)
        self.assert_like_unique(np.array([hi, hi - 3, hi, hi - 1], np.int64), True, unique_calls)
        self.assert_like_unique(np.array([lo, hi, 0, hi, lo], np.int64), False, unique_calls)
        for dtype in (np.int8, np.int16, np.uint8):
            info = np.iinfo(dtype)
            column = np.resize(np.array([info.min, info.max, 0, 1], dtype), 2 * (1 << (info.bits - 1)))
            dense = int(info.max) - int(info.min) < len(column)
            self.assert_like_unique(column, dense, unique_calls)

    def test_other_keys_keep_the_unique_path(self, unique_calls):
        floats = np.array([1.0, 2.0, 1.0])
        self.assert_like_unique(floats, False, unique_calls)
        unique_calls.clear()
        keys, groups = _group_rows([np.array([1, 2, 1]), np.array([3, 3, 4])], 3)
        assert keys == [(1, 3), (1, 4), (2, 3)] and groups.ids.tolist() == [0, 2, 1]
        assert unique_calls

    def test_a_group_by_answers_alike(self, session):
        rng = random.Random(6)
        rows = [(rng.randrange(-40, 40), rng.randrange(5), rng.random()) for _ in range(2000)]
        schema = Schema.of(("k", LONG), ("g", LONG), ("v", DOUBLE))
        idf = session.create_dataframe(rows, schema, "t").create_index("g").cache_index()
        idf.create_or_replace_temp_view("t")
        got = session.sql("SELECT k, count(*) AS n, sum(g) AS s FROM t GROUP BY k").collect_tuples()
        want: dict = {}
        for k, g, _ in rows:
            n, s = want.get(k, (0, 0))
            want[k] = (n + 1, s + g)
        assert sorted(got) == sorted((k, n, s) for k, (n, s) in want.items())
