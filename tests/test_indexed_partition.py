"""IndexedPartition: lookups vs a dict model, chains, MVCC snapshots,
string-key hashing, batch overflow, memory accounting."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexed.partition import IndexedPartition
from repro.sql.functions import col
from repro.sql.types import BOOLEAN, DOUBLE, INTEGER, LONG, STRING, Schema

EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("w", DOUBLE))
STR_SCHEMA = Schema.of(("tail", STRING), ("x", LONG))


def make_partition(schema=EDGE_SCHEMA, key="src", batch_size=1024, **kw) -> IndexedPartition:
    return IndexedPartition(schema, key, batch_size=batch_size, **kw)


class TestInsertLookup:
    def test_single_row(self):
        p = make_partition()
        p.insert_row((1, 2, 0.5))
        assert p.lookup(1) == [(1, 2, 0.5)]
        assert p.row_count == 1

    def test_missing_key_empty(self):
        p = make_partition()
        assert p.lookup(99) == []

    def test_duplicate_keys_newest_first(self):
        p = make_partition()
        p.insert_row((1, 10, 0.1))
        p.insert_row((1, 20, 0.2))
        p.insert_row((1, 30, 0.3))
        assert p.lookup(1) == [(1, 30, 0.3), (1, 20, 0.2), (1, 10, 0.1)]

    def test_bulk_insert_matches_model(self):
        rng = random.Random(9)
        rows = [(rng.randrange(40), rng.randrange(100), rng.random()) for _ in range(2000)]
        p = make_partition()
        assert p.insert_rows(rows) == 2000
        model: dict = {}
        for r in rows:
            model.setdefault(r[0], []).append(r)
        for k, expect in model.items():
            assert p.lookup(k) == list(reversed(expect))
        assert p.lookup(41) == []
        assert p.row_count == 2000

    def test_iter_rows_complete(self):
        rows = [(i % 7, i, float(i)) for i in range(500)]
        p = make_partition()
        p.insert_rows(rows)
        assert sorted(p.iter_rows()) == sorted(rows)

    def test_contains_and_num_keys(self):
        p = make_partition()
        p.insert_rows([(1, 0, 0.0), (1, 1, 0.0), (2, 0, 0.0)])
        assert p.contains_key(1) and p.contains_key(2) and not p.contains_key(3)
        assert p.num_keys() == 2

    def test_null_non_key_fields(self):
        p = make_partition()
        p.insert_row((5, None, None))
        assert p.lookup(5) == [(5, None, None)]


class TestBatchOverflow:
    def test_rows_span_many_batches(self):
        p = make_partition(batch_size=128)  # tiny batches force spills
        rows = [(i % 5, i, float(i)) for i in range(300)]
        p.insert_rows(rows)
        assert len(p.batches) > 5
        for k in range(5):
            assert len(p.lookup(k)) == 60

    def test_chain_crosses_batch_boundaries(self):
        p = make_partition(batch_size=128)
        p.insert_rows([(7, i, 0.0) for i in range(50)])
        got = p.lookup(7)
        assert [r[1] for r in got] == list(reversed(range(50)))

    def test_row_larger_than_batch_rejected(self):
        p = IndexedPartition(STR_SCHEMA, "tail", batch_size=32, max_row_size=1024)
        with pytest.raises(ValueError):
            p.insert_row(("x" * 200, 1))


class TestStringKeys:
    def test_string_lookup(self):
        p = IndexedPartition(STR_SCHEMA, "tail")
        p.insert_rows([("N100", 1), ("N200", 2), ("N100", 3)])
        assert p.lookup("N100") == [("N100", 3), ("N100", 1)]
        assert p.lookup("N300") == []

    def test_hash_collision_verified(self):
        """Two strings colliding in hash32 must not cross-contaminate."""
        from repro.utils.hashing import hash32

        # Find two colliding short strings (bounded search, ~50k tries).
        seen: dict[int, str] = {}
        pair = None
        i = 0
        while pair is None and i < 300_000:
            s = f"k{i}"
            h = hash32(s)
            if h in seen:
                pair = (seen[h], s)
            seen[h] = s
            i += 1
        if pair is None:
            pytest.skip("no 32-bit string collision found in bounded search")
        a, b = pair
        p = IndexedPartition(STR_SCHEMA, "tail")
        p.insert_row((a, 1))
        p.insert_row((b, 2))
        assert p.lookup(a) == [(a, 1)]
        assert p.lookup(b) == [(b, 2)]


class TestSnapshotMVCC:
    def test_snapshot_isolation_both_directions(self):
        parent = make_partition()
        parent.insert_rows([(1, 0, 0.0), (2, 0, 0.0)])
        child = parent.snapshot(1)
        child.insert_row((1, 99, 9.9))
        assert len(child.lookup(1)) == 2
        assert len(parent.lookup(1)) == 1  # parent untouched
        assert child.version == 1 and parent.version == 0

    def test_divergent_children_share_parent_state(self):
        parent = make_partition()
        parent.insert_rows([(k, 0, 0.0) for k in range(20)])
        a = parent.snapshot(1)
        b = parent.snapshot(1)
        a.insert_row((5, 100, 1.0))
        b.insert_row((5, 200, 2.0))
        assert [r[1] for r in a.lookup(5)] == [100, 0]
        assert [r[1] for r in b.lookup(5)] == [200, 0]
        assert [r[1] for r in parent.lookup(5)] == [0]

    def test_snapshot_shares_batches(self):
        parent = make_partition()
        parent.insert_rows([(1, i, 0.0) for i in range(100)])
        child = parent.snapshot(1)
        assert all(a is b for a, b in zip(parent.batches, child.batches))

    def test_divergent_appends_into_shared_tail_batch(self):
        """Two children appending to the same shared tail batch reserve
        disjoint regions; each sees only its own rows."""
        parent = make_partition(batch_size=4096)
        parent.insert_rows([(1, 0, 0.0)])
        a = parent.snapshot(1)
        b = parent.snapshot(1)
        a.insert_rows([(2, i, 0.0) for i in range(10)])
        b.insert_rows([(3, i, 0.0) for i in range(10)])
        assert len(a.lookup(2)) == 10 and a.lookup(3) == []
        assert len(b.lookup(3)) == 10 and b.lookup(2) == []
        # Both wrote into the same physical tail batch.
        assert a.batches[0] is b.batches[0]

    def test_deep_version_chain(self):
        p = make_partition()
        p.insert_row((0, 0, 0.0))
        versions = [p]
        for v in range(1, 8):
            child = versions[-1].snapshot(v)
            child.insert_row((0, v, float(v)))
            versions.append(child)
        for v, part in enumerate(versions):
            assert len(part.lookup(0)) == v + 1

    def test_iter_rows_scoped_to_version(self):
        parent = make_partition()
        parent.insert_rows([(1, 1, 0.0), (2, 2, 0.0)])
        child = parent.snapshot(1)
        child.insert_row((3, 3, 0.0))
        assert len(list(parent.iter_rows())) == 2
        assert len(list(child.iter_rows())) == 3


class TestMemoryAccounting:
    def test_overhead_positive_and_bounded(self):
        p = make_partition(batch_size=64 * 1024)
        p.insert_rows([(i, i, float(i)) for i in range(2000)])
        assert p.index_bytes() > 0
        assert p.storage_bytes() > 0
        assert 0 < p.memory_overhead() < 100

    def test_storage_bytes_grow_with_rows(self):
        p = make_partition()
        p.insert_rows([(1, 1, 1.0)] * 10)
        small = p.storage_bytes()
        p.insert_rows([(1, 1, 1.0)] * 100)
        assert p.storage_bytes() > small

    def test_allocated_at_least_storage(self):
        p = make_partition()
        p.insert_rows([(i, i, 0.0) for i in range(100)])
        assert p.allocated_bytes() >= p.storage_bytes()


class TestPropertyVsModel:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=-100, max_value=100),
                st.floats(allow_nan=False, width=32),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_lookup_matches_model(self, rows):
        p = make_partition(batch_size=512)
        p.insert_rows(rows)
        model: dict = {}
        for r in rows:
            model.setdefault(r[0], []).insert(0, r)
        for k in range(16):
            assert p.lookup(k) == model.get(k, [])
        assert sorted(p.iter_rows()) == sorted(rows)


# -- scan_columns: per-task column views of the row batches (DESIGN.md §18) ------------

WIDE_SCHEMA = Schema.of(("k", LONG), ("i", INTEGER), ("w", DOUBLE), ("ok", BOOLEAN))
#: Strings before, between and after the fixed-width columns.
MIXED_SCHEMA = Schema.of(
    ("head", STRING), ("k", LONG), ("mid", STRING), ("w", DOUBLE), ("i", INTEGER), ("tail", STRING)
)


def wide_rows(n, seed=3):
    rng = random.Random(seed)
    return [
        (rng.randrange(20), rng.randrange(-(2**31), 2**31), rng.random(), rng.random() < 0.5)
        for _ in range(n)
    ]


def mixed_rows(n, seed=5):
    rng = random.Random(seed)
    return [
        (
            f"h{rng.randrange(10**rng.randrange(1, 6))}",
            rng.randrange(20),
            "é" * rng.randrange(4),  # multi-byte UTF-8, sometimes empty
            rng.random(),
            rng.randrange(-(2**31), 2**31),
            f"t{i}",
        )
        for i in range(n)
    ]


def placed(rows):
    """Where a first build of ``WIDE_SCHEMA`` rows sits: the array layout
    places it in key order, each key's rows in arrival order."""
    return sorted(rows, key=lambda row: row[0])


def exported(buf) -> bool:
    """Whether any buffer export (a numpy view) of ``buf`` is still alive:
    a bytearray refuses to change size while one is."""
    try:
        buf.append(0)
    except BufferError:
        return True
    buf.pop()
    return False


class TestScanColumns:
    def test_fixed_width_columns_are_views_of_the_batch_bytes(self):
        """A one-batch partition is viewed in place; several row batches are
        one column batch of copied columns, and no view of a row batch
        outlives the call."""
        one = make_partition(WIDE_SCHEMA, "k", batch_size=4096)
        one.insert_rows(wide_rows(100))
        assert len(one.batches) == 1
        columns = one.scan_columns(["k", "w", "ok"])
        raw = np.frombuffer(one.batches[0].buf, dtype=np.uint8)
        for name in ("k", "w", "ok"):
            view = columns.column(name)
            assert np.shares_memory(view, raw), name
            assert not view.flags.writeable
        p = make_partition(WIDE_SCHEMA, "k", batch_size=512)
        p.insert_rows(wide_rows(100))
        assert len(p.batches) > 3
        columns = p.scan_columns(["k", "w", "ok"])
        assert len(columns) == 100
        assert not any(exported(batch.buf) for batch in p.batches)
        assert columns.to_rows() == [(r[0], r[2], r[3]) for r in p.scan_rows()]

    def test_integer_is_widened_to_the_column_batch_dtype(self):
        p = make_partition(WIDE_SCHEMA, "k", batch_size=4096)
        rows = wide_rows(50)
        p.insert_rows(rows)
        columns = p.scan_columns(["i"])
        assert columns.column("i").dtype == np.int64
        assert columns.column("i").tolist() == [r[1] for r in placed(rows)]

    def test_every_column_and_order_match_the_row_scan(self):
        for schema, rows in ((WIDE_SCHEMA, wide_rows(300)), (MIXED_SCHEMA, mixed_rows(300))):
            p = make_partition(schema, "k", batch_size=2048)
            p.insert_rows(rows)
            if schema is WIDE_SCHEMA:
                rows = placed(rows)  # strings take the row layout: arrival order
            names = schema.names()
            assert p.scan_columns(names).to_rows() == p.scan_rows() == rows
            back = names[::-1]
            assert p.scan_columns(back).to_rows() == [r[::-1] for r in rows]
            assert len(p.scan_columns([])) == 300

    def test_strings_decode_only_when_used_and_only_for_selected_rows(self):
        p = make_partition(MIXED_SCHEMA, "k", batch_size=1 << 16)
        rows = mixed_rows(200)
        p.insert_rows(rows)
        columns = p.scan_columns(["k", "mid", "tail"])
        assert set(columns.deferred) == {"mid", "tail"} and set(columns.columns) == {"k"}
        decoded = []
        for name in ("mid", "tail"):
            inner = columns.deferred[name]
            columns.deferred[name] = lambda sel, inner=inner, name=name: (
                decoded.append((name, None if sel is None else len(sel))) or inner(sel)
            )
        kept = columns.scan(col("k") < 5, ["k", "tail"])
        assert decoded == []  # the predicate reads no string, nothing decoded yet
        want = [(r[1], r[5]) for r in rows if r[1] < 5]
        assert kept.to_rows() == want
        assert decoded == [("tail", len(want))]  # 'mid' never, 'tail' for survivors

    def test_none_when_version_is_not_contiguous(self):
        parent = make_partition(batch_size=4096)
        parent.insert_rows([(i % 5, i, 0.5) for i in range(20)])
        a, b = parent.snapshot(1), parent.snapshot(1)
        a.insert_row((100, 1, 1.0))
        b.insert_row((200, 2, 2.0))  # lands after a's row in the shared tail
        assert a.scan_columns(["src"]) is not None
        assert not b.contiguous and b.scan_columns(["src"]) is None
        assert sorted(b.scan_rows()) == sorted(parent.scan_rows() + [(200, 2, 2.0)])

    @pytest.mark.parametrize(
        "schema,row",
        [(WIDE_SCHEMA, (3, None, 0.5, True)), (MIXED_SCHEMA, ("h", 3, None, 0.5, 7, "t"))],
        ids=["short-fixed-record", "null-beside-strings"],
    )
    def test_none_when_a_batch_holds_a_null(self, schema, row):
        p = make_partition(schema, "k", batch_size=512)
        rows = wide_rows(40) if schema is WIDE_SCHEMA else mixed_rows(40)
        p.insert_rows(rows)
        assert p.scan_columns(["k"]) is not None
        p.insert_row(row)
        assert p.scan_columns(["k"]) is None
        assert p.scan_rows() == (placed(rows) if schema is WIDE_SCHEMA else rows) + [row]

    def test_append_after_a_scan_new_version_sees_it_old_does_not(self):
        v0 = make_partition(WIDE_SCHEMA, "k", batch_size=4096)
        rows = wide_rows(30)
        v0.insert_rows(rows)
        rows = placed(rows)  # the first build; the append below keeps arrival order
        before = v0.scan_columns(["k", "w"])
        v1 = v0.snapshot(1)
        extra = wide_rows(10, seed=8)
        v1.insert_rows(extra)  # same tail batch: bytes beyond v0's watermark
        assert v1.scan_columns(["k", "w"]).to_rows() == [(r[0], r[2]) for r in rows + extra]
        assert v0.scan_columns(["k", "w"]).to_rows() == [(r[0], r[2]) for r in rows]
        assert before.to_rows() == [(r[0], r[2]) for r in rows]  # the old views too

    def test_spilled_batches_fault_in_and_no_view_outlives_the_caller(self, tmp_path):
        from repro.indexed.row_batch import spill_partition

        p = make_partition(WIDE_SCHEMA, "k", batch_size=512)
        rows = wide_rows(120)
        p.insert_rows(rows)
        spill_partition(p, spill_dir=str(tmp_path), keep_tail=False)
        assert not any(b.resident for b in p.batches)
        columns = p.scan_columns(["k", "i"])
        assert p.spill_faults() == len(p.batches) > 1  # each batch faulted in once
        want = [(r[0], r[1]) for r in placed(rows)]
        assert columns.to_rows() == want
        # Several batches are copied: with the column batch alive no batch
        # buffer is exported, and every batch can spill again.
        assert not any(exported(b.buf) for b in p.batches)
        for b in p.batches:
            b.spill()
        assert not any(b.resident for b in p.batches)
        assert columns.to_rows() == want
        # One batch is viewed: its views live as long as the caller keeps them.
        one = make_partition(WIDE_SCHEMA, "k", batch_size=4096)
        one.insert_rows(rows)
        spill_partition(one, spill_dir=str(tmp_path), keep_tail=False)
        columns = one.scan_columns(["k", "i"])
        assert one.spill_faults() == 1 and columns.to_rows() == want
        buf = one.batches[0].buf
        assert exported(buf)
        del columns
        # Nothing was stored on the partition or its batch: with the
        # caller's views gone the bytes are free to be released.
        assert not exported(buf)