"""ColumnarIndexedPartition: equivalence with the row store + columnar paths."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexed.columnar_partition import ColumnarIndexedPartition
from repro.indexed.partition import IndexedPartition
from repro.sql.types import DOUBLE, LONG, STRING, Schema

SCHEMA = Schema.of(("k", LONG), ("v", LONG), ("w", DOUBLE))
STR_SCHEMA = Schema.of(("tail", STRING), ("x", LONG))


def make(schema=SCHEMA, key="k", chunk_rows=64, **kw) -> ColumnarIndexedPartition:
    return ColumnarIndexedPartition(schema, key, chunk_rows=chunk_rows, **kw)


def rows_for(n=500, keys=30, seed=3):
    rng = random.Random(seed)
    return [(rng.randrange(keys), i, round(rng.random(), 4)) for i in range(n)]


class TestEquivalenceWithRowStore:
    """The two storage formats must agree on every read API."""

    def _pair(self, rows):
        row_p = IndexedPartition(SCHEMA, "k", batch_size=4096)
        col_p = make()
        row_p.insert_rows(rows)
        col_p.insert_rows(rows)
        return row_p, col_p

    def test_lookup_agrees(self):
        rows = rows_for()
        row_p, col_p = self._pair(rows)
        for k in range(35):
            assert col_p.lookup(k) == row_p.lookup(k)

    def test_iter_rows_agrees(self):
        rows = rows_for()
        row_p, col_p = self._pair(rows)
        assert sorted(col_p.iter_rows()) == sorted(row_p.iter_rows())

    def test_counters_agree(self):
        rows = rows_for()
        row_p, col_p = self._pair(rows)
        assert col_p.row_count == row_p.row_count
        assert col_p.num_keys() == row_p.num_keys()

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.integers(min_value=-100, max_value=100),
                st.floats(allow_nan=False, width=32),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_lookup_property(self, rows):
        col_p = make(chunk_rows=16)
        col_p.insert_rows(rows)
        model: dict = {}
        for r in rows:
            model.setdefault(r[0], []).insert(0, r)
        for k in range(11):
            assert col_p.lookup(k) == model.get(k, [])


class TestColumnarSpecifics:
    def test_rows_span_chunks(self):
        p = make(chunk_rows=16)
        p.insert_rows([(1, i, 0.0) for i in range(100)])
        assert len(p.chunks) > 5
        assert [r[1] for r in p.lookup(1)] == list(reversed(range(100)))

    def test_scan_columns_vectorized(self):
        p = make(chunk_rows=32)
        rows = rows_for(200)
        p.insert_rows(rows)
        batches = p.scan_columns(["k", "w"])
        assert batches is not None
        # One batch per chunk, each a slice of the chunk's arrays (no concat).
        assert [len(b) for b in batches] == [32] * 6 + [8]
        assert all(
            np.shares_memory(b.column("k"), chunk.arrays["k"])
            for b, chunk in zip(batches, p.chunks)
        )
        keys = [k for b in batches for k in b.column("k").tolist()]
        assert sorted(keys) == sorted(r[0] for r in rows)
        assert batches[0].column("w").dtype == np.float64

    def test_string_keys_hash_verified(self):
        p = ColumnarIndexedPartition(STR_SCHEMA, "tail", chunk_rows=32)
        p.insert_rows([("N1", 1), ("N2", 2), ("N1", 3)])
        assert p.lookup("N1") == [("N1", 3), ("N1", 1)]
        assert p.lookup("N9") == []

    def test_oversized_batch_is_split_across_chunks(self):
        p = make(chunk_rows=8)
        p.insert_rows([(0, i, 0.0) for i in range(50)])
        assert p.row_count == 50

    def test_invalid_chunk_rows(self):
        with pytest.raises(ValueError):
            make(chunk_rows=0)


class TestMVCC:
    def test_snapshot_isolation(self):
        parent = make()
        parent.insert_rows(rows_for(100))
        child = parent.snapshot(1)
        child.insert_row((5, 999, 9.9))
        assert len(child.lookup(5)) == len(parent.lookup(5)) + 1
        assert child.version == 1

    def test_linear_history_keeps_vectorized_scans(self):
        parent = make(chunk_rows=64)
        parent.insert_rows(rows_for(50))
        child = parent.snapshot(1)
        child.insert_rows(rows_for(30, seed=9))
        assert child.contiguous
        assert sum(len(b) for b in child.scan_columns(["k"])) == 80
        # The parent's vectorized scan must NOT see the child's rows.
        assert sum(len(b) for b in parent.scan_columns(["k"])) == 50

    def test_divergence_degrades_to_chain_scan(self):
        parent = make(chunk_rows=64)
        parent.insert_rows(rows_for(20))
        a = parent.snapshot(1)
        b = parent.snapshot(1)
        a.insert_rows([(100, 1, 1.0)])
        b.insert_rows([(200, 2, 2.0)])  # lands after a's row: non-contiguous
        assert not b.contiguous
        assert b.scan_columns(["k"]) is None  # vectorized path refused
        rows = sorted(b.iter_rows())
        assert (200, 2, 2.0) in rows and (100, 1, 1.0) not in rows

    def test_divergent_lookups_still_isolated(self):
        parent = make(chunk_rows=64)
        parent.insert_rows(rows_for(20))
        a = parent.snapshot(1)
        b = parent.snapshot(1)
        a.insert_rows([(7, 111, 1.0)])
        b.insert_rows([(7, 222, 2.0)])
        assert [r[1] for r in a.lookup(7)][0] == 111
        assert [r[1] for r in b.lookup(7)][0] == 222


class TestAccounting:
    def test_storage_and_index_bytes(self):
        p = make(chunk_rows=128)
        p.insert_rows(rows_for(300))
        assert p.storage_bytes() > 0
        assert p.index_bytes() > 0
        assert p.nbytes == p.storage_bytes()
