"""Ordered index unit tests: KeyRange semantics and the ordered reads of a
partition's two-tier index (sorted sealed base + cTrie delta).

The oracle for every range test is a brute-force filter of the same key
set with :meth:`KeyRange.matches` — the exact predicate the SQL layer
pushes down — so seek logic and bound handling can never drift apart.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.indexed.mvcc import CopyOnWriteVersioning
from repro.indexed.ordered_index import KeyRange
from repro.indexed.partition import IndexedPartition
from repro.sql.types import LONG, STRING, Schema

INT_SCHEMA = Schema.of(("k", LONG), ("v", LONG))
STR_SCHEMA = Schema.of(("k", STRING), ("v", LONG))


def oracle(keys, krange):
    return sorted(k for k in set(keys) if krange.matches(k))


class TestKeyRange:
    def test_between_is_inclusive_both_ends(self):
        kr = KeyRange(lo=5, hi=10)
        assert kr.matches(5) and kr.matches(10) and kr.matches(7)
        assert not kr.matches(4) and not kr.matches(11)

    def test_exclusive_bounds_never_conflated_with_inclusive(self):
        lt = KeyRange(hi=10, hi_inclusive=False)
        le = KeyRange(hi=10)
        assert le.matches(10) and not lt.matches(10)
        gt = KeyRange(lo=5, lo_inclusive=False)
        ge = KeyRange(lo=5)
        assert ge.matches(5) and not gt.matches(5)

    def test_equal_keys_at_both_bounds(self):
        point = KeyRange(lo=7, hi=7)
        assert point.matches(7) and not point.is_empty()
        assert not point.matches(6) and not point.matches(8)

    def test_equal_bounds_with_either_open_end_is_empty(self):
        assert KeyRange(lo=7, hi=7, lo_inclusive=False).is_empty()
        assert KeyRange(lo=7, hi=7, hi_inclusive=False).is_empty()

    def test_reversed_bounds_are_empty(self):
        assert KeyRange(lo=10, hi=5).is_empty()
        assert not KeyRange(lo=5, hi=10).is_empty()

    def test_prefix(self):
        kr = KeyRange.prefix_of("user01")
        assert kr.matches("user01") and kr.matches("user0199")
        assert not kr.matches("user02") and not kr.matches("user0")
        assert not kr.matches(42)  # non-strings never match a prefix

    def test_intersect_picks_tighter_bounds(self):
        merged = KeyRange(lo=0, hi=100).intersect(KeyRange(lo=10, hi=50, hi_inclusive=False))
        assert merged.lo == 10 and merged.hi == 50 and not merged.hi_inclusive
        # Same bound: exclusive wins (it is the tighter constraint).
        merged = KeyRange(lo=10).intersect(KeyRange(lo=10, lo_inclusive=False))
        assert merged.lo == 10 and not merged.lo_inclusive

    def test_intersect_prefix_with_incompatible_range_is_none(self):
        assert KeyRange.prefix_of("abc").intersect(KeyRange(lo=1, hi=9)) is None

    def test_intersect_prefix_with_extending_prefix(self):
        merged = KeyRange.prefix_of("ab").intersect(KeyRange.prefix_of("abc"))
        assert merged is not None and merged.prefix == "abc"
        assert KeyRange.prefix_of("ab").intersect(KeyRange.prefix_of("xy")) is None


def partition_of(keys, threshold=512, schema=INT_SCHEMA) -> IndexedPartition:
    """A partition holding one row per element of ``keys``, each its own
    one-row batch, sealing at ``threshold`` distinct keys."""
    part = IndexedPartition(schema, "k", ordered_compact_threshold=threshold)
    for k in keys:
        part.insert_row((k, 0))
    return part


def all_keys(part) -> list:
    return part.ordered.range_keys(KeyRange())


class TestOrderedIndex:
    """The ordered half of a partition's index, through ``partition.ordered``
    (sealed base + cTrie delta, DESIGN.md §15)."""

    def test_add_dedups_and_orders(self):
        part = partition_of([5, 3, 5, 9, 3, 1, 9, 9])
        assert all_keys(part) == [1, 3, 5, 9]
        assert len(part.ordered) == 4
        assert part.contains_key(5) and not part.contains_key(4)
        assert part.ordered.min_key() == 1 and part.ordered.max_key() == 9

    def test_seal_threshold_folds_delta_into_base(self):
        keys = list(range(100))
        random.Random(0).shuffle(keys)
        part = partition_of(keys, threshold=8)
        assert all_keys(part) == list(range(100))
        # The delta stays bounded by the threshold; the base holds the rest.
        assert len(part.ctrie) < 8
        assert len(part.ordered.base.keys) + len(part.ctrie) == 100

    @pytest.mark.parametrize("threshold", [1, 2, 7, 512])
    def test_range_keys_matches_oracle_across_thresholds(self, threshold):
        rng = random.Random(41)
        keys = [rng.randrange(0, 200) for _ in range(300)]
        part = partition_of(keys, threshold)
        for _ in range(200):
            a, b = rng.randrange(0, 200), rng.randrange(0, 200)
            kr = KeyRange(
                lo=a,
                hi=b,
                lo_inclusive=rng.random() < 0.5,
                hi_inclusive=rng.random() < 0.5,
            )
            assert part.ordered.range_keys(kr) == oracle(keys, kr), kr.describe()

    def test_range_keys_open_ended_and_empty(self):
        part = partition_of([2, 4, 6, 8])
        range_keys = part.ordered.range_keys
        assert range_keys(KeyRange(lo=5)) == [6, 8]
        assert range_keys(KeyRange(hi=5)) == [2, 4]
        assert range_keys(KeyRange()) == [2, 4, 6, 8]
        assert range_keys(KeyRange(lo=8, hi=2)) == []  # reversed
        assert range_keys(KeyRange(lo=3, hi=3)) == []  # empty point

    def test_prefix_range_keys(self):
        keys = ["apple", "apricot", "banana", "app", "application", "ap"]
        for threshold in (0, 512, 4, 1):  # all delta, first key sealed, split, all base
            part = partition_of(keys, threshold, schema=STR_SCHEMA)
            kr = KeyRange.prefix_of("app")
            assert part.ordered.range_keys(kr) == ["app", "apple", "application"]
            assert part.ordered.range_keys(KeyRange.prefix_of("z")) == []

    def test_range_bound_of_a_foreign_type_is_rejected(self):
        for stored in (10, 9):  # with and without keys still in the delta
            part = partition_of(range(stored), threshold=4)
            for krange in (KeyRange(lo="3", hi="7"), KeyRange.prefix_of("3")):
                with pytest.raises(TypeError):  # not compared as text by numpy
                    part.ordered.range_keys(krange)

    def test_snapshot_isolated_from_later_adds(self):
        part = partition_of([10, 20, 30], threshold=4)
        snap = part.snapshot(1)
        for k in [5, 15, 25, 35, 45, 55]:  # crosses a seal
            part.insert_row((k, 0))
        assert all_keys(snap) == [10, 20, 30]
        assert all_keys(part) == [5, 10, 15, 20, 25, 30, 35, 45, 55]

    def test_copy_is_fully_independent(self):
        for threshold in (512, 1):
            part = partition_of([1], threshold)
            clone = CopyOnWriteVersioning().new_version(part, 1)
            assert not np.shares_memory(part.ordered.base.keys, clone.ordered.base.keys)
            assert clone.ctrie is not part.ctrie
            clone.insert_row((2, 0))
            part.insert_row((3, 0))
            assert all_keys(part) == [1, 3]
            assert all_keys(clone) == [1, 2]

    def test_concurrent_readers_during_adds_and_compactions(self):
        """Readers may see an in-flight key or not, but never lose a key
        that was added before their scan started, and never crash."""
        part = IndexedPartition(INT_SCHEMA, "k", ordered_compact_threshold=16)
        part.insert_rows([(k, 0) for k in range(0, 1000, 2)])
        stop = threading.Event()
        errors = []

        def reader():
            kr = KeyRange(lo=100, hi=299)
            baseline = [k for k in range(100, 300, 2)]
            while not stop.is_set():
                got = part.ordered.range_keys(kr)
                rows, _scanned = part.range_lookup(kr)
                if not set(baseline).issubset(got) or not set(baseline) <= {r[0] for r in rows}:
                    errors.append((baseline, got))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside publishes and seals
        try:
            for t in threads:
                t.start()
            for k in range(1, 1000, 2):  # odd keys interleave everywhere
                part.insert_row((k, 0))
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all_keys(part) == list(range(1000))
