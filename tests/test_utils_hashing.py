"""Deterministic hashing: stability, distribution, vectorized agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.partitioner import HashPartitioner
from repro.utils.hashing import (
    hash32,
    hash64,
    hash_column,
    partition_column,
    partition_for,
)

scalar_keys = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
    st.booleans(),
    st.none(),
)


class TestHash64:
    def test_deterministic_across_calls(self):
        assert hash64("abc") == hash64("abc")
        assert hash64(12345) == hash64(12345)

    def test_known_types_differ(self):
        values = [0, 1, "0", "1", 0.5, None, b"x"]
        hashes = [hash64(v) for v in values]
        assert len(set(hashes)) == len(values)

    def test_equal_keys_hash_equal(self):
        """As Python's ``hash``: a bool as its int, an integral float as its
        int, so ``7`` finds the partition of a DOUBLE key ``7.0``."""
        pairs = [
            (True, 1), (False, 0), (7.0, 7), (-0.0, 0), (-3.0, -3), (2.0**70, 2**70),
            (np.int32(5), 5), (np.float64(9.0), 9), (np.True_, 1), ((1, 2.0), (1, 2)),
        ]
        for a, b in pairs:
            assert a == b and hash64(a) == hash64(b), (a, b)
        assert hash64(7.5) != hash64(7)

    def test_negative_zero_equals_zero(self):
        assert hash64(-0.0) == hash64(0.0)

    def test_tuple_keys(self):
        assert hash64((1, "a")) == hash64((1, "a"))
        assert hash64((1, "a")) != hash64(("a", 1))

    def test_unhashable_raises(self):
        with pytest.raises(TypeError):
            hash64([1, 2])

    @given(scalar_keys)
    def test_in_64bit_range(self, key):
        h = hash64(key)
        assert 0 <= h < 2**64

    @given(st.integers(min_value=0, max_value=2**31))
    def test_avalanche_adjacent_ints(self, x):
        # Adjacent keys should differ in many bits (mixer quality).
        a, b = hash64(x), hash64(x + 1)
        assert bin(a ^ b).count("1") > 8


class TestHash32:
    @given(scalar_keys)
    def test_in_32bit_range(self, key):
        assert 0 <= hash32(key) < 2**32

    def test_string_keys_stable(self):
        assert hash32("N12345") == hash32("N12345")


class TestPartitionFor:
    @given(scalar_keys, st.integers(min_value=1, max_value=64))
    def test_in_range(self, key, n):
        assert 0 <= partition_for(key, n) < n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            partition_for(1, 0)

    def test_balance_over_int_keys(self):
        n = 8
        counts = [0] * n
        for k in range(8000):
            counts[partition_for(k, n)] += 1
        assert max(counts) < 1.25 * min(counts)


class TestVectorized:
    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=1, max_size=50))
    @settings(max_examples=30)
    def test_int_column_matches_scalar(self, keys):
        vec = hash_column(np.array(keys, dtype=np.int64))
        for k, h in zip(keys, vec.tolist()):
            assert h == hash64(k)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=30)
    def test_float_column_matches_scalar(self, keys):
        vec = hash_column(np.array(keys, dtype=np.float64))
        for k, h in zip(keys, vec.tolist()):
            assert h == hash64(k)

    def test_object_column_matches_scalar(self):
        keys = ["a", "bb", "ccc", ""]
        vec = hash_column(np.array(keys, dtype=object))
        assert [hash64(k) for k in keys] == vec.tolist()

    @pytest.mark.parametrize(
        "keys",
        [
            [7, 2.5],
            [7, 7.0, -0.0, 0, 3.0, -3, 0.5],
            [1e300, -1e300, 2.0**63, -(2.0**63), 2.0**64, float("inf"), float("nan")],
            [True, 1, 1.0, False, 0],
            [2**63 - 1, 2**63, -(2**63), 2**64 - 1, 2**70],
        ],
        ids=repr,
    )
    def test_mixed_column_matches_scalar(self, keys):
        want = [hash64(k) for k in keys]
        assert hash_column(keys).tolist() == want
        assert hash_column(np.array(keys, dtype=object)).tolist() == want
        floats = [k for k in keys if isinstance(k, float)]
        assert hash_column(np.array(floats)).tolist() == [hash64(k) for k in floats]

    def test_partition_column_matches_partition_for(self):
        keys = np.arange(-500, 500, dtype=np.int64)
        parts = partition_column(keys, 7)
        for k, p in zip(keys.tolist(), parts.tolist()):
            assert p == partition_for(k, 7)


near_int64_limits = st.integers(2**63 - 3, 2**63 + 3) | st.integers(-(2**63) - 3, -(2**63) + 3)
any_key = st.one_of(
    st.integers(), near_int64_limits, st.floats(), st.booleans(), st.text(max_size=4), st.none()
)
key_lists = st.one_of(
    st.lists(any_key, max_size=30),
    st.lists(st.integers() | near_int64_limits, max_size=30),
    st.lists(st.floats(), max_size=30),
    st.lists(st.booleans(), max_size=30),
)


class TestPartitionArray:
    """The broadcast join buckets its probe with ``partition_array``: every
    key must land where ``partition`` (the shuffle, a lookup) puts it."""

    @given(key_lists, st.integers(min_value=1, max_value=16))
    @settings(max_examples=200)
    def test_partition_array_is_partition_key_by_key(self, keys, n):
        part = HashPartitioner(n)
        assert part.partition_array(keys).tolist() == [part.partition(k) for k in keys]

    def test_a_mixed_list_is_not_promoted_to_floats(self):
        part = HashPartitioner(8)
        assert part.partition_array([7, 2.5]).tolist() == [part.partition(7), part.partition(2.5)]


#: A group-key position: any scalar, a nested pair, or the empty tuple.
key_parts = any_key | st.tuples(any_key, any_key) | st.just(())


@st.composite
def tuple_key_lists(draw):
    """Tuples of one arity (0-3), as an aggregate's group keys are."""
    arity = draw(st.integers(0, 3))
    return draw(st.lists(st.tuples(*[key_parts] * arity), max_size=30))


class TestTupleColumns:
    """Tuple keys (the aggregate's partial shuffle) are hashed a position at
    a time with ``hash64``'s tuple rule; ragged or mixed lists key by key."""

    @given(tuple_key_lists() | st.lists(st.tuples(any_key) | st.tuples(any_key, any_key) | any_key, max_size=30))
    @settings(max_examples=200)
    def test_tuple_column_is_hash64_key_by_key(self, keys):
        assert hash_column(keys).tolist() == [hash64(k) for k in keys]

    def test_every_kind_of_position(self):
        keys = [
            (2**63, 7.0, float("nan"), -0.0, True, None, "é", (1, (2.5,)), ()),
            (2**64 - 1, 7.5, 0.0, 0.0, False, None, "", (1, (3,)), ()),
            (-(2**63), 2.0**70, float("-inf"), 1.0, 1, "x", "a", (None, ("b",)), ()),
        ]
        assert hash_column(keys).tolist() == [hash64(k) for k in keys]
        assert hash_column([(), ()]).tolist() == [hash64(())] * 2
        assert hash_column([(1,), (1.0,), (True,)]).tolist() == [hash64((1,))] * 3

    def test_no_per_key_hash64_for_scalar_positions(self, monkeypatch):
        from repro.utils import hashing

        calls = []
        real = hashing.hash64
        monkeypatch.setattr(hashing, "hash64", lambda k: calls.append(k) or real(k))
        keys = [(i % 7, i * 0.5, i % 2 == 0) for i in range(100)]
        got = hash_column(keys).tolist()
        assert calls == []
        assert got == [real(k) for k in keys]
