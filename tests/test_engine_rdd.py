"""RDD transformations/actions, caching, partitioners, shuffles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner, RangePartitioner
from repro.engine.rdd import PrunedRDD
from repro.config import Config


@pytest.fixture()
def ctx() -> EngineContext:
    return EngineContext(config=Config(default_parallelism=4, shuffle_partitions=4))


class TestBasicTransformations:
    def test_parallelize_collect_preserves_order(self, ctx):
        data = list(range(100))
        assert ctx.parallelize(data, 7).collect() == data

    def test_map(self, ctx):
        assert ctx.parallelize([1, 2, 3], 2).map(lambda x: x * 10).collect() == [10, 20, 30]

    def test_filter(self, ctx):
        rdd = ctx.parallelize(range(20), 3).filter(lambda x: x % 2 == 0)
        assert rdd.collect() == list(range(0, 20, 2))

    def test_flat_map(self, ctx):
        rdd = ctx.parallelize([1, 2], 1).flat_map(lambda x: [x] * x)
        assert rdd.collect() == [1, 2, 2]

    def test_map_partitions_with_index(self, ctx):
        rdd = ctx.parallelize(range(8), 4).map_partitions_with_index(
            lambda i, it: [(i, sum(it))]
        )
        got = rdd.collect()
        assert [i for i, _ in got] == [0, 1, 2, 3]
        assert sum(s for _, s in got) == sum(range(8))

    def test_union(self, ctx):
        a = ctx.parallelize([1, 2], 2)
        b = ctx.parallelize([3], 1)
        u = a.union(b)
        assert u.num_partitions == 3
        assert u.collect() == [1, 2, 3]

    def test_coalesce(self, ctx):
        rdd = ctx.parallelize(range(100), 10).coalesce(3)
        assert rdd.num_partitions == 3
        assert rdd.collect() == list(range(100))

    def test_zip_with_index(self, ctx):
        rdd = ctx.parallelize(list("abcde"), 3).zip_with_index()
        assert rdd.collect() == [("a", 0), ("b", 1), ("c", 2), ("d", 3), ("e", 4)]

    def test_sample_deterministic(self, ctx):
        rdd = ctx.parallelize(range(1000), 4)
        s1 = rdd.sample(0.1, seed=1).collect()
        s2 = rdd.sample(0.1, seed=1).collect()
        assert s1 == s2
        assert 40 < len(s1) < 200

    def test_zip_partitions_requires_equal_counts(self, ctx):
        a = ctx.parallelize(range(4), 2)
        b = ctx.parallelize(range(4), 4)
        with pytest.raises(ValueError):
            a.zip_partitions(b, lambda i, x, y: [])


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(57), 5).count() == 57

    def test_reduce(self, ctx):
        assert ctx.parallelize(range(101), 4).reduce(lambda a, b: a + b) == 5050

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([], 2).reduce(lambda a, b: a + b)

    def test_take_stops_early(self, ctx):
        rdd = ctx.parallelize(range(1000), 10)
        assert rdd.take(5) == [0, 1, 2, 3, 4]
        assert rdd.take(0) == []
        assert rdd.first() == 0

    def test_take_more_than_available(self, ctx):
        assert ctx.parallelize([1, 2], 2).take(10) == [1, 2]


class TestKeyedOperations:
    def test_reduce_by_key(self, ctx):
        pairs = ctx.parallelize([(i % 3, i) for i in range(30)], 4)
        got = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
        want = {k: sum(i for i in range(30) if i % 3 == k) for k in range(3)}
        assert got == want

    def test_group_by_key(self, ctx):
        pairs = ctx.parallelize([(i % 2, i) for i in range(10)], 3)
        got = {k: sorted(v) for k, v in pairs.group_by_key().collect()}
        assert got == {0: [0, 2, 4, 6, 8], 1: [1, 3, 5, 7, 9]}

    def test_rdd_join(self, ctx):
        a = ctx.parallelize([(1, "a"), (2, "b"), (1, "c")], 2)
        b = ctx.parallelize([(1, "x"), (3, "y")], 2)
        got = sorted(a.join(b).collect())
        assert got == [(1, ("a", "x")), (1, ("c", "x"))]

    def test_partition_by_places_keys_consistently(self, ctx):
        part = HashPartitioner(4)
        rdd = ctx.parallelize([(k, k) for k in range(100)], 5).partition_by(part)
        per_part = ctx.run_job(rdd, lambda it, _ctx: [k for k, _ in it])
        for pid, keys in enumerate(per_part):
            for k in keys:
                assert part.partition(k) == pid

    def test_partition_by_skips_shuffle_when_copartitioned(self, ctx):
        part = HashPartitioner(4)
        rdd = ctx.parallelize([(k, k) for k in range(10)], 2).partition_by(part)
        again = rdd.partition_by(HashPartitioner(4))
        assert again is rdd  # equal partitioner: no new shuffle


class TestCaching:
    def test_cache_computes_once(self, ctx):
        calls = []

        def trace(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(10), 2).map(trace).cache()
        rdd.collect()
        rdd.collect()
        assert len(calls) == 10  # second collect served from cache

    def test_unpersist_recomputes(self, ctx):
        calls = []
        rdd = ctx.parallelize(range(5), 1).map(lambda x: calls.append(x) or x).cache()
        rdd.collect()
        rdd.unpersist()
        rdd.cached = False
        rdd.collect()
        assert len(calls) == 10

    def test_cache_survives_executor_loss(self, ctx):
        rdd = ctx.parallelize(range(50), 4).map(lambda x: x + 1).cache()
        assert sorted(rdd.collect()) == list(range(1, 51))
        ctx.kill_executor(ctx.alive_executor_ids()[0])
        assert sorted(rdd.collect()) == list(range(1, 51))

    def test_preferred_locations_after_caching(self, ctx):
        rdd = ctx.parallelize(range(8), 2).cache()
        rdd.collect()
        assert rdd.preferred_locations(0)  # registered somewhere


class TestPrunedRDD:
    def test_exposes_selected_partitions(self, ctx):
        rdd = ctx.parallelize(range(40), 4)  # partitions of 10
        pruned = PrunedRDD(rdd, [2])
        assert pruned.num_partitions == 1
        assert pruned.collect() == list(range(20, 30))
        # One dependency class for all of them, not one built per query.
        assert type(PrunedRDD(rdd, [0]).dependencies[0]) is type(pruned.dependencies[0])


class TestPartitioners:
    def test_hash_partitioner_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)

    def test_hash_partitioner_rejects_zero(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    @given(st.integers(), st.integers(min_value=1, max_value=32))
    @settings(max_examples=50)
    def test_hash_partition_in_range(self, key, n):
        assert 0 <= HashPartitioner(n).partition(key) < n

    def test_range_partitioner_orders_keys(self):
        rp = RangePartitioner([10, 20])
        assert rp.partition(5) == 0
        assert rp.partition(10) == 1
        assert rp.partition(15) == 1
        assert rp.partition(25) == 2

    def test_range_partitioner_from_sample(self):
        rp = RangePartitioner.from_sample(list(range(100)), 4)
        assert rp.num_partitions <= 4
        parts = [rp.partition(k) for k in range(100)]
        assert parts == sorted(parts)  # monotone in key

    def test_range_partitioner_skewed_sample(self):
        rp = RangePartitioner.from_sample([5] * 100, 4)
        assert rp.num_partitions >= 1
        assert rp.partition(5) in range(rp.num_partitions)

    def test_partition_array_matches_scalar(self):
        part = HashPartitioner(8)
        keys = list(range(-50, 50))
        assert part.partition_array(keys).tolist() == [part.partition(k) for k in keys]
