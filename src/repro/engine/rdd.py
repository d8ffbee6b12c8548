"""RDDs: immutable, lazily evaluated, partitioned collections with lineage.

The subset of the RDD model the paper's system needs:

* narrow transformations (map/filter/mapPartitions/zipPartitions/union),
* wide transformations through :meth:`RDD.partition_by` (hash shuffles are
  how both the baseline joins and the Indexed DataFrame place rows),
* actions (collect/count/reduce/take) driving jobs through the DAG scheduler,
* caching through the block manager: ``iterator`` consults the cache first
  and falls back to recomputing from parents — which is precisely the
  lineage-based fault tolerance story of Section III-D.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, TypeVar

from repro.engine.dependencies import (
    Dependency,
    MapSideCombiner,
    NarrowDependency,
    OneToOneDependency,
    RangeDependency,
    ShuffleDependency,
)
from repro.engine.partition import TaskContext
from repro.engine.partitioner import HashPartitioner, Partitioner

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext

T = TypeVar("T")
U = TypeVar("U")


class RDD:
    """Base RDD. Subclasses define ``num_partitions`` and ``compute``."""

    def __init__(self, context: "EngineContext", dependencies: list[Dependency]) -> None:
        self.context = context
        self.dependencies = dependencies
        self.rdd_id = context.new_rdd_id()
        self.cached = False
        #: Partitioner of the output, when known (lets joins avoid shuffles).
        self.partitioner: Partitioner | None = None
        #: Explicit record-count estimate (see :meth:`with_estimated_records`);
        #: overrides the lineage-derived estimate when set.
        self._records_hint: int | None = None

    # -- to be provided by subclasses ----------------------------------------

    @property
    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        """Produce the records of partition ``split`` (no cache involved)."""
        raise NotImplementedError

    # -- evaluation ------------------------------------------------------------

    def iterator(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        """Cache-aware access: read the cached block or compute from lineage."""
        if self.cached:
            return self.context.cache_manager.get_or_compute(self, split, ctx)
        return self.compute(split, ctx)

    def with_estimated_records(self, n: int) -> "RDD":
        """Attach a known record count (e.g. a broadcast side already
        collected on the driver) so the scheduler's small-job heuristic can
        see through operators whose lineage it cannot estimate."""
        self._records_hint = n
        return self

    def estimated_records(self) -> "int | None":
        """Best-effort upper bound on this RDD's record count, from lineage.

        Narrow chains propagate parent estimates (filters may shrink the
        real count — the estimate stays an upper bound, which is the safe
        direction for the inline heuristic); any wide edge, or a source
        with no intrinsic size, yields None ("unknown", never inlined).
        """
        if self._records_hint is not None:
            return self._records_hint
        if not self.dependencies:
            return None
        total = 0
        for dep in self.dependencies:
            if not isinstance(dep, NarrowDependency):
                return None
            parent_estimate = dep.rdd.estimated_records()
            if parent_estimate is None:
                return None
            total += parent_estimate
        return total

    def preferred_locations(self, split: int) -> list[str]:
        """Executors where this partition's data already lives (for locality)."""
        if self.cached:
            locs = self.context.block_manager_master.locations((self.rdd_id, split))
            if locs:
                return locs
        for dep in self.dependencies:
            if isinstance(dep, NarrowDependency):
                for parent_split in dep.get_parents(split):
                    locs = dep.rdd.preferred_locations(parent_split)
                    if locs:
                        return locs
        return []

    # -- persistence -------------------------------------------------------------

    def persist(self) -> "RDD":
        """Mark for in-memory caching; materialized on first computation."""
        self.cached = True
        return self

    cache = persist

    def unpersist(self) -> "RDD":
        self.cached = False
        self.context.forget_cached_rdd(self.rdd_id)
        return self

    # -- narrow transformations ----------------------------------------------------

    def map(self, f: Callable[[Any], Any]) -> "RDD":
        return MapPartitionsRDD(self, lambda it, _split, _ctx: map(f, it))

    def filter(self, f: Callable[[Any], bool]) -> "RDD":
        return MapPartitionsRDD(self, lambda it, _split, _ctx: filter(f, it), preserves_partitioning=True)

    def flat_map(self, f: Callable[[Any], Iterable[Any]]) -> "RDD":
        return MapPartitionsRDD(
            self, lambda it, _split, _ctx: itertools.chain.from_iterable(map(f, it))
        )

    def map_partitions(
        self, f: Callable[[Iterator[Any]], Iterable[Any]], preserves_partitioning: bool = False
    ) -> "RDD":
        return MapPartitionsRDD(
            self, lambda it, _split, _ctx: f(it), preserves_partitioning=preserves_partitioning
        )

    def map_partitions_with_index(
        self,
        f: Callable[[int, Iterator[Any]], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        return MapPartitionsRDD(
            self, lambda it, split, _ctx: f(split, it), preserves_partitioning=preserves_partitioning
        )

    def map_partitions_with_context(
        self,
        f: Callable[[Iterator[Any], TaskContext], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        """Like map_partitions, but ``f`` also receives the TaskContext (for
        phase timing / byte accounting inside operators)."""
        return MapPartitionsRDD(
            self, lambda it, _split, ctx: f(it, ctx), preserves_partitioning=preserves_partitioning
        )

    def key_by(self, f: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda rec: (f(rec), rec))

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.context, [self, other])

    def zip_partitions(self, other: "RDD", f: Callable[[int, Iterator, Iterator], Iterable]) -> "RDD":
        """Combine co-partitioned RDDs partition-by-partition (narrow on both)."""
        return ZippedPartitionsRDD(self, other, f)

    def zip_with_index(self) -> "RDD":
        """(record, global index). Requires a pass to count partition sizes."""
        counts = self.map_partitions(lambda it: [sum(1 for _ in it)]).collect()
        offsets = [0]
        for c in counts[:-1]:
            offsets.append(offsets[-1] + c)

        def attach(split: int, it: Iterator[Any]) -> Iterator[Any]:
            return ((rec, offsets[split] + i) for i, rec in enumerate(it))

        return self.map_partitions_with_index(attach)

    def coalesce(self, num_partitions: int) -> "RDD":
        return CoalescedRDD(self, num_partitions)

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """Bernoulli sample; deterministic per (seed, partition)."""
        import random

        def sampler(split: int, it: Iterator[Any]) -> Iterator[Any]:
            rng = random.Random(seed * 1_000_003 + split)
            return (rec for rec in it if rng.random() < fraction)

        return self.map_partitions_with_index(sampler, preserves_partitioning=True)

    # -- wide transformations --------------------------------------------------------

    def partition_by(
        self,
        partitioner: Partitioner,
        key_func: Callable[[Any], Any] | None = None,
        combiner: MapSideCombiner | None = None,
    ) -> "RDD":
        """Repartition records by ``partitioner`` over ``key_func(record)``.

        If this RDD is already partitioned by an equal partitioner the
        shuffle is skipped (narrow pass-through), matching Spark.
        """
        if self.partitioner is not None and self.partitioner == partitioner and combiner is None:
            return self
        return ShuffledRDD(self, partitioner, key_func, combiner)

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        """For (k, v) records: (k, [v...])."""
        n = num_partitions or self.context.config.shuffle_partitions
        shuffled = self.partition_by(HashPartitioner(n))

        def group(it: Iterator[tuple]) -> Iterator[tuple]:
            groups: dict[Any, list] = {}
            for k, v in it:
                groups.setdefault(k, []).append(v)
            return iter(groups.items())

        return shuffled.map_partitions(group, preserves_partitioning=True)

    def reduce_by_key(self, f: Callable[[Any, Any], Any], num_partitions: int | None = None) -> "RDD":
        """For (k, v) records: (k, reduce(f, vs)) with map-side combining."""
        n = num_partitions or self.context.config.shuffle_partitions
        combiner = MapSideCombiner(create=lambda v: v, merge_value=f)
        shuffled = self.partition_by(HashPartitioner(n), combiner=combiner)

        def merge(it: Iterator[tuple]) -> Iterator[tuple]:
            acc: dict[Any, Any] = {}
            for k, v in it:
                acc[k] = f(acc[k], v) if k in acc else v
            return iter(acc.items())

        return shuffled.map_partitions(merge, preserves_partitioning=True)

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join of (k, v) with (k, w) -> (k, (v, w)) via co-shuffle."""
        n = num_partitions or self.context.config.shuffle_partitions
        part = HashPartitioner(n)
        left = self.map(lambda kv: (kv[0], (0, kv[1]))).partition_by(part)
        right = other.map(lambda kv: (kv[0], (1, kv[1]))).partition_by(part)

        def joiner(_split: int, a: Iterator, b: Iterator) -> Iterator:
            table: dict[Any, list] = {}
            for k, (_, v) in a:
                table.setdefault(k, []).append(v)
            for k, (_, w) in b:
                for v in table.get(k, ()):
                    yield (k, (v, w))

        return left.zip_partitions(right, joiner)

    # -- actions --------------------------------------------------------------------

    def collect(self) -> list[Any]:
        results = self.context.run_job(self, lambda it, _ctx: list(it))
        return [rec for part in results for rec in part]

    def count(self) -> int:
        return sum(self.context.run_job(self, lambda it, _ctx: sum(1 for _ in it)))

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        def reducer(it: Iterator[Any], _ctx: TaskContext) -> list[Any]:
            acc = None
            first = True
            for rec in it:
                acc = rec if first else f(acc, rec)
                first = False
            return [] if first else [acc]

        parts = [x for part in self.context.run_job(self, reducer) for x in part]
        if not parts:
            raise ValueError("reduce of empty RDD")
        acc = parts[0]
        for x in parts[1:]:
            acc = f(acc, x)
        return acc

    def take(self, n: int) -> list[Any]:
        """First n records, scanning partitions in order (not one job per partition)."""
        out: list[Any] = []
        for split in range(self.num_partitions):
            if len(out) >= n:
                break
            got = self.context.run_job(
                self, lambda it, _ctx, need=n - len(out): list(itertools.islice(it, need)),
                partitions=[split],
            )
            out.extend(got[0])
        return out[:n]

    def first(self) -> Any:
        got = self.take(1)
        if not got:
            raise ValueError("empty RDD")
        return got[0]

    def foreach_partition(self, f: Callable[[Iterator[Any]], None]) -> None:
        self.context.run_job(self, lambda it, _ctx: f(it))

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(id={self.rdd_id}, partitions={self.num_partitions})"


class ParallelCollectionRDD(RDD):
    """An RDD over an in-driver list, sliced into partitions."""

    def __init__(self, context: "EngineContext", data: list[Any], num_partitions: int) -> None:
        super().__init__(context, [])
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self._slices: list[list[Any]] = [[] for _ in range(num_partitions)]
        n = len(data)
        for i in range(num_partitions):
            start = i * n // num_partitions
            end = (i + 1) * n // num_partitions
            self._slices[i] = data[start:end]

    @property
    def num_partitions(self) -> int:
        return len(self._slices)

    def estimated_records(self) -> "int | None":
        return sum(len(s) for s in self._slices)

    def compute(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        return iter(self._slices[split])


class MapPartitionsRDD(RDD):
    """Applies ``f(iterator, split, ctx)`` to each parent partition."""

    def __init__(
        self,
        parent: RDD,
        f: Callable[[Iterator[Any], int, TaskContext], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> None:
        super().__init__(parent.context, [OneToOneDependency(parent)])
        self._parent = parent
        self._f = f
        if preserves_partitioning:
            self.partitioner = parent.partitioner

    @property
    def num_partitions(self) -> int:
        return self._parent.num_partitions

    def compute(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        return iter(self._f(self._parent.iterator(split, ctx), split, ctx))


class UnionRDD(RDD):
    """Concatenation: partitions of all parents, in order."""

    def __init__(self, context: "EngineContext", parents: list[RDD]) -> None:
        deps: list[Dependency] = []
        out_start = 0
        self._offsets: list[tuple[RDD, int]] = []
        for parent in parents:
            deps.append(RangeDependency(parent, 0, out_start, parent.num_partitions))
            self._offsets.append((parent, out_start))
            out_start += parent.num_partitions
        super().__init__(context, deps)
        self._total = out_start

    @property
    def num_partitions(self) -> int:
        return self._total

    def compute(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        for parent, start in reversed(self._offsets):
            if split >= start:
                return parent.iterator(split - start, ctx)
        raise IndexError(split)  # pragma: no cover


class _GroupDependency(NarrowDependency):
    """Child partition p reads the parent partitions in ``groups[p]``."""

    def __init__(self, rdd: RDD, groups: list[list[int]]) -> None:
        super().__init__(rdd)
        self.groups = groups

    def get_parents(self, partition_index: int) -> list[int]:
        return self.groups[partition_index]


class CoalescedRDD(RDD):
    """Merges parent partitions into fewer, without a shuffle."""

    def __init__(self, parent: RDD, num_partitions: int) -> None:
        n_parent = parent.num_partitions
        n = max(1, min(num_partitions, n_parent))
        groups = [[] for _ in range(n)]
        for i in range(n_parent):
            groups[i * n // n_parent].append(i)
        super().__init__(parent.context, [_GroupDependency(parent, groups)])
        self._parent = parent
        self._groups = groups

    @property
    def num_partitions(self) -> int:
        return len(self._groups)

    def compute(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        return itertools.chain.from_iterable(
            self._parent.iterator(i, ctx) for i in self._groups[split]
        )


class ZippedPartitionsRDD(RDD):
    """Narrow combination of two co-partitioned RDDs."""

    def __init__(
        self, left: RDD, right: RDD, f: Callable[[int, Iterator, Iterator], Iterable]
    ) -> None:
        if left.num_partitions != right.num_partitions:
            raise ValueError(
                f"zip_partitions requires equal partitioning: "
                f"{left.num_partitions} vs {right.num_partitions}"
            )
        super().__init__(left.context, [OneToOneDependency(left), OneToOneDependency(right)])
        self._left = left
        self._right = right
        self._f = f
        self.partitioner = left.partitioner

    @property
    def num_partitions(self) -> int:
        return self._left.num_partitions

    def compute(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        return iter(self._f(split, self._left.iterator(split, ctx), self._right.iterator(split, ctx)))


class _PruneDependency(NarrowDependency):
    """Child partition p reads parent partition ``splits[p]``."""

    def __init__(self, rdd: RDD, splits: list[int]) -> None:
        super().__init__(rdd)
        self.splits = splits

    def get_parents(self, partition_index: int) -> list[int]:
        return [self.splits[partition_index]]


class PrunedRDD(RDD):
    """Exposes only selected parent partitions (for single-partition jobs,
    e.g. point lookups scheduled on the one partition owning the key)."""

    def __init__(self, parent: RDD, splits: list[int]) -> None:
        self._splits = list(splits)
        super().__init__(parent.context, [_PruneDependency(parent, self._splits)])
        self._parent = parent

    @property
    def num_partitions(self) -> int:
        return len(self._splits)

    def compute(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        return self._parent.iterator(self._splits[split], ctx)


class ShuffledRDD(RDD):
    """Reads one reduce partition of a shuffle (the wide edge)."""

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        key_func: Callable[[Any], Any] | None = None,
        combiner: MapSideCombiner | None = None,
    ) -> None:
        self.shuffle_dep = ShuffleDependency(parent, partitioner, key_func, combiner)
        super().__init__(parent.context, [self.shuffle_dep])
        self.partitioner = partitioner

    @property
    def num_partitions(self) -> int:
        return self.shuffle_dep.partitioner.num_partitions

    def compute(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        return self.context.shuffle_manager.fetch(self.shuffle_dep.shuffle_id, split, ctx)
