"""RDD dependencies: the lineage graph edges.

Narrow dependencies (each child partition reads a bounded set of parent
partitions) are pipelined within a stage; a :class:`ShuffleDependency`
forces a stage boundary and materializes map outputs through the
:class:`~repro.engine.shuffle.ShuffleManager`. Fault tolerance replays
exactly these edges (paper Section III-D).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.engine.partitioner import Partitioner

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD


class Dependency:
    """Base: an edge from a child RDD to one parent RDD."""

    def __init__(self, rdd: "RDD") -> None:
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Child partition p depends on parent partitions ``get_parents(p)``."""

    def get_parents(self, partition_index: int) -> list[int]:
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    """Child partition i reads exactly parent partition i (map, filter...)."""

    def get_parents(self, partition_index: int) -> list[int]:
        return [partition_index]


class RangeDependency(NarrowDependency):
    """Used by union: child partitions [out_start, out_start+length) map to
    parent partitions [in_start, in_start+length)."""

    def __init__(self, rdd: "RDD", in_start: int, out_start: int, length: int) -> None:
        super().__init__(rdd)
        self.in_start = in_start
        self.out_start = out_start
        self.length = length

    def get_parents(self, partition_index: int) -> list[int]:
        if self.out_start <= partition_index < self.out_start + self.length:
            return [partition_index - self.out_start + self.in_start]
        return []


class ShuffleDependency(Dependency):
    """A wide dependency: parent records are repartitioned by ``partitioner``.

    ``key_func`` extracts the partitioning key from a record (records need
    not be (k, v) pairs; SQL rows are keyed by join/index columns).
    ``combiner`` optionally pre-aggregates map-side (used by reduce_by_key).
    The shuffle's map outputs stay registered while this edge is alive and
    are dropped once it is collected (``ShuffleManager.release_with``).
    """

    _next_shuffle_id = 0

    def __init__(
        self,
        rdd: "RDD",
        partitioner: Partitioner,
        key_func: Callable[[Any], Any] | None = None,
        combiner: "MapSideCombiner | None" = None,
    ) -> None:
        super().__init__(rdd)
        self.partitioner = partitioner
        self.key_func = key_func if key_func is not None else (lambda rec: rec[0])
        self.combiner = combiner
        self.shuffle_id = ShuffleDependency._next_shuffle_id
        ShuffleDependency._next_shuffle_id += 1
        rdd.context.shuffle_manager.release_with(self)


class MapSideCombiner:
    """Map-side combining spec for aggregations (create / merge per key)."""

    def __init__(
        self,
        create: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        value_func: Callable[[Any], Any] | None = None,
    ) -> None:
        self.create = create
        self.merge_value = merge_value
        self.value_func = value_func if value_func is not None else (lambda rec: rec[1])
