"""The Indexed Batch RDD (paper Section III-C/III-D).

A custom RDD whose partitions are :class:`IndexedPartition` objects —
(cTrie, row batches, backward pointers) — hash-partitioned on the index
key. Two concrete lineages:

* :class:`CreateIndexRDD` — ``createIndex``: shuffle the source rows to
  their index partitions (hash partitioning: "better load balancing when
  key ranges are not known a-priori") and build each partition;
* :class:`AppendRDD` — ``appendRows``: snapshot the parent version's
  partition (O(1), shared structure) and insert the shuffled appended rows.
  The appended rows come from the driver-held :class:`ReplayLog` — the
  replayable-source requirement of Section III-D — so a lost partition can
  always be rebuilt by (recursively) recomputing the parent and replaying.

**Versioning / staleness guard**: every version is a distinct immutable
RDD carrying ``version``; partitions embed the version they materialize.
:meth:`IndexedBatchRDD.iterator` validates cached partitions against the
RDD's version and invalidates + recomputes mismatches, so a stale replayed
copy can never serve a query — the paper's version-number mechanism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.dependencies import OneToOneDependency, ShuffleDependency
from repro.engine.partition import TaskContext
from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import RDD
from repro.indexed.partition import IndexedPartition
from repro.sql.types import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext


class IndexedBatchRDD(RDD):
    """Base: one IndexedPartition object per partition, always cached."""

    def __init__(
        self,
        context: "EngineContext",
        schema: Schema,
        key_column: str,
        partitioner: HashPartitioner,
        version: int,
        dependencies: list,
    ) -> None:
        super().__init__(context, dependencies)
        self.schema = schema
        self.key_column = key_column
        self.key_ordinal = schema.index_of(key_column)
        self.partitioner = partitioner
        self.version = version
        self.cached = True  # indexed data always lives in the block managers

    @property
    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    # -- version-checked access ------------------------------------------------

    def iterator(self, split: int, ctx: TaskContext) -> Iterator[Any]:
        part = next(iter(super().iterator(split, ctx)))
        if part.version != self.version:
            # Stale partition (e.g. a replayed copy predating an append, or
            # a recovery that replayed too little of the log): refuse it,
            # drop the block, recompute from lineage — the paper's
            # version-number guard (Section III-D).
            import time

            stale_version = part.version
            self.context.invalidate_block((self.rdd_id, split))
            t0 = time.perf_counter()
            part = next(iter(super().iterator(split, ctx)))
            if part.version != self.version:  # pragma: no cover - lineage bug
                raise RuntimeError(
                    f"partition {split} recomputed to version {part.version}, "
                    f"expected {self.version}"
                )
            self.context.metrics.record_recovery(
                "stale_partition_rebuilt",
                job_index=ctx.job_index,
                stage_id=ctx.stage_id,
                partition=split,
                executor_id=ctx.executor_id,
                seconds=time.perf_counter() - t0,
                detail=f"stale_version={stale_version} current={self.version}",
            )
        return iter([part])

    def partition_object(self, split: int, ctx: TaskContext) -> IndexedPartition:
        return next(self.iterator(split, ctx))

    def resident_partition(self, split: int) -> "IndexedPartition | None":
        """Partition ``split`` straight from a live executor's block store,
        with the accounting of a task's cache hit — or None, counted by why,
        when it is not resident at this version: a job then rebuilds it from
        lineage, as :meth:`iterator` does (DESIGN.md §13)."""
        context = self.context
        block_id = (self.rdd_id, split)
        outcome = "not_resident"
        for executor_id in context.block_manager_master.locations(block_id):
            runtime = context.executor_runtime(executor_id, allow_dead=True)
            if runtime is None or not runtime.alive:
                continue
            value = runtime.block_manager.get(block_id)
            if value is None:
                continue
            part = value[0]
            if part.version != self.version:
                outcome = "stale"
                break
            context.registry.inc("cache_hits_total", level="local")
            context.advisor.note_block_access(block_id)
            return part
        context.registry.inc("sql_direct_reads_total", outcome=outcome)
        return None

    def partition_for_key(self, key: Any) -> int:
        return self.partitioner.partition(key)

    def _new_partition(self) -> IndexedPartition:
        cfg = self.context.config
        return IndexedPartition(
            self.schema,
            self.key_column,
            batch_size=cfg.row_batch_size,
            max_row_size=cfg.max_row_size,
            version=self.version,
            ordered_compact_threshold=cfg.ordered_index_compact_threshold,
        )


class CreateIndexRDD(IndexedBatchRDD):
    """Version 0: build partitions from a shuffled source row RDD."""

    def __init__(
        self,
        context: "EngineContext",
        source: RDD,
        schema: Schema,
        key_column: str,
        num_partitions: int,
    ) -> None:
        partitioner = HashPartitioner(num_partitions)
        key_ordinal = schema.index_of(key_column)
        self.shuffle_dep = ShuffleDependency(
            source, partitioner, key_func=lambda row: row[key_ordinal]
        )
        super().__init__(context, schema, key_column, partitioner, 0, [self.shuffle_dep])

    def compute(self, split: int, ctx: TaskContext) -> Iterator[IndexedPartition]:
        import time

        rows = self.context.shuffle_manager.fetch(self.shuffle_dep.shuffle_id, split, ctx)
        part = self._new_partition()
        t0 = time.perf_counter()
        part.insert_rows(rows)
        ctx.add_phase("index_build", time.perf_counter() - t0)
        yield part


class AppendRDD(IndexedBatchRDD):
    """Version n+1: snapshot the parent's partitions and insert new rows.

    ``append_source`` is an RDD over the replay-log rows for this version;
    it is shuffled with the parent's partitioner so rows land on the
    partitions owning their keys (the shuffle cost dominating Fig. 10).
    """

    def __init__(self, parent: IndexedBatchRDD, append_source: RDD) -> None:
        key_ordinal = parent.key_ordinal
        self.append_dep = ShuffleDependency(
            append_source, parent.partitioner, key_func=lambda row: row[key_ordinal]
        )
        super().__init__(
            parent.context,
            parent.schema,
            parent.key_column,
            parent.partitioner,
            parent.version + 1,
            [OneToOneDependency(parent), self.append_dep],
        )
        self.parent = parent

    def compute(self, split: int, ctx: TaskContext) -> Iterator[IndexedPartition]:
        import time

        parent_part = self.parent.partition_object(split, ctx)
        new_rows = self.context.shuffle_manager.fetch(self.append_dep.shuffle_id, split, ctx)
        child = parent_part.snapshot(self.version)
        t0 = time.perf_counter()
        child.insert_rows(new_rows)
        ctx.add_phase("append", time.perf_counter() - t0)
        yield child
