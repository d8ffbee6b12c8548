"""The baseline in-memory columnar cache (``df.cache()`` in vanilla Spark).

A :class:`CachedRelation` materializes a relation as an RDD of
:class:`~repro.sql.columnar.ColumnBatch` (one batch per partition), cached
in executor block managers. Scans over it evaluate filters/projections
vectorized. This is the system the Indexed DataFrame is benchmarked
*against* throughout Section IV.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.engine.rdd import RDD
from repro.sql.columnar import ColumnBatch
from repro.sql.types import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext


class CachedRelation:
    """Columnar, partitioned, cached copy of a relation."""

    def __init__(
        self,
        context: "EngineContext",
        schema: Schema,
        rows: list[tuple],
        num_partitions: int | None = None,
    ) -> None:
        self.context = context
        self.schema = schema
        self.row_count = len(rows)
        n = num_partitions or context.config.default_parallelism
        source = context.parallelize(rows, n)

        def to_batch(split: int, it: Iterator[tuple]) -> Iterator[ColumnBatch]:
            yield ColumnBatch.from_rows(list(it), schema)

        #: RDD with exactly one ColumnBatch element per partition.
        self.batch_rdd: RDD = source.map_partitions_with_index(to_batch).cache()

    def build(self) -> "CachedRelation":
        """Eagerly materialize all batches into the block managers."""
        self.batch_rdd.foreach_partition(lambda it: [None for _ in it])
        return self

    @property
    def num_partitions(self) -> int:
        return self.batch_rdd.num_partitions

    def nbytes(self) -> int:
        """Total cached bytes across partitions (for memory-overhead reports)."""
        return sum(
            self.batch_rdd.map_partitions(lambda it: [sum(b.nbytes for b in it)]).collect()
        )

