"""The Indexed DataFrame public API (paper Listing 1).

Scala (paper)                      Python (here)
---------------------------------  -------------------------------------------
``df.createIndex(col)``            ``df.create_index("col")`` (method added to
                                   DataFrame by :mod:`repro.indexed.rules`, the
                                   implicit-conversion analogue) or
                                   ``IndexedDataFrame.create_index(df, "col")``
``idf.cacheIndex()``               ``idf.cache_index()``
``idf.getRows(key)``               ``idf.get_rows(key)`` -> small DataFrame
``idf.appendRows(df)``             ``idf.append_rows(df)`` -> *new* version
indexed joins via Catalyst rules   automatic once ``enable_indexing(session)``
                                   (done by ``create_index``) has run

``append_rows`` returns a new IndexedDataFrame backed by a new versioned
RDD; the parent stays valid (MVCC, Listing 2's divergent appends both
work). Each append's :class:`AppendRDD` holds its rows as a driver-side
source that every recomputation re-reads, satisfying the replayable-source
requirement for fault tolerance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.indexed.batch_rdd import AppendRDD, CreateIndexRDD, IndexedBatchRDD
from repro.sql.dataframe import DataFrame
from repro.sql.row import Row
from repro.sql.types import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.session import Session


class IndexedDataFrame:
    """An in-memory, indexed, append-able cache of a dataframe."""

    def __init__(
        self,
        session: "Session",
        schema: Schema,
        key_column: str,
        rdd: IndexedBatchRDD,
        name: str = "indexed",
    ) -> None:
        self.session = session
        self.schema = schema
        self.key_column = key_column
        self.rdd = rdd
        self.name = name

    # -- construction -------------------------------------------------------------

    @classmethod
    def create_index(
        cls,
        df: DataFrame,
        column: str,
        num_partitions: int | None = None,
        name: str | None = None,
    ) -> "IndexedDataFrame":
        """Index ``df`` on ``column``: shuffle rows to hash partitions and
        build each partition's cTrie + row batches.

        Also installs the indexed optimizer rules on the session (the only
        modification a program needs, per Section III-F).
        """
        from repro.indexed.rules import enable_indexing

        session = df.session
        enable_indexing(session)
        schema = df.schema
        if column not in schema:
            raise KeyError(f"index column {column!r} not in {schema.names()}")
        n = num_partitions or session.context.config.shuffle_partitions
        source = session.plan_physical(df.plan).execute()
        rdd = CreateIndexRDD(session.context, source, schema, column, n)
        return cls(
            session,
            schema,
            column,
            rdd,
            name=name or f"{getattr(df.plan, 'name', 'df')}_idx",
        )

    def cache_index(self) -> "IndexedDataFrame":
        """Materialize every partition into the executors' block managers.

        The paper recommends calling this right after ``create_index`` so the
        index lives in memory before the first query.
        """
        self.rdd.foreach_partition(lambda it: [None for _ in it])
        return self

    # -- point lookups -----------------------------------------------------------------

    def get_rows(self, key: Any) -> DataFrame:
        """All rows with ``key``, as a (small) regular DataFrame.

        The lookup reads only the partition owning the key (hash
        partitioning pins it), then searches the cTrie and walks the
        backward-pointer chain — worst-case logarithmic, Section II.
        """
        return self.session.create_dataframe(
            self.lookup_tuples(key), self.schema, name=f"{self.name}_lookup"
        )

    def lookup_tuples(self, key: Any) -> list[tuple]:
        """Raw-tuple variant of :meth:`get_rows`: the planner's point lookup,
        read as a call when the partition is resident and as a one-partition
        job otherwise (``Session.execute``, DESIGN.md §13)."""
        from repro.indexed.operators import IndexedLookupExec

        return self.session.execute(IndexedLookupExec(self.session, self, [key]))

    def materialize_partitions(self) -> list[Any]:
        """Compute (or fetch from cache) every partition and return the
        actual in-process :class:`IndexedPartition` objects, ordered by split.

        The serving layer's snapshot pin: blocks live in executor block
        managers *in this process*, so the returned objects are the real
        cached partitions. Holding them keeps the version's cTrie snapshot
        and row batches alive even if the block store later evicts them —
        and because this goes through ``run_job``, a partition lost to an
        executor failure is rebuilt from lineage before being returned.
        """
        return self.session.context.run_job(self.rdd, lambda it, _ctx: next(iter(it)))

    # -- appends (MVCC) ---------------------------------------------------------------------

    def append_rows(self, rows: "DataFrame | Sequence[tuple]") -> "IndexedDataFrame":
        """Append rows; returns a **new** IndexedDataFrame (version + 1).

        Works both fine-grained (a few rows) and batched (a whole DataFrame),
        Section III-A. The parent remains queryable; divergent children of
        one parent coexist via partition snapshots (Section III-E). The
        physical append executes when the child is first materialized.
        """
        if isinstance(rows, DataFrame):
            new_rows = rows.collect_tuples()
        else:
            new_rows = [tuple(r) for r in rows]
        for r in new_rows:
            if len(r) != len(self.schema):
                raise ValueError(
                    f"appended row width {len(r)} != schema width {len(self.schema)}"
                )
        # Replayable source: the RDD below re-reads the rows from driver
        # memory on every recomputation, so lineage can replay the append
        # after failures.
        source = self.session.context.parallelize(
            new_rows, max(1, min(len(new_rows), self.rdd.num_partitions))
        )
        return IndexedDataFrame(
            self.session, self.schema, self.key_column, AppendRDD(self.rdd, source), self.name
        )

    # -- interop with the SQL layer ----------------------------------------------------------

    def to_df(self) -> DataFrame:
        """A DataFrame view; queries on it hit the indexed operators via the
        injected rules, or fall back to a full (row-decoding) scan."""
        from repro.indexed.rules import IndexedRelation

        return DataFrame(self.session, IndexedRelation(self))

    def create_or_replace_temp_view(self, name: str) -> "IndexedDataFrame":
        from repro.indexed.rules import IndexedRelation

        self.session.catalog.register(name, IndexedRelation(self, name.lower()))
        return self

    # -- stats / introspection ----------------------------------------------------------------

    @property
    def version(self) -> int:
        return self.rdd.version

    @property
    def num_partitions(self) -> int:
        return self.rdd.num_partitions

    @property
    def partitioner(self):
        return self.rdd.partitioner

    def count(self) -> int:
        return sum(
            self.session.context.run_job(self.rdd, lambda it, _ctx: next(iter(it)).row_count)
        )

    def collect(self) -> list[Row]:
        schema = self.schema
        tuples = [
            row
            for part_rows in self.session.context.run_job(
                self.rdd, lambda it, _ctx: next(iter(it)).scan_rows()
            )
            for row in part_rows
        ]
        return [Row(t, schema) for t in tuples]

    def memory_stats(self) -> list[dict[str, float]]:
        """Per-partition (index bytes, data bytes, overhead ratio) — Fig. 11.

        Under a memory budget (DESIGN.md §10) also reports what is actually
        resident: ``resident_bytes`` excludes batches spilled to disk, and
        ``spill_faults`` counts how often spilled batches were loaded back.
        """

        def stats(it, _ctx):
            p = next(iter(it))
            idx = p.index_bytes()
            data = p.storage_bytes()
            return {
                "partition_rows": float(p.row_count),
                "index_bytes": float(idx),
                "data_bytes": float(data),
                "overhead": idx / max(1, data),
                "resident_bytes": float(p.resident_batch_bytes()),
                "spill_faults": float(p.spill_faults()),
            }

        return self.session.context.run_job(self.rdd, stats)

    def spill_index(self, keep_tail: bool = True) -> int:
        """Proactively spill every cached partition's sealed row batches to
        disk, returning the number of bytes moved out of memory.

        The memory manager does this reactively when an executor exceeds
        ``Config.executor_memory_bytes``; this entry point lets an
        application shed a cold index ahead of a known memory spike. Spilled
        batches fault back in transparently on the next lookup or scan.
        """
        context = self.session.context

        def spill(it, ctx):
            # Through the executor's memory manager, like a reactive spill:
            # same fault meter, same corruption chaos hook.
            memory = context.executor_runtime(ctx.executor_id).memory_manager
            return memory.spill_partition(next(iter(it)), keep_tail=keep_tail)

        return sum(context.run_job(self.rdd, spill))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"IndexedDataFrame({self.name}, key={self.key_column}, "
            f"version={self.version}, partitions={self.num_partitions})"
        )
