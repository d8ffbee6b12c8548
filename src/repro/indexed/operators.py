"""Physical operators over indexed data (the "indexed execution" of Fig. 2).

* :class:`IndexedScanExec` — full scan with fused filter/projection: column
  kernels over one column batch a partition, or (bare ``SELECT *``,
  unviewable partitions, the row-only configuration) the row-wise decode
  that loses to the columnar baseline on projections — Fig. 8.
* :class:`IndexedLookupExec` — point lookup(s) scheduled *only* on the
  owning partition(s); :class:`IndexedRangeScanExec` — a key range sought
  in every partition's ordered index. Both, and a scan a serve router
  reads, also answer as a call (:meth:`IndexedLeafExec.direct_rows`) over
  a partition source: :class:`ResidentPartitions` for the session, a
  router's shards for the serve tier (DESIGN.md §13, §14).
* :class:`IndexedJoinExec` — the indexed join: the index is always the
  build side ("it is actually pre-built"); the probe side is shuffled to
  the index's partitions, or broadcast when small (Section III-C).
"""

from __future__ import annotations

import itertools
import time
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.rdd import RDD, MapPartitionsRDD, PrunedRDD, ZippedPartitionsRDD
from repro.obs.registry import MetricsRegistry
from repro.sql.analysis import resolve_expression
from repro.sql.columnar import ColumnBatch
from repro.sql.expressions import Expression
from repro.sql.joins import make_key_func, record_broadcast
from repro.sql.physical import NotResident, PhysicalPlan, estimate_row_bytes
from repro.sql.prepared import bind_expression, has_parameter
from repro.sql.types import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.indexed.indexed_dataframe import IndexedDataFrame
    from repro.sql.session import Session

#: Planning-time stand-ins for an indexed table's row count (the paper
#: always indexes the large table, and counting would run a job) and for a
#: recognized key range's (assumed selective: why it was pushed down, and
#: well under the full-scan estimate so join-side selection and inlining
#: treat it as the small side).
INDEXED_ROW_ESTIMATE = 1_000_000
INDEXED_RANGE_ESTIMATE = 10_000

#: The series a range scan's partition read records (built once).
_RANGE_SERIES = tuple(
    MetricsRegistry.key(name)
    for name in (
        "ordered_index_range_scans_total",
        "ordered_index_rows_scanned_total",
        "ordered_index_rows_matched_total",
        "ordered_index_range_selectivity",
    )
)
#: ``indexed_key_reads_total`` by the source a partition read reports.
_KEY_READS = {
    source: MetricsRegistry.key("indexed_key_reads_total", source=source)
    for source in ("span", "run", "walk")
}


class ResidentPartitions:
    """The session's partition source for a direct read (DESIGN.md §13): the
    blocks of ``rdd`` resident on a live executor at its version, read with
    the accounting of a task's cache hit, each partition under an operator
    span. A partition that is not resident raises :class:`NotResident`, and
    the session runs the job instead."""

    def __init__(self, rdd: Any) -> None:
        self.rdd = rdd
        self.partitioner = rdd.partitioner

    def read(
        self, work: "list[tuple[int, Any]]", read: Callable[[Any, Any], list[tuple]], name: str
    ) -> Iterator[list[tuple]]:
        """``read(part, arg)`` of the partition of each ``(split, arg)`` of
        ``work`` in turn — the row lists the job's tasks return, in the
        job's order, a partition read only when its rows are asked for (a
        job under LIMIT stops there too). Counts the lineage reference a
        job would."""
        rdd = self.rdd
        context = rdd.context
        context._note_lineage_refs(rdd)
        for split, arg in work:
            part = rdd.resident_partition(split)
            if part is None:
                raise NotResident(f"partition {split} of rdd {rdd.rdd_id}")
            with context.tracer.start_span(name, kind="operator"):
                rows = read(part, arg)
            yield rows


class IndexedLeafExec(PhysicalPlan):
    """A leaf reading one indexed table: a job over its RDD, or a direct
    read through a partition source (:meth:`direct_rows`). ``view`` is the
    catalog name it was planned from (None off the catalog): a serve router
    reads its own pin of that view, whatever version the catalog holds.
    ``kind`` is the path a served read of it reports."""

    kind = ""
    #: The operator span a direct read opens per partition.
    operator = ""

    def __init__(
        self, session: "Session", idf: "IndexedDataFrame", schema: Schema, view: "str | None"
    ) -> None:
        super().__init__(session, schema)
        self.idf = idf
        self.view = view

    def direct_rows(self, source: Any = None) -> "Iterator[tuple] | None":
        if source is None:
            source = ResidentPartitions(self.idf.rdd)
        work = self._work(source.partitioner)
        return itertools.chain.from_iterable(source.read(work, self._read, self.operator))

    def bind(self, values: "Sequence[Any]") -> "PhysicalPlan | None":
        return self  # a lookup's keys and a range's bounds are values already

    def _work(self, partitioner: Any) -> "list[tuple[int, Any]]":
        """``(split, arg)`` per partition to read, in the job's order."""
        raise NotImplementedError

    def _read(self, part: Any, arg: Any) -> list[tuple]:
        raise NotImplementedError


class IndexedScanExec(IndexedLeafExec):
    """Full scan of the indexed data, with filter and projection fused in.

    ``condition`` / ``required`` come from the rules' fusion of
    ``Project?(Filter?(IndexedRelation))`` (what the lookup and range
    operators did not claim). A fused scan runs the column kernels of
    :class:`~repro.sql.columnar.ColumnBatch` — exactly what
    ``ColumnarScanExec`` runs — once a partition, over one column batch of
    all its row batches (``scan_columns``, DESIGN.md §18); rows are
    materialized only for what survives. A partition that cannot be viewed
    (non-contiguous version, a NULL) and
    ``Config.indexed_column_kernels=False`` take the row path instead:
    decode every row, filter and project row by row — the paper's row-wise
    behaviour, same answer. A bare ``SELECT *`` scan takes the row path
    too; ``scan_rows`` decodes through the same views, a row batch at a time
    (``RowCodec.decode_all``). A session's scan is a job; only a
    serve router, passing its shards as the source, reads one directly.
    """

    kind = "scan"
    operator = "indexed_scan"

    def __init__(
        self,
        session: "Session",
        idf: "IndexedDataFrame",
        required: "list[str] | None" = None,
        condition: "Expression | None" = None,
        view: "str | None" = None,
    ) -> None:
        super().__init__(session, idf, idf.schema.select(required) if required else idf.schema, view)
        self.required = required or None
        self.condition = (
            resolve_expression(condition, idf.schema) if condition is not None else None
        )

    def _scan_rows(self, part: Any) -> list[tuple]:
        """The row path: decode every row, then filter and project each."""
        rows = part.scan_rows()
        if self.condition is not None:
            keep = self.condition.eval
            rows = [row for row in rows if keep(row)]
        if self.required is not None:
            ordinals = [self.idf.schema.index_of(n) for n in self.required]
            rows = [tuple(row[i] for i in ordinals) for row in rows]
        return rows

    def _scan_batch(self, part: Any, columns: "list[str]") -> "ColumnBatch | None":
        """The kernel path: the partition's rows that pass the filter, as one
        batch holding ``columns``, or None when this partition cannot be
        viewed column-major."""
        condition = self.condition
        names = list(columns)
        if condition is not None:
            names += sorted(condition.references() - set(names))
        batch = part.scan_columns(names, self.session.context.registry)
        return None if batch is None else batch.scan(condition, columns)

    def _read(self, part: Any, arg: Any = None) -> list[tuple]:
        """One partition's output rows."""
        # Bare SELECT * has nothing to fuse: every field of every row is
        # wanted, which is what scan_rows produces.
        kernels = self.session.context.config.indexed_column_kernels and (
            self.condition is not None or self.required is not None
        )
        batch = self._scan_batch(part, self.schema.names()) if kernels else None
        return self._scan_rows(part) if batch is None else batch.to_rows()

    def do_execute(self) -> RDD:
        def scan(parts: Iterator[Any], ctx: Any) -> Iterator[tuple]:
            with ctx.span("indexed_scan"):
                rows = self._read(next(iter(parts)))
            return iter(rows)

        return self.idf.rdd.map_partitions_with_context(scan, preserves_partitioning=True)

    def do_execute_batches(self, columns: "list[str] | None") -> "RDD | None":
        if not self.session.context.config.indexed_column_kernels:
            return None
        if columns is None:
            columns = self.schema.names()
        schema = self.schema

        def scan(parts: Iterator[Any], ctx: Any) -> Iterator[ColumnBatch]:
            part = next(iter(parts))
            with ctx.span("indexed_scan"):
                batch = self._scan_batch(part, columns)
                if batch is None:
                    batch = ColumnBatch.from_rows(self._scan_rows(part), schema)
            return iter((batch,))

        return self.idf.rdd.map_partitions_with_context(scan, preserves_partitioning=True)

    def direct_rows(self, source: Any = None) -> "Iterator[tuple] | None":
        return None if source is None else super().direct_rows(source)

    def _work(self, partitioner: Any) -> "list[tuple[int, Any]]":
        return [(split, None) for split in range(partitioner.num_partitions)]

    @cached_property
    def _binds(self) -> bool:
        """Whether the condition holds a ``?`` (decided at the first bind)."""
        return self.condition is not None and has_parameter(self.condition)

    def bind(self, values: "Sequence[Any]") -> "IndexedScanExec":
        if not self._binds:
            return self
        condition = bind_expression(self.condition, values)
        return IndexedScanExec(self.session, self.idf, self.required, condition, self.view)

    def estimated_rows(self) -> int:
        # Count is cheap (partition metadata), but avoid jobs during planning.
        if self.condition is not None:
            return INDEXED_ROW_ESTIMATE // 4
        return INDEXED_ROW_ESTIMATE

    def __repr__(self) -> str:
        parts = [self.idf.name]
        if self.condition is not None:
            parts.append(f"filter={self.condition!r}")
        if self.required:
            parts.append(f"cols={self.required}")
        return f"IndexedScan({', '.join(parts)})"


class IndexedRangeScanExec(IndexedLeafExec):
    """Range/prefix scan over the ordered secondary index (DESIGN.md §15).

    Keys are hash-partitioned, so a key range spans *all* partitions — the
    win is not partition pruning but row pruning: each partition seeks into
    its sorted key array and decodes only the chains inside the interval,
    instead of decoding every batch. Reports rows *scanned* (decoded,
    including hash-collision rejects) vs rows *matched* to the metrics
    registry, the numbers the EXPLAIN ANALYZE selectivity story is built on.
    """

    kind = "range"
    operator = "range_scan"

    def __init__(
        self, session: "Session", idf: "IndexedDataFrame", krange: Any, view: "str | None" = None
    ) -> None:
        super().__init__(session, idf, idf.schema, view)
        self.krange = krange

    def _read(self, part: Any, krange: Any) -> list[tuple]:
        """One partition's rows in ``krange``, the scan counted in one
        registry call."""
        registry = self.session.context.registry
        rows, scanned, source = part.range_read(krange)
        scans, rows_scanned, rows_matched, selectivity = _RANGE_SERIES
        registry.count_and_observe(
            scans,
            selectivity if scanned else None,
            len(rows) / scanned if scanned else 0.0,
            ((rows_scanned, scanned), (rows_matched, len(rows)), (_KEY_READS[source], 1)),
        )
        return rows

    def do_execute(self) -> RDD:
        def range_scan(parts: Iterator[Any], ctx: Any) -> Iterator[tuple]:
            part = next(iter(parts))
            with ctx.span("range_scan"):
                rows = self._read(part, self.krange)
            return iter(rows)

        return self.idf.rdd.map_partitions_with_context(range_scan, preserves_partitioning=True)

    def _work(self, partitioner: Any) -> "list[tuple[int, Any]]":
        return [(split, self.krange) for split in range(partitioner.num_partitions)]

    def estimated_rows(self) -> int:
        return INDEXED_RANGE_ESTIMATE

    def __repr__(self) -> str:
        return f"IndexedRangeScan({self.idf.name}, {self.krange.describe()})"


class IndexedLookupExec(IndexedLeafExec):
    """Point lookup(s): prune to owning partitions, search cTrie, walk chain."""

    kind = "point"
    operator = "lookup"

    def __init__(
        self, session: "Session", idf: "IndexedDataFrame", keys: list[Any], view: "str | None" = None
    ) -> None:
        super().__init__(session, idf, idf.schema, view)
        self.keys = keys

    def _work(self, partitioner: Any) -> "list[tuple[int, Any]]":
        """The keys, in plan order, under the partition owning each; splits
        ascending."""
        by_split: dict[int, list[Any]] = {}
        for key in self.keys:
            by_split.setdefault(partitioner.partition(key), []).append(key)
        return sorted(by_split.items())

    def _read(self, part: Any, keys: list[Any]) -> list[tuple]:
        rows: list[tuple] = []
        for key in keys:
            rows.extend(part.lookup(key))
        return rows

    def do_execute(self) -> RDD:
        work = self._work(self.idf.partitioner)
        splits = [split for split, _ in work]

        def lookup(parts: Iterator[Any], split: int, ctx: Any) -> Iterator[tuple]:
            keys = work[split][1]
            with ctx.span("lookup", keys=len(keys)):
                rows = self._read(next(iter(parts)), keys)
            return iter(rows)

        return MapPartitionsRDD(PrunedRDD(self.idf.rdd, splits), lookup)

    def estimated_rows(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:
        return f"IndexedLookup({self.idf.name}, keys={self.keys!r})"


class _IndexedJoinRDD(ZippedPartitionsRDD):
    """zip_partitions of the index and the shuffled probe side whose function
    also gets the TaskContext: ``f(index_parts, probe_rows, ctx)``."""

    def compute(self, split: int, ctx: Any) -> Iterator[tuple]:
        return self._f(self._left.iterator(split, ctx), self._right.iterator(split, ctx), ctx)


class IndexedJoinExec(PhysicalPlan):
    """Join where the indexed relation is the pre-built build side.

    The probe (non-indexed) side is shuffled according to the index's hash
    partitioning and probed locally against each partition's cTrie; if the
    probe side is small enough it is broadcast instead (the paper's
    fallback). Output column order follows the logical Join (left ++ right),
    controlled by ``indexed_on_left``.
    """

    def __init__(
        self,
        session: "Session",
        idf: "IndexedDataFrame",
        probe: PhysicalPlan,
        probe_keys: list[Expression],
        indexed_on_left: bool,
        schema: Schema,
        how: str = "inner",
        residual: Expression | None = None,
    ) -> None:
        super().__init__(session, schema)
        self.idf = idf
        self.probe = probe
        self.probe_keys = probe_keys
        self.indexed_on_left = indexed_on_left
        self.how = how
        self.residual = residual
        if how == "left" and indexed_on_left:
            raise ValueError("left outer join preserves the probe side; index must be on the right")

    def children(self) -> list[PhysicalPlan]:
        return [self.probe]

    def do_execute(self) -> RDD:
        session = self.session
        idf = self.idf
        probe_key = make_key_func(self.probe_keys)
        indexed_on_left = self.indexed_on_left
        residual = self.residual
        how = self.how
        null_indexed = (None,) * len(idf.schema)
        registry = session.context.registry

        def probe_partition(parts: Iterator, rows: Iterable, ctx: Any, keys: Any = None) -> Iterator[tuple]:
            part = next(iter(parts))
            with ctx.span("probe"):
                # Each distinct key's matches are read exactly once, as field
                # columns (match_columns); probe row i takes its key's.
                rows = list(rows)
                places: dict[Any, int] = {}
                inverse = np.fromiter(
                    (places.setdefault(key, len(places)) for key in (map(probe_key, rows) if keys is None else keys)),
                    np.intp, len(rows),
                )
                matched, counts, source = part.match_columns(list(places))
                registry.count_and_observe(_KEY_READS[source], None, 0.0)
                # Probe row i pairs with its key's matches first[i], first[i] + 1, ...
                per_row = counts[inverse]
                first = (np.cumsum(counts) - counts)[inverse]
                probe_at = np.repeat(np.arange(len(rows)), per_row)
                match_at = np.repeat(first - np.cumsum(per_row) + per_row, per_row)
                match_at += np.arange(len(match_at))
                build = [column[match_at].tolist() for column in matched]
                probe = [
                    np.fromiter(column, object, len(rows))[probe_at].tolist()
                    for column in zip(*rows)
                ]
                out = list(zip(*build, *probe) if indexed_on_left else zip(*probe, *build))
                if residual is not None:
                    keep = np.fromiter((bool(residual.eval(j)) for j in out), bool, len(out))
                    out = [joined for joined, kept in zip(out, keep.tolist()) if kept]
                    probe_at = probe_at[keep]
                if how == "left" and not indexed_on_left:
                    missed = np.flatnonzero(np.bincount(probe_at, minlength=len(rows)) == 0)
                    out += [rows[i] + null_indexed for i in missed.tolist()]
            return iter(out)

        probe_rdd = self.probe.execute()
        probe_bytes = self.probe.estimated_rows() * estimate_row_bytes(self.probe.schema)
        context = session.context
        if probe_bytes <= context.config.broadcast_threshold:
            # Broadcast fallback: ship all probe rows to every index partition,
            # pre-bucketed by the index partitioner so each partition only
            # probes keys it can own. Each row's key is evaluated once, here,
            # and shipped with it.
            t0 = time.perf_counter()
            rows = probe_rdd.collect()
            context.registry.inc(
                "join_phase_seconds_total", time.perf_counter() - t0, phase="collect_probe"
            )
            keys = [probe_key(row) for row in rows]
            splits = idf.partitioner.partition_array(keys)
            order = np.argsort(splits, kind="stable").tolist()
            ends = np.cumsum(np.bincount(splits, minlength=idf.rdd.num_partitions)).tolist()
            keys, by_split = [keys[i] for i in order], [rows[i] for i in order]
            buckets = [(keys[lo:hi], by_split[lo:hi]) for lo, hi in zip([0, *ends], ends)]
            record_broadcast(context, rows)

            def probe_broadcast(split: int, parts: Iterator[Any], ctx: Any) -> Iterator[tuple]:
                return probe_partition(parts, buckets[split][1], ctx, buckets[split][0])

            # Lineage can't bound this RDD (the indexed parent is wide), but
            # a broadcast probe emits at most ~len(rows) matches per partition
            # — hint it so tiny probe jobs inline instead of paying pool
            # handoff latency (the fig01 small-job regression).
            return MapPartitionsRDD(
                idf.rdd, lambda it, split, ctx: probe_broadcast(split, it, ctx)
            ).with_estimated_records(len(rows))
        # Shuffle the probe side to the index's partitions (Section III-C).
        shuffled = probe_rdd.partition_by(idf.partitioner, key_func=probe_key)
        return _IndexedJoinRDD(idf.rdd, shuffled, probe_partition)

    def estimated_rows(self) -> int:
        return self.probe.estimated_rows()

    def __repr__(self) -> str:
        side = "left" if self.indexed_on_left else "right"
        return f"IndexedJoin({self.idf.name} as build/{side}, how={self.how})"
