"""Physical operators over indexed data (the "indexed execution" of Fig. 2).

* :class:`IndexedScanExec` — full scan with fused filter/projection: column
  kernels over per-task views of the binary batches, or (bare ``SELECT *``,
  unviewable partitions, the row-only configuration) the row-wise decode
  that loses to the columnar baseline on projections — Fig. 8.
* :class:`IndexedLookupExec` — point lookup(s) scheduled *only* on the
  owning partition(s).
* :class:`IndexedJoinExec` — the indexed join: the index is always the
  build side ("it is actually pre-built"); the probe side is shuffled to
  the index's partitions, or broadcast when small (Section III-C).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.engine.rdd import RDD, MapPartitionsRDD, PrunedRDD, ZippedPartitionsRDD
from repro.engine.shuffle import estimate_size
from repro.sql.analysis import resolve_expression
from repro.sql.columnar import ColumnBatch
from repro.sql.expressions import Expression
from repro.sql.joins import make_key_func
from repro.sql.physical import NotResident, PhysicalPlan, estimate_row_bytes
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


class IndexedScanExec(PhysicalPlan):
    """Full scan of the indexed data, with filter and projection fused in.

    ``condition`` / ``required`` come from the rules' fusion of
    ``Project?(Filter?(IndexedRelation))`` (what the lookup and range
    operators did not claim). A fused scan runs the column kernels of
    :class:`~repro.sql.columnar.ColumnBatch` — exactly what
    ``ColumnarScanExec`` runs — over per-task column views of the row
    batches (``scan_columns``, DESIGN.md §18); rows are materialized only
    for what survives. A partition that cannot be viewed (non-contiguous
    version, a NULL) and ``Config.indexed_column_kernels=False`` take the
    row path instead: decode every row, filter and project row by row —
    the paper's row-wise behaviour, same answer. A bare ``SELECT *`` scan
    always decodes rows (``decode_all``).
    """

    def __init__(
        self,
        session: "Session",
        idf: "IndexedDataFrame",
        required: "list[str] | None" = None,
        condition: "Expression | None" = None,
    ) -> None:
        super().__init__(session, idf.schema.select(required) if required else idf.schema)
        self.idf = idf
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

    def _scan_batches(self, part: Any, columns: "list[str]") -> "list[ColumnBatch] | None":
        """The kernel path: filtered batches holding ``columns``, or None
        when this partition cannot be viewed column-major."""
        condition = self.condition
        names = list(columns)
        if condition is not None:
            names += sorted(condition.references() - set(names))
        batches = part.scan_columns(names)
        if batches is None:
            return None
        return [batch.scan(condition, columns) for batch in batches]

    def do_execute(self) -> RDD:
        # Bare SELECT * has nothing to fuse: every field of every row is
        # wanted, which is what the row decode kernel produces.
        kernels = self.session.context.config.indexed_column_kernels and (
            self.condition is not None or self.required is not None
        )
        columns = self.schema.names()

        def scan(parts: Iterator[Any], ctx: Any) -> Iterator[tuple]:
            part = next(iter(parts))
            with ctx.span("indexed_scan"):
                batches = self._scan_batches(part, columns) if kernels else None
                if batches is None:
                    rows = self._scan_rows(part)
                else:
                    rows = []
                    for batch in batches:
                        rows.extend(batch.to_rows())
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
                batches = self._scan_batches(part, columns)
                if batches is None:
                    batches = [ColumnBatch.from_rows(self._scan_rows(part), schema)]
            return iter(batches)

        return self.idf.rdd.map_partitions_with_context(scan, preserves_partitioning=True)

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


class IndexedRangeScanExec(PhysicalPlan):
    """Range/prefix scan over the ordered secondary index (DESIGN.md §15).

    Keys are hash-partitioned, so a key range spans *all* partitions — the
    win is not partition pruning but row pruning: each partition seeks into
    its sorted key array and decodes only the chains inside the interval,
    instead of decoding every batch. Reports rows *scanned* (decoded,
    including hash-collision rejects) vs rows *matched* to the metrics
    registry, the numbers the EXPLAIN ANALYZE selectivity story is built on.
    """

    def __init__(self, session: "Session", idf: "IndexedDataFrame", krange: Any) -> None:
        super().__init__(session, idf.schema)
        self.idf = idf
        self.krange = krange

    def _range_scan(self, part: Any, krange: Any) -> list[tuple]:
        """One partition's rows in ``krange``, the scan counted."""
        rows, scanned = part.range_lookup(krange)
        registry = self.session.context.registry
        registry.inc("ordered_index_range_scans_total")
        registry.inc("ordered_index_rows_scanned_total", scanned)
        registry.inc("ordered_index_rows_matched_total", len(rows))
        if scanned:
            registry.observe("ordered_index_range_selectivity", len(rows) / scanned)
        return rows

    def do_execute(self) -> RDD:
        def range_scan(parts: Iterator[Any], ctx: Any) -> Iterator[tuple]:
            part = next(iter(parts))
            with ctx.span("range_scan"):
                rows = self._range_scan(part, self.krange)
            return iter(rows)

        return self.idf.rdd.map_partitions_with_context(range_scan, preserves_partitioning=True)

    def direct_rows(self) -> Iterator[tuple]:
        splits = range(self.idf.rdd.num_partitions)
        work = [(split, self.krange) for split in splits]
        return _read_resident(self.idf.rdd, work, self._range_scan, "range_scan")

    def estimated_rows(self) -> int:
        return INDEXED_RANGE_ESTIMATE

    def __repr__(self) -> str:
        return f"IndexedRangeScan({self.idf.name}, {self.krange.describe()})"


class IndexedLookupExec(PhysicalPlan):
    """Point lookup(s): prune to owning partitions, search cTrie, walk chain."""

    def __init__(self, session: "Session", idf: "IndexedDataFrame", keys: list[Any]) -> None:
        super().__init__(session, idf.schema)
        self.idf = idf
        self.keys = keys

    def _by_split(self) -> dict[int, list[Any]]:
        """The keys, in plan order, under the partition owning each."""
        by_split: dict[int, list[Any]] = {}
        for key in self.keys:
            by_split.setdefault(self.idf.rdd.partition_for_key(key), []).append(key)
        return by_split

    @staticmethod
    def _lookup(part: Any, keys: list[Any]) -> list[tuple]:
        rows: list[tuple] = []
        for key in keys:
            rows.extend(part.lookup(key))
        return rows

    def do_execute(self) -> RDD:
        by_split = self._by_split()
        splits = sorted(by_split)

        def lookup(parts: Iterator[Any], split: int, ctx: Any) -> Iterator[tuple]:
            keys = by_split[splits[split]]
            with ctx.span("lookup", keys=len(keys)):
                rows = self._lookup(next(iter(parts)), keys)
            return iter(rows)

        return MapPartitionsRDD(PrunedRDD(self.idf.rdd, splits), lookup)

    def direct_rows(self) -> Iterator[tuple]:
        work = sorted(self._by_split().items())
        return _read_resident(self.idf.rdd, work, self._lookup, "lookup", keys=len(self.keys))

    def estimated_rows(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:
        return f"IndexedLookup({self.idf.name}, keys={self.keys!r})"


def _read_resident(
    rdd: Any, work: "list[tuple[int, Any]]", read: Callable[[Any, Any], list[tuple]], name: str,
    **attrs: Any,
) -> Iterator[tuple]:
    """A key-bound leaf's direct read (DESIGN.md §13): ``read(part, arg)``
    of the resident partition of each ``(split, arg)`` of ``work`` in turn,
    each under a ``name`` operator span — the rows its job's tasks return,
    in the job's order, a partition read only when its rows are asked for
    (a job under LIMIT stops there too). Counts the lineage reference a job
    would."""
    context = rdd.context
    context._note_lineage_refs(rdd)
    for split, arg in work:
        part = rdd.resident_partition(split)
        if part is None:
            raise NotResident(f"partition {split} of rdd {rdd.rdd_id}")
        with context.tracer.start_span(name, kind="operator", **attrs):
            rows = read(part, arg)
        yield from rows


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

        def probe_partition(parts: Iterator[Any], probe_rows: Iterator[tuple], ctx: Any) -> Iterator[tuple]:
            part = next(iter(parts))
            with ctx.span("probe"):
                # Group probe rows by key: each distinct key's matches are read
                # exactly once, as field columns (match_columns).
                by_key: dict[Any, list[tuple]] = {}
                for row in probe_rows:
                    by_key.setdefault(probe_key(row), []).append(row)
                matched, counts = part.match_columns(list(by_key))
                rows = [row for group in by_key.values() for row in group]
                sizes = np.fromiter(map(len, by_key.values()), np.intp, len(by_key))
                # Probe row i pairs with its key's matches first[i], first[i] + 1, ...
                per_row = np.repeat(counts, sizes)
                first = np.repeat(np.cumsum(counts) - counts, sizes)
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
            # probes keys it can own.
            t0 = time.perf_counter()
            rows = probe_rdd.collect()
            session.phase_timer.add("collect_probe", time.perf_counter() - t0)
            buckets: dict[int, list[tuple]] = {}
            splits = idf.partitioner.partition_array([probe_key(row) for row in rows])
            for split, row in zip(splits.tolist(), rows):
                buckets.setdefault(split, []).append(row)
            bcast_seconds = context.network.broadcast_time(
                estimate_size(rows), context.topology.num_machines
            )
            session.phase_timer.add("broadcast", bcast_seconds)

            def probe_broadcast(split: int, parts: Iterator[Any], ctx: Any) -> Iterator[tuple]:
                return probe_partition(parts, iter(buckets.get(split, ())), ctx)

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
