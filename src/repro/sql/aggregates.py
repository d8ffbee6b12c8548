"""Hash aggregation: partial (map-side) + final (reduce-side) phases.

The partial phase has two forms producing the same ``(group key,
accumulators)`` pairs: the row fold, and — when the child can hand over
:class:`~repro.sql.columnar.ColumnBatch` es — a vectorised reduction per
batch (group keys through ``eval_vector``, one ``reduce_vector`` per
aggregate). A batch numpy cannot reduce exactly as the fold would
(:class:`~repro.sql.expressions.VectorFallback`) is folded row by row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator

import numpy as np

from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import RDD
from repro.sql.analysis import resolve_expression
from repro.sql.columnar import ColumnBatch
from repro.sql.expressions import (
    AggregateExpression,
    Alias,
    Expression,
    RowGroups,
    VectorFallback,
)
from repro.sql.physical import PhysicalPlan
from repro.sql.types import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.session import Session


def _unwrap(expr: Expression) -> AggregateExpression:
    inner = expr.child if isinstance(expr, Alias) else expr
    assert isinstance(inner, AggregateExpression)
    return inner


def _fold_rows(
    accs: dict[tuple, list[Any]],
    rows: Iterable[tuple],
    group_exprs: list[Expression],
    aggs: list[AggregateExpression],
) -> None:
    """The row fold: update ``accs`` with every row."""
    for row in rows:
        k = tuple(e.eval(row) for e in group_exprs)
        acc = accs.get(k)
        if acc is None:
            acc = [a.init() for a in aggs]
            accs[k] = acc
        for i, a in enumerate(aggs):
            acc[i] = a.update(acc[i], row)


def _merge_pairs(
    accs: dict[tuple, list[Any]],
    pairs: Iterable[tuple[tuple, Iterable[Any]]],
    aggs: list[AggregateExpression],
) -> None:
    """Merge ``(key, accumulators)`` pairs into ``accs``."""
    for k, acc in pairs:
        cur = accs.get(k)
        if cur is None:
            accs[k] = list(acc)
        else:
            for i, a in enumerate(aggs):
                cur[i] = a.merge(cur[i], acc[i])


def _group_rows(key_columns: list[np.ndarray], num_rows: int) -> tuple[list[tuple], RowGroups]:
    """Distinct key tuples (Python values, in first-seen-row form) and each
    row's group id. NaN keys are left to the fold: ``np.unique`` merges what
    a dict keeps apart."""
    if not key_columns:
        return [()], RowGroups(np.zeros(num_rows, dtype=np.intp), 1)
    for column in key_columns:
        if column.dtype.kind == "f" and np.isnan(column).any():
            raise VectorFallback("NaN group key")
    codes = key_columns[0]
    for column in key_columns[1:]:
        # Mixed radix over dense ids: both factors are < num_rows.
        dense = np.unique(codes, return_inverse=True)[1]
        values, ids = np.unique(column, return_inverse=True)
        codes = dense * len(values) + ids
    _, first, ids = np.unique(codes, return_index=True, return_inverse=True)
    keys = list(zip(*(column[first].tolist() for column in key_columns)))
    return keys, RowGroups(ids, len(keys))


def _reduce_batch(
    batch: ColumnBatch,
    names: list[str],
    group_exprs: list[Expression],
    aggs: list[AggregateExpression],
) -> list[tuple[tuple, tuple]]:
    """One batch's ``(key, accumulators)`` pairs, vectorised; ``names`` are
    the columns the expressions read."""
    columns = {n: batch.column(n) for n in names}
    key_columns = [np.asarray(e.eval_vector(columns)) for e in group_exprs]
    if any(k.ndim != 1 for k in key_columns):
        raise VectorFallback("literal group key")
    keys, groups = _group_rows(key_columns, batch.num_rows)
    per_agg = [
        a.reduce_vector(a.child.eval_vector(columns) if a.child is not None else None, groups)
        for a in aggs
    ]
    return list(zip(keys, zip(*per_agg)))


class HashAggregateExec(PhysicalPlan):
    """Grouped aggregation with map-side partial aggregation.

    Plan shape mirrors Spark: partial aggregate per input partition,
    shuffle the (group-key, accumulators) pairs, merge + finish per output
    partition. With no group keys the final merge happens on one partition.
    """

    def __init__(
        self,
        session: "Session",
        group_exprs: list[Expression],
        agg_exprs: list[Expression],
        schema: Schema,
        child: PhysicalPlan,
    ) -> None:
        super().__init__(session, schema)
        self.group_exprs = group_exprs
        self.agg_exprs = agg_exprs
        self.child = child
        self._aggs = [_unwrap(e) for e in agg_exprs]

    def children(self) -> list[PhysicalPlan]:
        return [self.child]

    def do_execute(self) -> RDD:
        group_exprs = self.group_exprs
        aggs = self._aggs
        refs = sorted(set().union(*(e.references() for e in (*group_exprs, *aggs))))

        def partial(rows: Iterator[tuple]) -> Iterator[tuple[tuple, tuple]]:
            accs: dict[tuple, list[Any]] = {}
            _fold_rows(accs, rows, group_exprs, aggs)
            return ((k, tuple(v)) for k, v in accs.items())

        def partial_batches(batches: Iterator[ColumnBatch]) -> Iterator[tuple[tuple, tuple]]:
            accs: dict[tuple, list[Any]] = {}
            for batch in batches:
                if not batch.num_rows:
                    continue
                try:
                    pairs = _reduce_batch(batch, refs, group_exprs, aggs)
                except (VectorFallback, TypeError):
                    # Same answer or same error as the fold: run the fold,
                    # with ordinals bound to this batch's columns.
                    bound = [resolve_expression(e, batch.schema) for e in (*group_exprs, *aggs)]
                    n = len(group_exprs)
                    _fold_rows(accs, batch.to_rows(), bound[:n], bound[n:])
                    continue
                _merge_pairs(accs, pairs, aggs)
            return ((k, tuple(v)) for k, v in accs.items())

        def final(pairs: Iterator[tuple[tuple, tuple]]) -> Iterator[tuple]:
            merged: dict[tuple, list[Any]] = {}
            _merge_pairs(merged, pairs, aggs)
            for k, acc in merged.items():
                yield k + tuple(a.finish(v) for a, v in zip(aggs, acc))

        batches = self.child.execute_batches(refs)
        if batches is not None:
            partials = batches.map_partitions(partial_batches)
        else:
            partials = self.child.execute().map_partitions(partial)
        if group_exprs:
            n = self.session.context.config.shuffle_partitions
            shuffled = partials.partition_by(HashPartitioner(n), key_func=lambda kv: kv[0])
        else:
            shuffled = partials.coalesce(1)
        return shuffled.map_partitions(final, preserves_partitioning=True)

    def estimated_rows(self) -> int:
        return max(1, self.child.estimated_rows() // 10)

    def __repr__(self) -> str:
        return (
            f"HashAggregate(by=[{', '.join(e.output_name() for e in self.group_exprs)}], "
            f"aggs=[{', '.join(e.output_name() for e in self.agg_exprs)}])"
        )
