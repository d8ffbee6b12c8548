"""Physical operators: executable plans producing RDDs of row tuples.

The split that matters for the paper's evaluation:

* :class:`ColumnarScanExec` — scan over the baseline columnar cache with
  *vectorized* filter/projection fused in (Spark's cached scan + codegen).
* Everything else is row-at-a-time, as the shuffle/join machinery works on
  tuples.

A scan can also hand its output to the parent column-major
(:meth:`PhysicalPlan.execute_batches`), which is how the aggregate's partial
phase stays vectorised above either scan.

The indexed package supplies additional physical operators (indexed lookup,
indexed join) through planner strategies; they subclass
:class:`PhysicalPlan` here.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.engine.rdd import RDD
from repro.obs.analyze import active_meter
from repro.sql.cache import CachedRelation
from repro.sql.columnar import ColumnBatch
from repro.sql.expressions import Expression
from repro.sql.logical import Relation
from repro.sql.prepared import bind_expression, has_parameter
from repro.sql.types import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.session import Session


class NotResident(Exception):
    """A direct read reached a partition that is not resident at its
    version (:meth:`PhysicalPlan.direct_rows`): the job rebuilds it."""


class PhysicalPlan:
    """Base physical operator."""

    def __init__(self, session: "Session", schema: Schema) -> None:
        self.session = session
        self._schema = schema

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list["PhysicalPlan"]:
        return []

    def execute(self) -> RDD:
        """Build (lazily) the RDD of row tuples for this operator.

        When the calling context runs under EXPLAIN ANALYZE
        (:data:`~repro.obs.analyze.active_meter` is set), the operator's
        output RDD is wrapped so actual row counts and wall time are recorded
        per node — subclasses implement :meth:`do_execute` and never see the
        meter.
        """
        rdd = self.do_execute()
        meter = active_meter.get()
        if meter is not None:
            rdd = meter.instrument(self, rdd)
        return rdd

    def do_execute(self) -> RDD:
        raise NotImplementedError

    def execute_batches(self, columns: "list[str] | None" = None) -> "RDD | None":
        """The same output as :meth:`execute`, as an RDD of
        :class:`ColumnBatch` holding at least ``columns`` (every output
        column when None) — or None when this operator only produces rows.
        Metered like :meth:`execute`, counting the rows inside each batch.
        """
        rdd = self.do_execute_batches(columns)
        meter = active_meter.get()
        if rdd is not None and meter is not None:
            rdd = meter.instrument(self, rdd, batches=True)
        return rdd

    def do_execute_batches(self, columns: "list[str] | None") -> "RDD | None":
        return None

    def direct_rows(self, source: Any = None) -> "Iterator[tuple] | None":
        """The rows :meth:`execute` collects, read lazily on the calling
        thread without a job — in the job's order, reading no partition the
        job would not — or None when this plan always runs as a job: true of
        all but the indexed leaves and the row operators over one (DESIGN.md
        §13, Key-bound reads are calls). ``source`` supplies the partitions
        (``repro.indexed.operators``): by default the resident blocks of the
        leaf's own RDD, where iterating raises :class:`NotResident` at a
        partition that is not resident at its version; a serve router passes
        its shards. Nothing is read before the first row is asked for."""
        return None

    def bind(self, values: "Sequence[Any]") -> "PhysicalPlan | None":
        """This plan with every ``?`` of a prepared statement bound to
        ``values``, or None when an operator of it cannot bind — the
        statement then binds its logical plan and plans that (DESIGN.md
        §11). Only the indexed leaves and the row operators over one bind."""
        return None

    def estimated_rows(self) -> int:
        kids = self.children()
        return max((k.estimated_rows() for k in kids), default=0)

    def tree_string(self, indent: int = 0) -> str:
        line = "  " * indent + repr(self)
        return "\n".join([line] + [c.tree_string(indent + 1) for c in self.children()])

    def __repr__(self) -> str:
        return type(self).__name__


class RowSourceExec(PhysicalPlan):
    """Scan of an uncached relation: parallelize the driver-side rows."""

    def __init__(self, session: "Session", relation: Relation) -> None:
        super().__init__(session, relation.schema)
        self.relation = relation

    def do_execute(self) -> RDD:
        rows = self.relation.rows or []
        n = self.relation.num_partitions or self.session.context.config.default_parallelism
        return self.session.context.parallelize(rows, n)

    def estimated_rows(self) -> int:
        return self.relation.estimated_row_count()

    def __repr__(self) -> str:
        return f"RowSource({self.relation.name})"


class ColumnarScanExec(PhysicalPlan):
    """Vectorized scan over the columnar cache with fused filter/projection.

    ``condition`` and ``required`` come from the planner's fusion of
    adjacent Filter/Project nodes (predicate/projection pushdown into the
    scan): the filter runs as a numpy mask, the projection as zero-copy
    column selection, and rows are materialized only at the end.
    """

    def __init__(
        self,
        session: "Session",
        cached: CachedRelation,
        required: list[str] | None = None,
        condition: Expression | None = None,
        relation_name: str = "?",
    ) -> None:
        schema = cached.schema.select(required) if required else cached.schema
        super().__init__(session, schema)
        self.cached = cached
        self.required = required
        self.condition = condition
        self.relation_name = relation_name

    def _scan(self, materialize: bool) -> RDD:
        condition = self.condition
        required = self.required or None

        def scan(batches: Iterator[ColumnBatch], ctx: Any) -> Iterator[Any]:
            out: list[Any] = []
            with ctx.span("scan"):
                for batch in batches:
                    batch = batch.scan(condition, required)
                    if materialize:
                        out.extend(batch.to_rows())
                    else:
                        out.append(batch)
            return iter(out)

        return self.cached.batch_rdd.map_partitions_with_context(scan)

    def do_execute(self) -> RDD:
        return self._scan(materialize=True)

    def do_execute_batches(self, columns: "list[str] | None") -> RDD:
        return self._scan(materialize=False)

    def estimated_rows(self) -> int:
        n = self.cached.row_count
        return max(1, n // 4) if self.condition is not None else n

    def __repr__(self) -> str:
        parts = [self.relation_name]
        if self.condition is not None:
            parts.append(f"filter={self.condition!r}")
        if self.required:
            parts.append(f"cols={self.required}")
        return f"ColumnarScan({', '.join(parts)})"


class RowwiseExec(PhysicalPlan):
    """An operator that is a function of its one child's rows, a partition
    at a time (:meth:`apply`): the job maps each partition through it, and
    a direct read maps the child's direct rows."""

    child: PhysicalPlan

    def children(self) -> list[PhysicalPlan]:
        return [self.child]

    def apply(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        raise NotImplementedError

    def direct_rows(self, source: Any = None) -> "Iterator[tuple] | None":
        rows = self.child.direct_rows(source)
        return None if rows is None else self.apply(rows)

    def bind(self, values: "Sequence[Any]") -> "PhysicalPlan | None":
        child = self.child.bind(values)
        return None if child is None else self.with_child(child, values)

    def with_child(self, child: PhysicalPlan, values: "Sequence[Any]") -> "RowwiseExec":
        """A copy of this operator over ``child``, its expressions bound."""
        raise NotImplementedError


class FilterExec(RowwiseExec):
    """Row-at-a-time filter (used when not fused into a scan)."""

    def __init__(self, session: "Session", condition: Expression, child: PhysicalPlan) -> None:
        super().__init__(session, child.schema)
        self.condition = condition
        self.child = child

    def apply(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        keep = self.condition.eval
        return (row for row in rows if keep(row))

    @cached_property
    def _binds(self) -> bool:
        """Whether the condition holds a ``?`` (decided at the first bind)."""
        return has_parameter(self.condition)

    def with_child(self, child: PhysicalPlan, values: "Sequence[Any]") -> "FilterExec":
        condition = bind_expression(self.condition, values) if self._binds else self.condition
        return FilterExec(self.session, condition, child)

    def do_execute(self) -> RDD:
        return self.child.execute().map_partitions(self.apply, preserves_partitioning=True)

    def estimated_rows(self) -> int:
        return max(1, self.child.estimated_rows() // 4)

    def __repr__(self) -> str:
        return f"Filter({self.condition!r})"


class ProjectExec(RowwiseExec):
    def __init__(
        self, session: "Session", exprs: list[Expression], schema: Schema, child: PhysicalPlan
    ) -> None:
        super().__init__(session, schema)
        self.exprs = exprs
        self.child = child

    def apply(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        exprs = self.exprs
        return (tuple(e.eval(row) for e in exprs) for row in rows)

    @cached_property
    def _binds(self) -> list[bool]:
        """Whether each expression holds a ``?`` (decided at the first bind)."""
        return [has_parameter(e) for e in self.exprs]

    def with_child(self, child: PhysicalPlan, values: "Sequence[Any]") -> "ProjectExec":
        exprs = [bind_expression(e, values) if b else e for e, b in zip(self.exprs, self._binds)]
        return ProjectExec(self.session, exprs, self.schema, child)

    def do_execute(self) -> RDD:
        return self.child.execute().map_partitions(self.apply)

    def estimated_rows(self) -> int:
        return self.child.estimated_rows()

    def __repr__(self) -> str:
        return f"Project({', '.join(e.output_name() for e in self.exprs)})"


class LimitExec(RowwiseExec):
    def __init__(self, session: "Session", n: int, child: PhysicalPlan) -> None:
        super().__init__(session, child.schema)
        self.n = n
        self.child = child

    def apply(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        return itertools.islice(rows, self.n)

    def with_child(self, child: PhysicalPlan, values: "Sequence[Any]") -> "LimitExec":
        return LimitExec(self.session, self.n, child)

    def do_execute(self) -> RDD:
        partial = self.child.execute().map_partitions(self.apply)
        return partial.coalesce(1).map_partitions(self.apply)

    def estimated_rows(self) -> int:
        return min(self.n, self.child.estimated_rows())

    def __repr__(self) -> str:
        return f"Limit({self.n})"


class SortExec(PhysicalPlan):
    """Total sort: gathers into one partition (results-sized inputs only)."""

    def __init__(
        self,
        session: "Session",
        keys: list[tuple[Expression, bool]],
        child: PhysicalPlan,
    ) -> None:
        super().__init__(session, child.schema)
        self.keys = keys
        self.child = child

    def children(self) -> list[PhysicalPlan]:
        return [self.child]

    def do_execute(self) -> RDD:
        keys = self.keys

        def sort_all(it: Iterator[tuple]) -> Iterator[tuple]:
            rows = list(it)
            # Stable multi-key sort: apply keys right-to-left.
            for expr, asc in reversed(keys):
                rows.sort(key=expr.eval, reverse=not asc)
            return iter(rows)

        return self.child.execute().coalesce(1).map_partitions(sort_all)

    def __repr__(self) -> str:
        return "Sort"


class UnionExec(PhysicalPlan):
    def __init__(self, session: "Session", left: PhysicalPlan, right: PhysicalPlan) -> None:
        super().__init__(session, left.schema)
        self.left = left
        self.right = right

    def children(self) -> list[PhysicalPlan]:
        return [self.left, self.right]

    def do_execute(self) -> RDD:
        return self.left.execute().union(self.right.execute())

    def estimated_rows(self) -> int:
        return self.left.estimated_rows() + self.right.estimated_rows()


def estimate_row_bytes(schema: Schema) -> int:
    """Static per-row byte estimate used by join-side selection."""
    total = 8  # tuple overhead share
    for f in schema.fields:
        total += 8 if f.dtype.primitive else 32
    return total
