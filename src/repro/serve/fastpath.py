"""The serve tier's read path: one recogniser, one template.

The serving workload the paper motivates (Section V's point queries, and
the range reads PR 8 added) has a very recognizable shape::

    SELECT [cols] FROM indexed_view [WHERE pred] [LIMIT n]

The general pipeline answers it correctly — planner strategy
``indexed_strategy`` turns it into an ``IndexedLookupExec`` /
``IndexedRangeScanExec`` / ``IndexedScanExec`` job — but still pays job
submission, stage scheduling and the context-wide ``job_lock`` per query.
:func:`recognize` compiles the shape into a :class:`ServeTemplate` instead,
whose ``kind`` is the operator the planner would have picked — decided by
the same rule, :func:`repro.indexed.rules.index_claim` — and which the
:class:`~repro.serve.router.ShardRouter` (the read path of both front ends)
answers from pinned partitions on the calling thread: hash the key and
search the cTrie (``point``), seek the ordered index (``range``), or
evaluate the predicate over every partition (``scan``). No job, no stages,
no lock.

Anything else — joins, aggregates, computed projections, non-indexed
relations — returns ``None`` and falls back to the full planner, exactly
like the planner strategies themselves fall back ("default Spark
behavior", Section III-B). So does a template whose view the router at
hand does not serve: the template names the catalog view, serving it is the
router's business.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.indexed.rules import (
    IndexedRelation,
    extract_key_range,
    extract_lookup_keys,
    index_claim,
)
from repro.sql.analysis import AnalysisError, resolve_expression
from repro.sql.expressions import Column, Expression, Parameter
from repro.sql.logical import Filter, Limit, LogicalPlan, Project
from repro.sql.prepared import bind_expression

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.catalog import Catalog
    from repro.sql.session import Session


class ServeTemplate:
    """A compiled served-view read: everything needed to answer the query
    from pinned partitions, with only parameter values left open."""

    __slots__ = ("condition", "key_column", "kind", "limit", "num_params", "projection", "view")

    def __init__(
        self,
        kind: str,
        view: str,
        key_column: str,
        condition: "Expression | None",
        projection: "tuple[int, ...] | None",
        limit: "int | None",
        num_params: int,
    ) -> None:
        #: "point" | "range" | "scan": how the index claims ``condition``.
        self.kind = kind
        #: The catalog name whose registered plan was the query's leaf.
        self.view = view
        self.key_column = key_column
        #: Filter condition with every Column bound to its ordinal (None =
        #: unconditional scan); may still contain :class:`Parameter`s.
        self.condition = condition
        #: Output column ordinals into the relation schema (None = all).
        self.projection = projection
        self.limit = limit
        self.num_params = num_params

    def bind(self, params: "Iterable[Any] | None" = None) -> "tuple[Any, Expression | None]":
        """Substitute parameter values; returns (target, residual).

        ``target`` is what the index is asked for — the lookup keys of a
        point read, the ``KeyRange`` of a range read, None for a scan — and
        ``residual`` the predicate left to evaluate on the rows that come
        back (None when the target consumed every conjunct). The router
        calls this to learn *which* keys a query needs before deciding
        where to send it.
        """
        values = list(params) if params is not None else []
        if len(values) != self.num_params:
            raise ValueError(
                f"statement takes {self.num_params} parameter(s), got {len(values)}"
            )
        condition = bind_expression(self.condition, values) if values else self.condition
        if self.kind == "scan":
            return None, condition
        extract = extract_lookup_keys if self.kind == "point" else extract_key_range
        target, residual = extract(condition, self.key_column)
        if target is None:  # a range bound to NULL: the general pipeline raises too
            raise ValueError(f"{self.kind} read of {self.view} lost its key constraint")
        return target, residual

    def finish(self, rows: list[tuple], residual: "Expression | None") -> list[tuple]:
        """Apply residual filter, projection and limit to the rows read."""
        if residual is not None:
            rows = [r for r in rows if residual.eval(r)]
        if self.projection is not None:
            ords = self.projection
            rows = [tuple(r[i] for i in ords) for r in rows]
        if self.limit is not None:
            rows = rows[: self.limit]
        return rows

    def __repr__(self) -> str:  # pragma: no cover
        return f"ServeTemplate({self.kind}, {self.view}, params={self.num_params})"


def recognize(logical: LogicalPlan, catalog: "Catalog") -> "ServeTemplate | None":
    """Compile ``logical`` to a serve template, or None (fall back).

    Peels, outermost first: an optional ``Limit``, an optional all-plain-
    column ``Project``, an optional ``Filter``, then requires the leaf to be
    the *currently registered* IndexedRelation of some catalog view
    (identity match, so a template can never be built against a leaf the
    catalog no longer names).
    """
    limit: "int | None" = None
    plan = logical
    if isinstance(plan, Limit):
        limit, plan = plan.n, plan.child
    projected: "list[str] | None" = None
    if isinstance(plan, Project):
        if not all(isinstance(e, Column) for e in plan.exprs):
            return None
        projected = [e.name for e in plan.exprs]
        plan = plan.child
    raw_condition: "Expression | None" = None
    if isinstance(plan, Filter):
        raw_condition, plan = plan.condition, plan.child
    if not isinstance(plan, IndexedRelation):
        return None
    view = catalog.name_of(plan)
    if view is None:
        return None
    schema, key_column = plan.schema, plan.idf.key_column
    kind, condition, num_params = "scan", None, 0
    try:
        if raw_condition is not None:
            kind = index_claim(raw_condition, key_column) or "scan"
            condition = resolve_expression(raw_condition, schema)
            num_params = _count_params(raw_condition)
        projection = (
            tuple(schema.index_of(n) for n in projected) if projected is not None else None
        )
    except (AnalysisError, KeyError):
        return None
    return ServeTemplate(kind, view, key_column, condition, projection, limit, num_params)


def _count_params(expr: Expression) -> int:
    own = expr.index + 1 if isinstance(expr, Parameter) else 0
    return max([own, *(_count_params(c) for c in expr.children())])


def prepare_query(
    session: "Session", text: str, params: "Sequence[Any] | None"
) -> "tuple[ServeTemplate | None, Callable[[], list[tuple]]]":
    """The router's prologue: parse ``text`` through the plan cache (as a prepared statement when ``params`` are given) and return
    its serve template, if any, plus a thunk that answers it through the
    general pipeline.

    The recognition result (positive or negative) rides on the plan-cache
    entry, so it shares the entry's epoch invalidation: republishing a view
    bumps the catalog epoch, evicts the entry, and the next query
    re-recognizes against the new leaf. It depends on the catalog alone, so
    every router on the session reads the same slot.
    """
    if params is not None:
        statement = session.prepare(text)
        logical = statement.template

        def general() -> list[tuple]:
            return statement.execute(params)
    else:
        logical = session.sql_logical(text)

        def general() -> list[tuple]:
            return session.execute(logical)

    entry = session.plan_cache.entry_for_logical(logical)
    template = entry.serve_template if entry is not None else None
    if template is None:  # never tried; False records "recognition said no"
        template = recognize(logical, session.catalog) or False
        if entry is not None:
            entry.serve_template = template
    return template or None, general
