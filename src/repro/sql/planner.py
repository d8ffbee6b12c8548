"""Planner: logical plans -> physical plans via strategies.

Strategy order is the integration contract with the indexed library:
``Session.extra_strategies`` are consulted *before* the built-ins, so the
indexed rules can claim joins/lookups that touch indexed relations
(Section III-B: rules "ensure that the Indexed DataFrame operations are
always triggered when executing queries on indexed data... for queries on
non-indexed dataframes we fall back to the default Spark behavior").

Built-in choices mirror Spark:

* scans: columnar-cache scan with fused (pushed-down) filter/projection,
  or a plain row source;
* joins: broadcast-hash when the smaller side's estimated size is under the
  broadcast threshold, else shuffle-hash (``SortMergeJoinExec`` is never
  planned: the tests and ``bench_ablation_joins.py`` construct it directly
  as the paper's Fig. 7 comparator).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.sql.aggregates import HashAggregateExec
from repro.sql.analysis import resolve_expression
from repro.sql.expressions import Column, Expression
from repro.sql.joins import BroadcastHashJoinExec, ShuffleHashJoinExec
from repro.sql.logical import (
    Aggregate,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Relation,
    Sort,
    Union,
)
from repro.sql.physical import (
    ColumnarScanExec,
    FilterExec,
    LimitExec,
    PhysicalPlan,
    ProjectExec,
    RowSourceExec,
    SortExec,
    UnionExec,
    estimate_row_bytes,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.session import Session

Strategy = Callable[["Planner", LogicalPlan], Optional[PhysicalPlan]]


def match_scan_fusion(
    plan: LogicalPlan,
) -> "tuple[list[str] | None, Expression | None, LogicalPlan] | None":
    """Peel ``Project?(Filter?(node))`` into ``(required, condition, node)``
    — the shape a scan with pushed-down filter/projection absorbs. None when
    there is nothing to fuse, or the projection computes anything (only
    plain column selections fuse: zero-copy column select)."""
    required: list[str] | None = None
    node = plan
    if isinstance(node, Project):
        if not all(isinstance(e, Column) for e in node.exprs):
            return None
        required = [e.output_name() for e in node.exprs]
        node = node.child
    condition: Expression | None = None
    if isinstance(node, Filter):
        condition = node.condition
        node = node.child
    if required is None and condition is None:
        return None
    return required, condition, node


class Planner:
    def __init__(self, session: "Session") -> None:
        self.session = session

    def plan(self, logical: LogicalPlan) -> PhysicalPlan:
        for strategy in self.session.extra_strategies:
            result = strategy(self, logical)
            if result is not None:
                return result
        result = self._plan_builtin(logical)
        if result is None:
            raise NotImplementedError(f"no strategy for {logical!r}")
        return result

    # -- built-in strategies -------------------------------------------------

    def _plan_builtin(self, plan: LogicalPlan) -> PhysicalPlan | None:
        session = self.session

        # Scan fusion: [Project?] -> [Filter?] -> cached Relation becomes one
        # vectorized columnar scan (predicate/projection pushdown).
        fused = self._try_fuse_scan(plan)
        if fused is not None:
            return fused

        if isinstance(plan, Relation):
            if plan.cached is not None:
                return ColumnarScanExec(session, plan.cached, relation_name=plan.name)
            return RowSourceExec(session, plan)

        if isinstance(plan, Filter):
            child = self.plan(plan.child)
            cond = resolve_expression(plan.condition, child.schema)
            return FilterExec(session, cond, child)

        if isinstance(plan, Project):
            child = self.plan(plan.child)
            exprs = [resolve_expression(e, child.schema) for e in plan.exprs]
            return ProjectExec(session, exprs, plan.schema, child)

        if isinstance(plan, Join):
            return self._plan_join(plan)

        if isinstance(plan, Aggregate):
            child = self.plan(plan.child)
            groups = [resolve_expression(e, child.schema) for e in plan.group_exprs]
            aggs = [resolve_expression(e, child.schema) for e in plan.agg_exprs]
            return HashAggregateExec(session, groups, aggs, plan.schema, child)

        if isinstance(plan, Sort):
            child = self.plan(plan.child)
            keys = [(resolve_expression(e, child.schema), asc) for e, asc in plan.keys]
            return SortExec(session, keys, child)

        if isinstance(plan, Limit):
            return LimitExec(session, plan.n, self.plan(plan.child))

        if isinstance(plan, Union):
            return UnionExec(session, self.plan(plan.left), self.plan(plan.right))

        return None

    def _try_fuse_scan(self, plan: LogicalPlan) -> PhysicalPlan | None:
        """Match Project(Filter(Relation)) / Filter(Relation) / Project(Relation)
        over a *cached* relation and fuse into a vectorized scan."""
        fused = match_scan_fusion(plan)
        if fused is None:
            return None
        required, condition, node = fused
        if not (isinstance(node, Relation) and node.cached is not None):
            return None
        return ColumnarScanExec(
            self.session, node.cached, required=required, condition=condition,
            relation_name=node.name,
        )

    def _plan_join(self, join: Join) -> PhysicalPlan:
        session = self.session
        left = self.plan(join.left)
        right = self.plan(join.right)
        lk = [resolve_expression(e, left.schema) for e in join.left_keys]
        rk = [resolve_expression(e, right.schema) for e in join.right_keys]
        residual = (
            resolve_expression(join.residual, left.schema.concat(right.schema))
            if join.residual is not None
            else None
        )
        args = (session, left, right, lk, rk, join.how, residual, join.schema)

        left_bytes = left.estimated_rows() * estimate_row_bytes(left.schema)
        right_bytes = right.estimated_rows() * estimate_row_bytes(right.schema)
        threshold = session.context.config.broadcast_threshold

        # Broadcast the smaller side when it fits under the threshold.
        # A left outer join cannot broadcast its left (preserved) side.
        if right_bytes <= threshold and right_bytes <= left_bytes:
            return BroadcastHashJoinExec(*args, build_side="right")
        if left_bytes <= threshold and join.how == "inner" and left_bytes < right_bytes:
            return BroadcastHashJoinExec(*args, build_side="left")
        build = "right" if right_bytes <= left_bytes else "left"
        if join.how == "left":
            build = "right"  # preserved side must be the probe side
        return ShuffleHashJoinExec(*args, build_side=build)
