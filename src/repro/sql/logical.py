"""Logical plan nodes (Catalyst's abstract query representations).

Logical nodes describe *what* to compute; the Planner's strategies decide
*how*. The Indexed DataFrame's extension rules pattern-match on these nodes
(Filter-with-equality over an indexed relation -> indexed lookup; Join with
an indexed side -> indexed join), exactly as described in Section III-B.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sql.expressions import Expression
from repro.sql.types import Schema, StructField

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.cache import CachedRelation


class LogicalPlan:
    """Base logical operator."""

    def children(self) -> list["LogicalPlan"]:
        return []

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def with_children(self, children: list["LogicalPlan"]) -> "LogicalPlan":
        return self

    def transform_up(self, fn: Callable[["LogicalPlan"], "LogicalPlan | None"]) -> "LogicalPlan":
        """Bottom-up rewrite; ``fn`` returns a replacement or None (keep)."""
        kids = self.children()
        node = self
        if kids:
            new_kids = [k.transform_up(fn) for k in kids]
            if any(a is not b for a, b in zip(new_kids, kids)):
                node = self.with_children(new_kids)
        replaced = fn(node)
        return replaced if replaced is not None else node

    def map_expressions(
        self, fn: Callable[[Expression], Expression]
    ) -> "LogicalPlan":
        """Rebuild the plan with ``fn`` applied to every expression it holds
        (recursing into children). Leaves and expression-free nodes return
        themselves. Used by prepared statements to substitute ``?`` bind
        parameters without mutating the shared template."""
        return self.with_children([k.map_expressions(fn) for k in self.children()])

    def tree_string(self, indent: int = 0) -> str:
        line = "  " * indent + repr(self)
        return "\n".join([line] + [c.tree_string(indent + 1) for c in self.children()])

    def __repr__(self) -> str:
        return type(self).__name__


class Relation(LogicalPlan):
    """A named leaf relation backed by driver-side rows or a cached relation.

    ``cached`` is filled in when the user calls ``DataFrame.cache()``: the
    baseline columnar cache (:mod:`repro.sql.cache`). The indexed package
    defines its own leaf (:class:`repro.indexed.rules.IndexedRelation`).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: list[tuple] | None = None,
        cached: "CachedRelation | None" = None,
        num_partitions: int | None = None,
    ) -> None:
        self._name = name
        self._schema = schema
        self.rows = rows
        self.cached = cached
        self.num_partitions = num_partitions

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def name(self) -> str:
        return self._name

    def estimated_row_count(self) -> int:
        if self.cached is not None:
            return self.cached.row_count
        return len(self.rows or ())

    def __repr__(self) -> str:
        kind = "cached" if self.cached is not None else "rows"
        return f"Relation({self._name}, {kind}, n={self.estimated_row_count()})"


class Project(LogicalPlan):
    def __init__(self, exprs: list[Expression], child: LogicalPlan) -> None:
        self.exprs = exprs
        self.child = child

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "Project":
        return Project(self.exprs, children[0])

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Project":
        return Project([fn(e) for e in self.exprs], self.child.map_expressions(fn))

    @property
    def schema(self) -> Schema:
        child_schema = self.child.schema
        return Schema(
            StructField(e.output_name(), e.data_type(child_schema)) for e in self.exprs
        )

    def __repr__(self) -> str:
        return f"Project({', '.join(e.output_name() for e in self.exprs)})"


class Filter(LogicalPlan):
    def __init__(self, condition: Expression, child: LogicalPlan) -> None:
        self.condition = condition
        self.child = child

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "Filter":
        return Filter(self.condition, children[0])

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Filter":
        return Filter(fn(self.condition), self.child.map_expressions(fn))

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def __repr__(self) -> str:
        return f"Filter({self.condition!r})"


class Join(LogicalPlan):
    """Equi-join (keys) with optional residual condition; how in {inner, left}."""

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        left_keys: list[Expression],
        right_keys: list[Expression],
        how: str = "inner",
        residual: Expression | None = None,
    ) -> None:
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported join type {how!r}")
        if len(left_keys) != len(right_keys):
            raise ValueError("join key lists must have equal length")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.how = how
        self.residual = residual

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: list[LogicalPlan]) -> "Join":
        return Join(
            children[0], children[1], self.left_keys, self.right_keys, self.how, self.residual
        )

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Join":
        return Join(
            self.left.map_expressions(fn),
            self.right.map_expressions(fn),
            [fn(e) for e in self.left_keys],
            [fn(e) for e in self.right_keys],
            self.how,
            fn(self.residual) if self.residual is not None else None,
        )

    @property
    def schema(self) -> Schema:
        return self.left.schema.concat(self.right.schema)

    def __repr__(self) -> str:
        keys = ", ".join(
            f"{lk.output_name()}={rk.output_name()}"
            for lk, rk in zip(self.left_keys, self.right_keys)
        )
        return f"Join({self.how}, {keys})"


class Aggregate(LogicalPlan):
    def __init__(
        self,
        group_exprs: list[Expression],
        agg_exprs: list[Expression],
        child: LogicalPlan,
    ) -> None:
        self.group_exprs = group_exprs
        self.agg_exprs = agg_exprs  # AggregateExpression or Alias(AggregateExpression)
        self.child = child

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "Aggregate":
        return Aggregate(self.group_exprs, self.agg_exprs, children[0])

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Aggregate":
        return Aggregate(
            [fn(e) for e in self.group_exprs],
            [fn(e) for e in self.agg_exprs],
            self.child.map_expressions(fn),
        )

    @property
    def schema(self) -> Schema:
        cs = self.child.schema
        fields = [StructField(e.output_name(), e.data_type(cs)) for e in self.group_exprs]
        fields += [StructField(e.output_name(), e.data_type(cs)) for e in self.agg_exprs]
        return Schema(fields)

    def __repr__(self) -> str:
        return (
            f"Aggregate(by=[{', '.join(e.output_name() for e in self.group_exprs)}], "
            f"aggs=[{', '.join(e.output_name() for e in self.agg_exprs)}])"
        )


class Sort(LogicalPlan):
    def __init__(self, keys: list[tuple[Expression, bool]], child: LogicalPlan) -> None:
        self.keys = keys  # (expression, ascending)
        self.child = child

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "Sort":
        return Sort(self.keys, children[0])

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Sort":
        return Sort([(fn(e), asc) for e, asc in self.keys], self.child.map_expressions(fn))

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def __repr__(self) -> str:
        ks = ", ".join(
            f"{e.output_name()} {'ASC' if asc else 'DESC'}" for e, asc in self.keys
        )
        return f"Sort({ks})"


class Limit(LogicalPlan):
    def __init__(self, n: int, child: LogicalPlan) -> None:
        self.n = n
        self.child = child

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "Limit":
        return Limit(self.n, children[0])

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def __repr__(self) -> str:
        return f"Limit({self.n})"


class Union(LogicalPlan):
    def __init__(self, left: LogicalPlan, right: LogicalPlan) -> None:
        if len(left.schema) != len(right.schema):
            raise ValueError("union requires same number of columns")
        self.left = left
        self.right = right

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: list[LogicalPlan]) -> "Union":
        return Union(children[0], children[1])

    @property
    def schema(self) -> Schema:
        return self.left.schema


def find_leaves(plan: LogicalPlan) -> list[LogicalPlan]:
    """All leaf nodes (relations) under a plan."""
    kids = plan.children()
    if not kids:
        return [plan]
    out: list[LogicalPlan] = []
    for k in kids:
        out.extend(find_leaves(k))
    return out
