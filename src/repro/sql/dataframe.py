"""The DataFrame API (user-facing, lazily evaluated).

DataFrames wrap a logical plan; transformations build bigger plans, actions
trigger the session's pipeline. ``cache()`` materializes into the baseline
*columnar* in-memory cache; ``create_index()`` (added to this class by
:mod:`repro.indexed` via the same method-injection idea as the paper's
Scala implicit conversions) materializes into the Indexed DataFrame.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sql.cache import CachedRelation
from repro.sql.expressions import (
    AggregateExpression,
    Alias,
    BinaryOp,
    Column,
    Expression,
    split_conjuncts,
)
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
from repro.sql.row import Row
from repro.sql.types import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.analyze import ExplainAnalysis


def _as_column(c: "str | Expression") -> Expression:
    return Column(c) if isinstance(c, str) else c


class DataFrame:
    """A lazily-evaluated relational dataset."""

    def __init__(self, session: Any, plan: LogicalPlan) -> None:
        self.session = session
        self.plan = plan

    # -- schema ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.session.analyzer.analyze(self.plan).schema

    @property
    def columns(self) -> list[str]:
        return self.schema.names()

    def __getitem__(self, name: str) -> Column:
        return Column(name)

    # -- transformations ------------------------------------------------------------

    def select(self, *cols: "str | Expression") -> "DataFrame":
        # NB: explicit isinstance — Expression.__eq__ builds a BinaryOp, so a
        # bare `cols[0] == "*"` would be truthy for ANY single expression.
        if len(cols) == 1 and isinstance(cols[0], str) and cols[0] == "*":
            return self
        exprs = [_as_column(c) for c in cols]
        return DataFrame(self.session, Project(exprs, self.plan))

    def where(self, condition: Expression) -> "DataFrame":
        return DataFrame(self.session, Filter(condition, self.plan))

    filter = where

    def with_column(self, name: str, expr: Expression) -> "DataFrame":
        exprs: list[Expression] = [Column(n) for n in self.columns if n != name]
        exprs.append(Alias(expr, name))
        return DataFrame(self.session, Project(exprs, self.plan))

    def join(
        self,
        other: "DataFrame",
        on: "str | tuple | list | Expression",
        how: str = "inner",
    ) -> "DataFrame":
        """Equi-join. ``on`` may be a shared column name, a (left, right)
        pair, a list of either, or an equality Expression (conjunctions of
        ``col(a) == col(b)``)."""
        left_keys, right_keys = self._parse_join_keys(on)
        return DataFrame(
            self.session, Join(self.plan, other.plan, left_keys, right_keys, how)
        )

    def _parse_join_keys(
        self, on: "str | tuple | list | Expression"
    ) -> tuple[list[Expression], list[Expression]]:
        if isinstance(on, str):
            return [Column(on)], [Column(on)]
        if isinstance(on, tuple) and len(on) == 2 and all(isinstance(x, str) for x in on):
            return [Column(on[0])], [Column(on[1])]
        if isinstance(on, list):
            lks: list[Expression] = []
            rks: list[Expression] = []
            for item in on:
                lk, rk = self._parse_join_keys(item)
                lks += lk
                rks += rk
            return lks, rks
        if isinstance(on, Expression):
            left_names = set(self.columns)
            lks, rks = [], []
            for conj in split_conjuncts(on):
                if not (isinstance(conj, BinaryOp) and conj.op == "="):
                    raise ValueError(f"join condition must be equalities, got {conj!r}")
                a, b = conj.left, conj.right
                if not (isinstance(a, Column) and isinstance(b, Column)):
                    raise ValueError("join keys must be column references")
                if a.name in left_names:
                    lks.append(Column(a.name))
                    rks.append(Column(b.name))
                else:
                    lks.append(Column(b.name))
                    rks.append(Column(a.name))
            return lks, rks
        raise TypeError(f"unsupported join condition: {on!r}")

    def group_by(self, *cols: "str | Expression") -> "GroupedData":
        return GroupedData(self, [_as_column(c) for c in cols])

    def agg(self, *aggs: Expression) -> "DataFrame":
        """Global aggregation (no grouping)."""
        return GroupedData(self, []).agg(*aggs)

    def order_by(self, *cols: "str | Expression", ascending: "bool | list[bool]" = True) -> "DataFrame":
        exprs = [_as_column(c) for c in cols]
        if isinstance(ascending, bool):
            flags = [ascending] * len(exprs)
        else:
            flags = list(ascending)
        return DataFrame(self.session, Sort(list(zip(exprs, flags)), self.plan))

    def limit(self, n: int) -> "DataFrame":
        return DataFrame(self.session, Limit(n, self.plan))

    def union(self, other: "DataFrame") -> "DataFrame":
        return DataFrame(self.session, Union(self.plan, other.plan))

    # -- caching -------------------------------------------------------------------

    def cache(self, num_partitions: int | None = None) -> "DataFrame":
        """Materialize into the baseline *columnar* in-memory cache.

        Returns a DataFrame rooted at a cached relation; subsequent scans
        are vectorized. (This is vanilla Spark's ``df.cache()``; the
        indexed alternative is ``df.create_index(col)``.)
        """
        rows = self.collect_tuples()
        name = getattr(self.plan, "name", "cached")
        cached = CachedRelation(
            self.session.context, self.schema, rows, num_partitions
        ).build()
        relation = Relation(name, self.schema, rows=None, cached=cached)
        return DataFrame(self.session, relation)

    def create_or_replace_temp_view(self, name: str) -> "DataFrame":
        self.session.catalog.register(name, self.plan)
        return self

    # -- actions ---------------------------------------------------------------------

    def collect_tuples(self) -> list[tuple]:
        return self.session.execute(self.plan)

    def collect(self) -> list[Row]:
        schema = self.schema
        return [Row(t, schema) for t in self.collect_tuples()]

    def count(self) -> int:
        """``count(*)``, planned as a global aggregate: over a scan with the
        column kernels on, each partition's batch reports its row count and
        no row is decoded; otherwise the partial aggregate folds rows."""
        from repro.sql.functions import count

        return self.agg(count()).collect_tuples()[0][0]

    def first(self) -> Row | None:
        rows = self.limit(1).collect()
        return rows[0] if rows else None

    def take(self, n: int) -> list[Row]:
        return self.limit(n).collect()

    def show(self, n: int = 20) -> None:
        """Print the first ``n`` rows as an aligned table."""
        rows = self.take(n)
        names = self.columns
        cells = [[str(v) for v in r.values] for r in rows]
        widths = [
            max(len(names[i]), *(len(c[i]) for c in cells)) if cells else len(names[i])
            for i in range(len(names))
        ]
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        print(sep)
        print("|" + "|".join(f" {names[i]:<{widths[i]}} " for i in range(len(names))) + "|")
        print(sep)
        for c in cells:
            print("|" + "|".join(f" {c[i]:<{widths[i]}} " for i in range(len(names))) + "|")
        print(sep)

    def explain(self, analyze: bool = False) -> str:
        """Return the plan trees; with ``analyze=True`` the query actually
        runs and each physical operator is decorated with its observed row
        count, wall time and rows/s (EXPLAIN ANALYZE)."""
        if analyze:
            return self.analyze().text()
        physical = self.session.plan_physical(self.plan)
        return (
            "== Logical ==\n"
            + self.plan.tree_string()
            + "\n== Physical ==\n"
            + physical.tree_string()
        )

    def analyze(self) -> "ExplainAnalysis":
        """Run the query under per-operator metering; return the annotated
        plan object (``.text()`` for the rendering, ``.rows`` for results)."""
        return self.session.execute_analyzed(self.plan)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DataFrame[{', '.join(self.columns)}]"


class GroupedData:
    """Result of ``df.group_by(...)``, awaiting aggregates."""

    def __init__(self, df: DataFrame, group_exprs: list[Expression]) -> None:
        self._df = df
        self._group_exprs = group_exprs

    def agg(self, *aggs: Expression) -> DataFrame:
        for a in aggs:
            inner = a.child if isinstance(a, Alias) else a
            if not isinstance(inner, AggregateExpression):
                raise ValueError(f"{a!r} is not an aggregate")
        return DataFrame(
            self._df.session,
            Aggregate(self._group_exprs, list(aggs), self._df.plan),
        )

    def count(self) -> DataFrame:
        from repro.sql.functions import count

        return self.agg(count())
