"""Optimizer rules: rewrites fire correctly and never change results."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.expressions import And, Column, Literal
from repro.sql.functions import col, lit
from repro.sql.logical import Filter, Join, Project, Relation
from repro.sql.optimizer import (
    Optimizer,
    combine_filters,
    constant_folding,
    push_filter_through_join,
    push_filter_through_project,
)
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

SCHEMA_T = Schema.of(("id", LONG), ("name", STRING), ("v", DOUBLE))
SCHEMA_U = Schema.of(("uid", LONG), ("city", STRING))


def relation_t(rows=None):
    return Relation("t", SCHEMA_T, rows=rows if rows is not None else [])


def relation_u(rows=None):
    return Relation("u", SCHEMA_U, rows=rows if rows is not None else [])


class TestRules:
    def test_combine_filters(self):
        plan = Filter(col("id") > 1, Filter(col("v") < 2, relation_t()))
        out = combine_filters(plan)
        assert isinstance(out, Filter)
        assert isinstance(out.condition, And)
        assert isinstance(out.child, Relation)

    def test_constant_folding(self):
        plan = Filter(col("id") > (lit(2) + lit(3)), relation_t())
        out = constant_folding(plan)
        comparison = out.condition
        assert isinstance(comparison.right, Literal)
        assert comparison.right.value == 5

    def test_push_filter_through_project_passthrough(self):
        plan = Filter(col("id") > 1, Project([col("id"), col("v")], relation_t()))
        out = push_filter_through_project(plan)
        assert isinstance(out, Project)
        assert isinstance(out.child, Filter)

    def test_push_filter_blocked_by_computed_column(self):
        plan = Filter(
            Column("double_v") > 1,
            Project([(col("v") * 2).alias("double_v")], relation_t()),
        )
        assert push_filter_through_project(plan) is None

    def test_push_filter_through_join_left_side(self):
        join = Join(relation_t(), relation_u(), [col("id")], [col("uid")])
        plan = Filter(col("v") > 1, join)
        out = push_filter_through_join(plan)
        assert isinstance(out, Join)
        assert isinstance(out.left, Filter)
        assert isinstance(out.right, Relation)

    def test_push_filter_through_join_both_sides_and_residual(self):
        join = Join(relation_t(), relation_u(), [col("id")], [col("uid")])
        cond = (col("v") > 1) & (col("city") == "X") & (col("id") > col("uid"))
        plan = Filter(cond, join)
        out = push_filter_through_join(plan)
        # id > uid spans both sides: stays above the join.
        assert isinstance(out, Filter)
        assert isinstance(out.child, Join)
        assert isinstance(out.child.left, Filter)
        assert isinstance(out.child.right, Filter)

    def test_shadowed_right_name_not_pushed_right(self):
        # Both relations have "id": a filter naming "id" resolves to the
        # left side of the join output and must not be pushed right.
        left = Relation("a", Schema.of(("id", LONG), ("x", DOUBLE)), rows=[])
        right = Relation("b", Schema.of(("id", LONG), ("y", DOUBLE)), rows=[])
        join = Join(left, right, [col("x")], [col("y")])
        out = push_filter_through_join(Filter(col("id") > 1, join))
        assert isinstance(out, Join)
        assert isinstance(out.left, Filter)
        assert isinstance(out.right, Relation)


class TestFixedPoint:
    def test_stacked_rewrites_reach_fixed_point(self):
        plan = Filter(
            col("id") > 1,
            Filter(
                col("v") < lit(1) + lit(1),
                Project([col("id"), col("v")], relation_t()),
            ),
        )
        out = Optimizer().optimize(plan)
        # Expect Project(Filter(Relation)) with folded constant.
        assert isinstance(out, Project)
        assert isinstance(out.child, Filter)
        assert isinstance(out.child.child, Relation)

    def test_extra_rules_run_first(self):
        fired = []

        def spy_rule(plan):
            fired.append(type(plan).__name__)
            return None

        Optimizer(extra_rules=[spy_rule]).optimize(Filter(col("id") > 1, relation_t()))
        assert "Filter" in fired


class TestOptimizationPreservesResults:
    """Property: for random plans, optimized and unoptimized agree."""

    @staticmethod
    def _run(session, plan, optimize: bool):
        analyzed = session.analyzer.analyze(plan)
        if optimize:
            analyzed = session.analyzer.analyze(Optimizer().optimize(analyzed))
        from repro.sql.planner import Planner

        return sorted(Planner(session).plan(analyzed).execute().collect())

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_filter_project_join_equivalence(self, seed):
        rng = random.Random(seed)
        rows_t = [
            (i, f"n{i % 5}", round(rng.random() * 10, 3)) for i in range(rng.randint(0, 40))
        ]
        rows_u = [(i, f"c{i % 3}") for i in range(rng.randint(0, 20))]
        session = Session()
        t = Relation("t", SCHEMA_T, rows=rows_t)
        u = Relation("u", SCHEMA_U, rows=rows_u)
        join = Join(t, u, [col("id")], [col("uid")])
        cond = (col("v") > rng.random() * 10) & (col("uid") >= rng.randint(0, 10))
        plan = Filter(cond, join)
        plain = self._run(session, plan, optimize=False)
        optimized = self._run(session, plan, optimize=True)
        assert plain == optimized
