"""Expression trees: scalar eval, vectorized eval, and their agreement.

The vectorized/row-wise agreement property matters beyond correctness: the
two paths are the vanilla-vs-indexed execution difference (Fig. 8), so they
must agree on semantics exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.analysis import resolve_expression
from repro.sql.expressions import (
    Alias,
    Avg,
    IsNull,
    Min,
    Not,
    Sum,
    combine_conjuncts,
    split_conjuncts,
)
from repro.sql.functions import avg, col, count, lit, max_, min_, sum_
from repro.sql.types import BOOLEAN, DOUBLE, LONG, STRING, Schema

SCHEMA = Schema.of(("a", LONG), ("b", DOUBLE), ("s", STRING))


def resolved(expr):
    return resolve_expression(expr, SCHEMA)


class TestScalarEval:
    ROW = (3, 1.5, "xyz")

    def test_column(self):
        assert resolved(col("a")).eval(self.ROW) == 3

    def test_unresolved_column_raises(self):
        with pytest.raises(RuntimeError):
            col("a").eval(self.ROW)

    def test_literal(self):
        assert lit(42).eval(self.ROW) == 42

    def test_arithmetic(self):
        e = resolved(col("a") * 2 + col("b"))
        assert e.eval(self.ROW) == 7.5

    def test_comparisons(self):
        assert resolved(col("a") > 2).eval(self.ROW)
        assert not resolved(col("a") >= 4).eval(self.ROW)
        assert resolved(col("s") == "xyz").eval(self.ROW)
        assert resolved(col("s") != "abc").eval(self.ROW)

    def test_boolean_ops(self):
        e = resolved((col("a") > 1) & ~(col("b") > 10))
        assert e.eval(self.ROW)
        assert resolved((col("a") > 100) | (col("s") == "xyz")).eval(self.ROW)

    def test_in(self):
        assert resolved(col("a").isin(1, 2, 3)).eval(self.ROW)
        assert not resolved(col("a").isin([7, 8])).eval(self.ROW)

    def test_is_null(self):
        e = resolved(IsNull(col("s")))
        assert not e.eval(self.ROW)
        assert e.eval((1, 1.0, None))
        assert resolved(IsNull(col("s"), negated=True)).eval(self.ROW)

    def test_modulo_and_division(self):
        assert resolved(col("a") % 2).eval(self.ROW) == 1
        assert resolved(col("a") / 2).eval(self.ROW) == 1.5

    def test_alias_transparent(self):
        e = resolved(Alias(col("a") + 1, "a1"))
        assert e.eval(self.ROW) == 4
        assert e.output_name() == "a1"


class TestVectorizedEval:
    COLUMNS = {
        "a": np.array([1, 2, 3, 4], dtype=np.int64),
        "b": np.array([0.5, 1.5, 2.5, 3.5]),
        "s": np.array(["x", "y", "x", "z"], dtype=object),
    }

    def test_column(self):
        np.testing.assert_array_equal(col("a").eval_vector(self.COLUMNS), self.COLUMNS["a"])

    def test_comparison(self):
        mask = (col("a") > 2).eval_vector(self.COLUMNS)
        assert mask.tolist() == [False, False, True, True]

    def test_string_equality(self):
        mask = (col("s") == "x").eval_vector(self.COLUMNS)
        assert mask.tolist() == [True, False, True, False]

    def test_logical(self):
        mask = ((col("a") > 1) & (col("b") < 3)).eval_vector(self.COLUMNS)
        assert mask.tolist() == [False, True, True, False]
        mask = Not(col("a") > 1).eval_vector(self.COLUMNS)
        assert mask.tolist() == [True, False, False, False]

    def test_in(self):
        mask = col("a").isin(2, 4).eval_vector(self.COLUMNS)
        assert mask.tolist() == [False, True, False, True]

    def test_arithmetic(self):
        out = (col("a") * 10).eval_vector(self.COLUMNS)
        assert out.tolist() == [10, 20, 30, 40]

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=30),
        st.integers(min_value=-100, max_value=100),
    )
    @settings(max_examples=40)
    def test_row_and_vector_agree_on_comparison(self, values, threshold):
        schema = Schema.of(("x", LONG))
        expr = col("x") > threshold
        rows = [(v,) for v in values]
        scalar = [bool(resolve_expression(expr, schema).eval(r)) for r in rows]
        vector = expr.eval_vector({"x": np.array(values, dtype=np.int64)}).tolist()
        assert scalar == vector


class TestDataTypes:
    def test_comparison_is_boolean(self):
        assert (col("a") > 1).data_type(SCHEMA) == BOOLEAN

    def test_arithmetic_promotes(self):
        assert (col("a") + 1).data_type(SCHEMA) == LONG
        assert (col("a") + col("b")).data_type(SCHEMA) == DOUBLE
        assert (col("a") / 2).data_type(SCHEMA) == DOUBLE

    def test_literal_types(self):
        assert lit(1).data_type(SCHEMA) == LONG
        assert lit(1.0).data_type(SCHEMA) == DOUBLE
        assert lit("x").data_type(SCHEMA) == STRING
        assert lit(True).data_type(SCHEMA) == BOOLEAN


class TestAggregates:
    ROWS = [(1, 1.0, "a"), (2, 2.0, "b"), (3, 3.0, None)]

    def _run(self, agg):
        agg = resolved(agg)
        acc = agg.init()
        for r in self.ROWS:
            acc = agg.update(acc, r)
        return agg.finish(acc)

    def test_sum(self):
        assert self._run(sum_("a")) == 6

    def test_count_star_and_column(self):
        assert self._run(count()) == 3
        assert self._run(count("s")) == 2  # skips null

    def test_min_max(self):
        assert self._run(min_("b")) == 1.0
        assert self._run(max_("b")) == 3.0

    def test_avg(self):
        assert self._run(avg("a")) == pytest.approx(2.0)

    def test_merge(self):
        s = Sum(resolved(col("a")))
        a = s.update(s.init(), (5, 0, ""))
        b = s.update(s.init(), (7, 0, ""))
        assert s.merge(a, b) == 12

    def test_avg_empty_is_none(self):
        a = Avg(resolved(col("a")))
        assert a.finish(a.init()) is None

    def test_min_merge_with_none(self):
        m = Min(resolved(col("a")))
        assert m.merge(None, 5) == 5
        assert m.merge(3, None) == 3


class TestConjuncts:
    def test_split_and_combine_roundtrip(self):
        e = (col("a") > 1) & ((col("b") < 2) & (col("s") == "x"))
        parts = split_conjuncts(e)
        assert len(parts) == 3
        combined = combine_conjuncts(parts)
        row_schema = Schema.of(("a", LONG), ("b", DOUBLE), ("s", STRING))
        r = (2, 1.0, "x")
        assert resolve_expression(combined, row_schema).eval(r)

    def test_combine_empty_is_none(self):
        assert combine_conjuncts([]) is None

    def test_references(self):
        e = (col("a") > 1) & (col("s") == "x")
        assert e.references() == {"a", "s"}
