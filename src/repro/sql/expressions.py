"""Expression trees with two evaluation paths.

Every expression supports:

* ``eval(row)`` — scalar evaluation against a tuple (used by row-at-a-time
  operators: joins, the indexed scan);
* ``eval_vector(columns)`` — vectorized evaluation against a dict of numpy
  column arrays (used by the columnar cache scan).

The dual paths are not an implementation convenience — they *are* the
paper's Fig. 8 / Fig. 13 story: the vanilla columnar cache evaluates
projections/filters vectorized, while the Indexed DataFrame's row-wise
batches must decode whole rows, which is why projections and non-equality
filters are the operators where the index loses.

Expressions are resolved (column names -> ordinals) by the Analyzer before
execution; evaluating an unresolved expression raises.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable

import numpy as np

from repro.sql.types import (
    BOOLEAN,
    DOUBLE,
    LONG,
    STRING,
    DataType,
    DoubleType,
    Schema,
)


class Expression:
    """Base expression node."""

    def children(self) -> list["Expression"]:
        return []

    def references(self) -> set[str]:
        refs: set[str] = set()
        for c in self.children():
            refs |= c.references()
        return refs

    def eval(self, row: tuple) -> Any:
        raise NotImplementedError

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def data_type(self, schema: Schema) -> DataType:
        raise NotImplementedError

    def output_name(self) -> str:
        return repr(self)

    def transform(self, fn: Callable[["Expression"], "Expression | None"]) -> "Expression":
        """Bottom-up rewrite: ``fn`` may return a replacement or None."""
        new_children = [c.transform(fn) for c in self.children()]
        node = self.with_children(new_children) if new_children else self
        replaced = fn(node)
        return replaced if replaced is not None else node

    def with_children(self, children: list["Expression"]) -> "Expression":
        return self

    # -- operator sugar (used by the DataFrame API) ---------------------------

    def _bin(self, other: Any, op: str) -> "BinaryOp":
        return BinaryOp(op, self, _to_expr(other))

    def __eq__(self, other: Any) -> "BinaryOp":  # type: ignore[override]
        return self._bin(other, "=")

    def __ne__(self, other: Any) -> "BinaryOp":  # type: ignore[override]
        return self._bin(other, "!=")

    def __lt__(self, other: Any) -> "BinaryOp":
        return self._bin(other, "<")

    def __le__(self, other: Any) -> "BinaryOp":
        return self._bin(other, "<=")

    def __gt__(self, other: Any) -> "BinaryOp":
        return self._bin(other, ">")

    def __ge__(self, other: Any) -> "BinaryOp":
        return self._bin(other, ">=")

    def __add__(self, other: Any) -> "BinaryOp":
        return self._bin(other, "+")

    def __sub__(self, other: Any) -> "BinaryOp":
        return self._bin(other, "-")

    def __mul__(self, other: Any) -> "BinaryOp":
        return self._bin(other, "*")

    def __truediv__(self, other: Any) -> "BinaryOp":
        return self._bin(other, "/")

    def __mod__(self, other: Any) -> "BinaryOp":
        return self._bin(other, "%")

    def __and__(self, other: Any) -> "And":
        return And(self, _to_expr(other))

    def __or__(self, other: Any) -> "Or":
        return Or(self, _to_expr(other))

    def __invert__(self) -> "Not":
        return Not(self)

    def __hash__(self) -> int:
        return id(self)

    def alias(self, name: str) -> "Alias":
        return Alias(self, name)

    def isin(self, *values: Any) -> "In":
        if len(values) == 1 and isinstance(values[0], (list, tuple, set)):
            values = tuple(values[0])
        return In(self, [Literal(v) for v in values])

    def between(self, lo: Any, hi: Any) -> "And":
        """SQL BETWEEN: inclusive on both bounds."""
        return And(self._bin(lo, ">="), self._bin(hi, "<="))

    def like(self, pattern: str) -> "Like":
        return Like(self, pattern)


def _to_expr(value: Any) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


class Parameter(Expression):
    """A bind parameter (``?``) in a prepared statement (DESIGN.md §11).

    Parameters exist only inside an unbound statement *template* and the
    physical plan planned from it: binding (:mod:`repro.sql.prepared`)
    substitutes a :class:`Literal` for every Parameter before anything is
    executed, so no operator ever evaluates one.
    """

    def __init__(self, index: int) -> None:
        self.index = index

    def eval(self, row: tuple) -> Any:
        raise RuntimeError(f"unbound parameter ?{self.index} (bind before executing)")

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        raise RuntimeError(f"unbound parameter ?{self.index} (bind before executing)")

    def data_type(self, schema: Schema) -> DataType:
        raise RuntimeError(f"unbound parameter ?{self.index} has no type until bound")

    def output_name(self) -> str:
        return f"?{self.index}"

    def __repr__(self) -> str:
        return f"?{self.index}"


class Column(Expression):
    """A column reference; ``ordinal`` is filled in by the Analyzer."""

    def __init__(self, name: str, ordinal: int | None = None) -> None:
        self.name = name
        self.ordinal = ordinal

    def references(self) -> set[str]:
        return {self.name}

    def eval(self, row: tuple) -> Any:
        if self.ordinal is None:
            raise RuntimeError(f"unresolved column {self.name!r}")
        return row[self.ordinal]

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return columns[self.name]

    def data_type(self, schema: Schema) -> DataType:
        return schema.field(self.name).dtype

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


class Literal(Expression):
    def __init__(self, value: Any) -> None:
        self.value = value

    def eval(self, row: tuple) -> Any:
        return self.value

    def eval_vector(self, columns: dict[str, np.ndarray]) -> Any:
        return self.value  # numpy broadcasts scalars

    def data_type(self, schema: Schema) -> DataType:
        if isinstance(self.value, bool):
            return BOOLEAN
        if isinstance(self.value, int):
            return LONG
        if isinstance(self.value, float):
            return DOUBLE
        if isinstance(self.value, str):
            return STRING
        return STRING

    def output_name(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return repr(self.value)


_BIN_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class VectorFallback(Exception):
    """``eval_vector`` cannot promise the row evaluator's answer for this
    batch (int64 would wrap where Python integers grow; a zero divisor must
    raise, or be skipped by a short-circuit, exactly as ``eval`` does).
    Callers re-evaluate the batch row by row (``ColumnBatch.eval_rows``)."""


def _int_bounds(x: Any) -> "tuple[int, int] | None":
    """(min, max) of an integer operand; None when ``x`` is not integral.
    Booleans are not integers here: numpy adds them as logical OR."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "iu":
            return None
        return (int(x.min()), int(x.max())) if x.size else (0, 0)
    if isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_)):
        return int(x), int(x)
    return None


def _check_int_overflow(op: str, left: Any, right: Any) -> None:
    """Raise :class:`VectorFallback` unless ``left op right`` provably stays
    inside int64 (interval arithmetic on the operands' extremes)."""
    lb, rb = _int_bounds(left), _int_bounds(right)
    if lb is None or rb is None:
        if _is_bool(left) or _is_bool(right):
            raise VectorFallback(f"boolean operand of {op!r}")
        return
    if op == "+":
        lo, hi = lb[0] + rb[0], lb[1] + rb[1]
    elif op == "-":
        lo, hi = lb[0] - rb[1], lb[1] - rb[0]
    else:
        corners = [a * b for a in lb for b in rb]
        lo, hi = min(corners), max(corners)
    if lo < _INT64_MIN or hi > _INT64_MAX:
        raise VectorFallback(f"{op!r} may leave int64")


def _is_bool(x: Any) -> bool:
    return x.dtype.kind == "b" if isinstance(x, np.ndarray) else isinstance(x, (bool, np.bool_))


class BinaryOp(Expression):
    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _BIN_OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self._fn = _BIN_OPS[op]

    def children(self) -> list[Expression]:
        return [self.left, self.right]

    def with_children(self, children: list[Expression]) -> "BinaryOp":
        return BinaryOp(self.op, children[0], children[1])

    def eval(self, row: tuple) -> Any:
        return self._fn(self.left.eval(row), self.right.eval(row))

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        left = self.left.eval_vector(columns)
        right = self.right.eval_vector(columns)
        if self.op in ("+", "-", "*"):
            _check_int_overflow(self.op, left, right)
        elif self.op in ("/", "%") and np.any(right == 0):
            raise VectorFallback(f"zero divisor of {self.op!r}")
        if self.op in ("=", "!=") and (_is_object(left) or _is_object(right)):
            # Object (string) columns: numpy == works elementwise already.
            return self._fn(np.asarray(left, dtype=object), right)
        return self._fn(left, right)

    def data_type(self, schema: Schema) -> DataType:
        if self.op in _COMPARISONS:
            return BOOLEAN
        lt = self.left.data_type(schema)
        rt = self.right.data_type(schema)
        if isinstance(lt, DoubleType) or isinstance(rt, DoubleType) or self.op == "/":
            return DOUBLE
        return LONG

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _is_object(x: Any) -> bool:
    return isinstance(x, np.ndarray) and x.dtype == object


class And(Expression):
    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def children(self) -> list[Expression]:
        return [self.left, self.right]

    def with_children(self, children: list[Expression]) -> "And":
        return And(children[0], children[1])

    def eval(self, row: tuple) -> bool:
        return bool(self.left.eval(row)) and bool(self.right.eval(row))

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return np.logical_and(self.left.eval_vector(columns), self.right.eval_vector(columns))

    def data_type(self, schema: Schema) -> DataType:
        return BOOLEAN

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class Or(Expression):
    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def children(self) -> list[Expression]:
        return [self.left, self.right]

    def with_children(self, children: list[Expression]) -> "Or":
        return Or(children[0], children[1])

    def eval(self, row: tuple) -> bool:
        return bool(self.left.eval(row)) or bool(self.right.eval(row))

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return np.logical_or(self.left.eval_vector(columns), self.right.eval_vector(columns))

    def data_type(self, schema: Schema) -> DataType:
        return BOOLEAN

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class Not(Expression):
    def __init__(self, child: Expression) -> None:
        self.child = child

    def children(self) -> list[Expression]:
        return [self.child]

    def with_children(self, children: list[Expression]) -> "Not":
        return Not(children[0])

    def eval(self, row: tuple) -> bool:
        return not self.child.eval(row)

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return np.logical_not(self.child.eval_vector(columns))

    def data_type(self, schema: Schema) -> DataType:
        return BOOLEAN

    def __repr__(self) -> str:
        return f"(NOT {self.child!r})"


class In(Expression):
    def __init__(self, child: Expression, values: list[Expression]) -> None:
        self.child = child
        self.values = values
        self._set = {v.value for v in values if isinstance(v, Literal)}

    def children(self) -> list[Expression]:
        return [self.child, *self.values]

    def with_children(self, children: list[Expression]) -> "In":
        return In(children[0], list(children[1:]))

    def eval(self, row: tuple) -> bool:
        return self.child.eval(row) in self._set

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return np.isin(self.child.eval_vector(columns), list(self._set))

    def data_type(self, schema: Schema) -> DataType:
        return BOOLEAN

    def __repr__(self) -> str:
        return f"({self.child!r} IN {sorted(map(repr, self._set))})"


class Like(Expression):
    """SQL ``LIKE``: ``%`` matches any run, ``_`` any single character.

    The pattern is a plain string (not a sub-expression): prefix
    recognition in the optimizer (``LIKE 'x%'`` -> ordered-index prefix
    scan) needs the pattern statically, and none of the SQL surface
    produces computed patterns.
    """

    def __init__(self, child: Expression, pattern: str, negated: bool = False) -> None:
        import re

        self.child = child
        self.pattern = pattern
        self.negated = negated
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
        )
        self._re = re.compile(regex, re.DOTALL)

    def children(self) -> list[Expression]:
        return [self.child]

    def with_children(self, children: list[Expression]) -> "Like":
        return Like(children[0], self.pattern, self.negated)

    def prefix(self) -> "str | None":
        """The fixed prefix when the pattern is ``<literal>%`` (no other
        wildcards) — the shape the ordered index can serve as a range."""
        body = self.pattern[:-1]
        if self.pattern.endswith("%") and "%" not in body and "_" not in body:
            return body
        return None

    def eval(self, row: tuple) -> bool:
        value = self.child.eval(row)
        res = isinstance(value, str) and self._re.fullmatch(value) is not None
        return not res if self.negated else res

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        vals = self.child.eval_vector(columns)
        fullmatch = self._re.fullmatch
        res = np.fromiter(
            (isinstance(v, str) and fullmatch(v) is not None for v in vals),
            dtype=bool,
            count=len(vals),
        )
        return ~res if self.negated else res

    def data_type(self, schema: Schema) -> DataType:
        return BOOLEAN

    def __repr__(self) -> str:
        return f"({self.child!r} {'NOT ' if self.negated else ''}LIKE {self.pattern!r})"


class IsNull(Expression):
    def __init__(self, child: Expression, negated: bool = False) -> None:
        self.child = child
        self.negated = negated

    def children(self) -> list[Expression]:
        return [self.child]

    def with_children(self, children: list[Expression]) -> "IsNull":
        return IsNull(children[0], self.negated)

    def eval(self, row: tuple) -> bool:
        res = self.child.eval(row) is None
        return not res if self.negated else res

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        vals = self.child.eval_vector(columns)
        if vals.dtype == object:
            res = np.fromiter((v is None for v in vals), dtype=bool, count=len(vals))
        else:
            res = np.zeros(len(vals), dtype=bool)
        return ~res if self.negated else res

    def data_type(self, schema: Schema) -> DataType:
        return BOOLEAN

    def __repr__(self) -> str:
        return f"({self.child!r} IS {'NOT ' if self.negated else ''}NULL)"


class Alias(Expression):
    def __init__(self, child: Expression, name: str) -> None:
        self.child = child
        self.name = name

    def children(self) -> list[Expression]:
        return [self.child]

    def with_children(self, children: list[Expression]) -> "Alias":
        return Alias(children[0], self.name)

    def eval(self, row: tuple) -> Any:
        return self.child.eval(row)

    def eval_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return self.child.eval_vector(columns)

    def data_type(self, schema: Schema) -> DataType:
        return self.child.data_type(schema)

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{self.child!r} AS {self.name}"


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class RowGroups:
    """Which group each row of one column batch belongs to: ``ids[i]`` in
    ``[0, count)``. Built once per batch, shared by every aggregate."""

    __slots__ = ("count", "ids", "_segments")

    def __init__(self, ids: np.ndarray, count: int) -> None:
        self.ids = ids
        self.count = count
        self._segments: "tuple[np.ndarray, np.ndarray] | None" = None

    def sizes(self) -> np.ndarray:
        return np.bincount(self.ids, minlength=self.count)

    def reduce(self, ufunc: np.ufunc, values: np.ndarray) -> list:
        """``ufunc`` folded over each group's values, as Python scalars."""
        if self.count == 1:
            return [ufunc.reduce(values).item()]
        if self._segments is None:
            sizes = self.sizes()
            self._segments = (np.argsort(self.ids, kind="stable"), np.cumsum(sizes) - sizes)
        order, starts = self._segments
        return ufunc.reduceat(values[order], starts).tolist()


def _numeric_kind(values: Any) -> str:
    """``"i"`` / ``"f"`` for a 1-d int64 / float64 column; anything else
    (NULL-bearing object columns, strings, booleans, broadcast literals)
    has no vector reducer and goes to the row evaluator."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "if":
        return values.dtype.kind
    raise VectorFallback("no vector reducer for this column")


class AggregateExpression(Expression):
    """Base aggregate: init/update/merge/finish over scalar accumulators.

    ``reduce_vector`` is the column-batch form of ``init`` + ``update`` over
    every row: one accumulator per group, as Python scalars, equal to what
    the row fold produces (float sums add in row order, like the fold) — or
    :class:`VectorFallback` when numpy could not reproduce it.
    """

    name = "agg"

    def reduce_vector(self, values: "np.ndarray | None", groups: RowGroups) -> list:
        raise VectorFallback(f"no vector reducer for {self.name}")

    def __init__(self, child: Expression | None) -> None:
        self.child = child

    def children(self) -> list[Expression]:
        return [self.child] if self.child is not None else []

    def with_children(self, children: list[Expression]) -> "AggregateExpression":
        return type(self)(children[0] if children else None)

    def init(self) -> Any:
        raise NotImplementedError

    def update(self, acc: Any, row: tuple) -> Any:
        raise NotImplementedError

    def merge(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def finish(self, acc: Any) -> Any:
        return acc

    def output_name(self) -> str:
        child = self.child.output_name() if self.child is not None else "*"
        return f"{self.name}({child})"

    def __repr__(self) -> str:
        return self.output_name()


class Sum(AggregateExpression):
    """SQL ``sum``: NULL over no non-NULL value."""

    name = "sum"

    def init(self) -> Any:
        return None

    def update(self, acc: Any, row: tuple) -> Any:
        v = self.child.eval(row)
        if v is None:
            return acc
        return (0 if acc is None else acc) + v

    def merge(self, a: Any, b: Any) -> Any:
        if a is None:
            return b
        if b is None:
            return a
        return a + b

    def reduce_vector(self, values: "np.ndarray | None", groups: RowGroups) -> list:
        if _numeric_kind(values) == "f":
            return np.bincount(groups.ids, weights=values, minlength=groups.count).tolist()
        # No group's sum can leave int64 when n * max|v| fits.
        lo, hi = _int_bounds(values)
        if max(-lo, hi) * len(values) > _INT64_MAX:
            raise VectorFallback("integer sum may leave int64")
        return groups.reduce(np.add, values)

    def data_type(self, schema: Schema) -> DataType:
        return self.child.data_type(schema)


class Count(AggregateExpression):
    name = "count"

    def init(self) -> int:
        return 0

    def update(self, acc: int, row: tuple) -> int:
        if self.child is None:
            return acc + 1
        return acc + (self.child.eval(row) is not None)

    def merge(self, a: int, b: int) -> int:
        return a + b

    def reduce_vector(self, values: "np.ndarray | None", groups: RowGroups) -> list:
        if values is not None:
            _numeric_kind(values)  # typed columns hold no NULL: count(x) = count(*)
        return groups.sizes().tolist()

    def data_type(self, schema: Schema) -> DataType:
        return LONG


class Min(AggregateExpression):
    name = "min"

    def init(self) -> Any:
        return None

    def update(self, acc: Any, row: tuple) -> Any:
        v = self.child.eval(row)
        if v is None:
            return acc
        return v if acc is None or v < acc else acc

    def merge(self, a: Any, b: Any) -> Any:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def reduce_vector(self, values: "np.ndarray | None", groups: RowGroups) -> list:
        return _reduce_extreme(np.minimum, values, groups)

    def data_type(self, schema: Schema) -> DataType:
        return self.child.data_type(schema)


class Max(AggregateExpression):
    name = "max"

    def init(self) -> Any:
        return None

    def update(self, acc: Any, row: tuple) -> Any:
        v = self.child.eval(row)
        if v is None:
            return acc
        return v if acc is None or v > acc else acc

    def merge(self, a: Any, b: Any) -> Any:
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)

    def reduce_vector(self, values: "np.ndarray | None", groups: RowGroups) -> list:
        return _reduce_extreme(np.maximum, values, groups)

    def data_type(self, schema: Schema) -> DataType:
        return self.child.data_type(schema)


def _reduce_extreme(ufunc: np.ufunc, values: Any, groups: RowGroups) -> list:
    # The row fold skips a NaN unless it comes first; numpy propagates it.
    if _numeric_kind(values) == "f" and np.isnan(values).any():
        raise VectorFallback("NaN in min/max input")
    return groups.reduce(ufunc, values)


class Avg(AggregateExpression):
    name = "avg"

    def init(self) -> tuple[float, int]:
        return (0.0, 0)

    def update(self, acc: tuple[float, int], row: tuple) -> tuple[float, int]:
        v = self.child.eval(row)
        if v is None:
            return acc
        return (acc[0] + v, acc[1] + 1)

    def merge(self, a: tuple[float, int], b: tuple[float, int]) -> tuple[float, int]:
        return (a[0] + b[0], a[1] + b[1])

    def reduce_vector(self, values: "np.ndarray | None", groups: RowGroups) -> list:
        _numeric_kind(values)
        sums = np.bincount(groups.ids, weights=values, minlength=groups.count)
        return list(zip(sums.tolist(), groups.sizes().tolist()))

    def finish(self, acc: tuple[float, int]) -> float | None:
        return acc[0] / acc[1] if acc[1] else None

    def data_type(self, schema: Schema) -> DataType:
        return DOUBLE


def split_conjuncts(expr: Expression) -> list[Expression]:
    """Flatten nested ANDs into a conjunct list (for predicate pushdown)."""
    if isinstance(expr, And):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def combine_conjuncts(exprs: Iterable[Expression]) -> Expression | None:
    result: Expression | None = None
    for e in exprs:
        result = e if result is None else And(result, e)
    return result
