"""Catalyst integration: index-aware rules injected into the session.

This module is the Section III-B machinery:

* :class:`IndexedRelation` — a logical leaf wrapping an IndexedDataFrame,
  so indexed data participates in ordinary logical plans (SQL or the
  DataFrame API);
* :func:`indexed_strategy` — a planner strategy that pattern-matches

  - ``Filter(key = literal, IndexedRelation)`` (also ``IN``)  -> IndexedLookupExec,
  - ``Join(..., IndexedRelation on its index key, ...)``      -> IndexedJoinExec
    with the indexed relation as the pre-built build side,
  - ``Project?(Filter?(IndexedRelation))`` the above did not
    claim (bare relation included)                             -> IndexedScanExec
    with the filter / column projection fused in,

  and returns ``None`` otherwise so planning falls through to the default
  operators ("for queries on non-indexed dataframes we fall back to the
  default Spark behavior" — and likewise for non-index-friendly queries on
  indexed data, which run over the full indexed scan);
* ``DataFrame.create_index`` — added to the DataFrame class at import time,
  the Python analogue of the paper's Scala implicit conversions;
* :func:`enable_indexing` — installs the strategy on a session (idempotent);
  called automatically by ``create_index``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.indexed.operators import (
    INDEXED_ROW_ESTIMATE,
    IndexedJoinExec,
    IndexedLookupExec,
    IndexedRangeScanExec,
    IndexedScanExec,
)
from repro.indexed.ordered_index import KeyRange
from repro.sql.analysis import resolve_expression
from repro.sql.dataframe import DataFrame
from repro.sql.expressions import (
    BinaryOp,
    Column,
    Expression,
    In,
    Like,
    Literal,
    Parameter,
    combine_conjuncts,
    split_conjuncts,
)
from repro.sql.logical import Filter, Join, LogicalPlan, Relation
from repro.sql.physical import FilterExec, PhysicalPlan
from repro.sql.planner import Planner, match_scan_fusion

if TYPE_CHECKING:  # pragma: no cover
    from repro.indexed.indexed_dataframe import IndexedDataFrame
    from repro.sql.session import Session


class IndexedRelation(Relation):
    """Logical leaf for an IndexedDataFrame."""

    def __init__(self, idf: "IndexedDataFrame") -> None:
        super().__init__(idf.name, idf.schema, rows=None, cached=None)
        self.idf = idf

    def estimated_row_count(self) -> int:
        # Indexed relations are the big side by design (the paper always
        # indexes the large table); report a large stand-in so join-side
        # selection treats them accordingly without running a job.
        return INDEXED_ROW_ESTIMATE

    def __repr__(self) -> str:
        return f"IndexedRelation({self.idf.name}, key={self.idf.key_column}, v={self.idf.version})"


#: What may stand opposite the key in a claimed conjunct: a literal, or a
#: ``?`` of a prepared statement. The serve tier classifies a statement once,
#: before any value is bound (:func:`index_claim`), and the classification
#: has to be the plan its bound form gets — so the shapes are defined here,
#: once, for both. Values are only ever *extracted* from bound conditions.
_BINDABLE = (Literal, Parameter)

#: a comparison's mirror image: ``lit OP key`` == ``key FLIP[OP] lit``.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _opposite_key(conj: BinaryOp, key_column: str) -> "tuple[str, Expression] | None":
    """For ``key OP x`` / ``x OP key`` with ``x`` bindable: (OP as written
    with the key on the left, ``x``); None for any other shape."""
    a, b = conj.left, conj.right
    if isinstance(a, Column) and a.name == key_column and isinstance(b, _BINDABLE):
        return conj.op, b
    if isinstance(b, Column) and b.name == key_column and isinstance(a, _BINDABLE):
        return _FLIP.get(conj.op, conj.op), a
    return None


def _pinned_to(conj: Expression, key_column: str) -> "list[Expression] | None":
    """The operands one conjunct pins the key to by equality (``key = x``,
    ``x = key``, ``key IN (xs)``), or None."""
    if isinstance(conj, BinaryOp) and conj.op == "=":
        match = _opposite_key(conj, key_column)
        return None if match is None else [match[1]]
    if (
        isinstance(conj, In)
        and isinstance(conj.child, Column)
        and conj.child.name == key_column
        and all(isinstance(v, _BINDABLE) for v in conj.values)
    ):
        return list(conj.values)
    return None


def _bounded_by(conj: Expression, key_column: str) -> "tuple[str, Any] | None":
    """The bound one conjunct puts on the key: (``<`` | ``<=`` | ``>`` |
    ``>=`` with the key on the left, the operand), (``"prefix"``, str) for
    ``key LIKE 'x%'``, or None. A comparison with a NULL literal bounds
    nothing; ``'x%y'`` and an empty prefix stay residual."""
    if isinstance(conj, BinaryOp) and conj.op in _FLIP:
        match = _opposite_key(conj, key_column)
        if match is None or (isinstance(match[1], Literal) and match[1].value is None):
            return None
        return match
    if (
        isinstance(conj, Like)
        and not conj.negated
        and isinstance(conj.child, Column)
        and conj.child.name == key_column
    ):
        prefix = conj.prefix()
        if prefix:
            return "prefix", prefix
    return None


def index_claim(condition: Expression, key_column: str) -> "str | None":
    """Which index operator claims ``condition``: ``"point"`` when some
    conjunct pins the key by equality (:func:`extract_lookup_keys` will
    yield keys), else ``"range"`` when some conjunct bounds it
    (:func:`extract_key_range` will yield an interval), else None. Unlike
    the extractors it also accepts a condition whose ``?`` are unbound."""
    conjuncts = split_conjuncts(condition)
    if any(_pinned_to(c, key_column) is not None for c in conjuncts):
        return "point"
    if any(_bounded_by(c, key_column) is not None for c in conjuncts):
        return "range"
    return None


def extract_lookup_keys(
    condition: Expression, key_column: str
) -> tuple[list[Any] | None, Expression | None]:
    """Split a bound predicate into (lookup key values, residual condition).

    Claims ``key = literal`` and ``key IN (literals)`` conjuncts; every other
    conjunct becomes residual. Returns (None, None) when no conjunct
    constrains the key by equality (the index cannot help: Fig. 8's
    non-equality filters).
    """
    key_sets: list[set[Any]] = []
    residual: list[Expression] = []
    for conj in split_conjuncts(condition):
        operands = _pinned_to(conj, key_column)
        if operands is None:
            residual.append(conj)
        else:
            key_sets.append({v.value for v in operands})
    if not key_sets:
        return None, None
    keys = set.intersection(*key_sets)
    return sorted(keys, key=repr), combine_conjuncts(residual)


def _range_of_conjunct(conj: Expression, key_column: str) -> "KeyRange | None":
    """The KeyRange one bound conjunct imposes on the key column, or None.

    Inclusivity is preserved exactly: ``<`` maps to an open bound, ``<=``
    to a closed one (never conflated — the boundary bugs this PR's tests
    pin down), and a literal on the left flips the operator.
    """
    bound = _bounded_by(conj, key_column)
    if bound is None:
        return None
    op, operand = bound
    if op == "prefix":
        return KeyRange.prefix_of(operand)
    if op == "<":
        return KeyRange(hi=operand.value, hi_inclusive=False)
    if op == "<=":
        return KeyRange(hi=operand.value)
    if op == ">":
        return KeyRange(lo=operand.value, lo_inclusive=False)
    return KeyRange(lo=operand.value)


def extract_key_range(
    condition: Expression, key_column: str
) -> tuple["KeyRange | None", Expression | None]:
    """Split a bound predicate into (key range, residual condition).

    Claims ``key < lit`` / ``<=`` / ``>`` / ``>=`` (either operand order)
    and ``key LIKE 'x%'`` prefix conjuncts, intersecting multiple bounds
    into one interval (``BETWEEN`` arrives pre-desugared as ``>= AND <=``).
    Conjuncts the interval cannot absorb — including a prefix mixed with
    comparison bounds — stay residual, so correctness never depends on the
    intersection being complete. Returns (None, None) when nothing
    constrains the key by range.
    """
    krange: "KeyRange | None" = None
    residual: list[Expression] = []
    for conj in split_conjuncts(condition):
        r = _range_of_conjunct(conj, key_column)
        if r is None:
            residual.append(conj)
            continue
        if krange is None:
            krange = r
            continue
        merged = krange.intersect(r)
        if merged is None:
            residual.append(conj)  # incompatible (prefix vs bounds): re-filter
        else:
            krange = merged
    if krange is None:
        return None, None
    return krange, combine_conjuncts(residual)


def _plan_by_index(
    session: "Session", idf: "IndexedDataFrame", condition: Expression
) -> PhysicalPlan | None:
    """The lookup or range operator (under a residual filter, if any) for a
    predicate that constrains the index key; None when it does not."""
    keys, residual = extract_lookup_keys(condition, idf.key_column)
    if keys is not None:
        claimed: PhysicalPlan = IndexedLookupExec(session, idf, keys)
    else:
        # No equality on the key: try a range/prefix scan over the ordered
        # secondary index (DESIGN.md §15) before giving up to a full scan.
        krange, residual = extract_key_range(condition, idf.key_column)
        if krange is None:
            return None
        claimed = IndexedRangeScanExec(session, idf, krange)
    if residual is not None:
        return FilterExec(session, resolve_expression(residual, idf.schema), claimed)
    return claimed


def indexed_strategy(planner: Planner, plan: LogicalPlan) -> PhysicalPlan | None:
    """The injected planner strategy (consulted before the built-ins)."""
    session = planner.session

    if isinstance(plan, IndexedRelation):
        return IndexedScanExec(session, plan.idf)

    if isinstance(plan, Filter) and isinstance(plan.child, IndexedRelation):
        claimed = _plan_by_index(session, plan.child.idf, plan.condition)
        if claimed is not None:
            return claimed

    # What the index cannot claim runs over the full scan, with the filter
    # and a plain column projection fused into it (DESIGN.md §18). A Project
    # over a claimable Filter is left to the planner, which comes back here
    # with the Filter alone.
    fused = match_scan_fusion(plan)
    if fused is not None and isinstance(fused[2], IndexedRelation):
        required, condition, relation = fused
        if condition is None or _plan_by_index(session, relation.idf, condition) is None:
            return IndexedScanExec(session, relation.idf, required, condition)

    if isinstance(plan, Join) and len(plan.left_keys) == 1:
        lk, rk = plan.left_keys[0], plan.right_keys[0]
        left_leaf = isinstance(plan.left, IndexedRelation)
        right_leaf = isinstance(plan.right, IndexedRelation)
        # Prefer indexing the right side for left-outer compatibility; the
        # indexed relation is always the build side (pre-built index).
        if (
            right_leaf
            and isinstance(rk, Column)
            and rk.name == plan.right.idf.key_column
        ):
            idf = plan.right.idf
            probe = planner.plan(plan.left)
            probe_keys = [resolve_expression(lk, probe.schema)]
            residual = (
                resolve_expression(plan.residual, plan.schema)
                if plan.residual is not None
                else None
            )
            return IndexedJoinExec(
                session, idf, probe, probe_keys, indexed_on_left=False,
                schema=plan.schema, how=plan.how, residual=residual,
            )
        if (
            left_leaf
            and plan.how == "inner"
            and isinstance(lk, Column)
            and lk.name == plan.left.idf.key_column
        ):
            idf = plan.left.idf
            probe = planner.plan(plan.right)
            probe_keys = [resolve_expression(rk, probe.schema)]
            residual = (
                resolve_expression(plan.residual, plan.schema)
                if plan.residual is not None
                else None
            )
            return IndexedJoinExec(
                session, idf, probe, probe_keys, indexed_on_left=True,
                schema=plan.schema, how=plan.how, residual=residual,
            )

    return None


def enable_indexing(session: "Session") -> None:
    """Install the indexed strategy on ``session`` (idempotent)."""
    if indexed_strategy not in session.extra_strategies:
        session.extra_strategies.insert(0, indexed_strategy)


def _dataframe_create_index(
    self: DataFrame,
    column: str,
    num_partitions: int | None = None,
) -> "IndexedDataFrame":
    """``df.create_index("col")`` — see :meth:`IndexedDataFrame.create_index`."""
    from repro.indexed.indexed_dataframe import IndexedDataFrame

    return IndexedDataFrame.create_index(self, column, num_partitions)


# The "implicit conversion": importing repro.indexed adds create_index to
# every DataFrame, without modifying the sql package (Section III-B).
DataFrame.create_index = _dataframe_create_index  # type: ignore[attr-defined]
