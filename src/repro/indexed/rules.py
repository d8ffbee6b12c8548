"""Catalyst integration: index-aware rules injected into the session.

This module is the Section III-B machinery:

* :class:`IndexedRelation` — a logical leaf wrapping an IndexedDataFrame,
  so indexed data participates in ordinary logical plans (SQL or the
  DataFrame API);
* :func:`indexed_strategy` — a planner strategy that pattern-matches

  - ``Filter(key = literal, IndexedRelation)`` (also ``IN``)  -> IndexedLookupExec,
  - ``Filter(key BETWEEN / < / LIKE 'x%', IndexedRelation)``   -> IndexedRangeScanExec,
  - ``Join(..., IndexedRelation on its index key, ...)``      -> IndexedJoinExec
    with the indexed relation as the pre-built build side,
  - ``Project?(Filter?(IndexedRelation))`` the above did not
    claim (bare relation included)                             -> IndexedScanExec
    with the filter / column projection fused in,

  and returns ``None`` otherwise so planning falls through to the default
  operators ("for queries on non-indexed dataframes we fall back to the
  default Spark behavior" — and likewise for non-index-friendly queries on
  indexed data, which run over the full indexed scan). A ``?`` of a
  prepared statement claims what a literal would, so a statement's
  template is planned once and bound per execution (``_KeyTemplateExec``);
* ``DataFrame.create_index`` — added to the DataFrame class at import time,
  the Python analogue of the paper's Scala implicit conversions;
* :func:`enable_indexing` — installs the strategy on a session (idempotent);
  called automatically by ``create_index``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.indexed.operators import (
    INDEXED_RANGE_ESTIMATE,
    INDEXED_ROW_ESTIMATE,
    IndexedJoinExec,
    IndexedLeafExec,
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
from repro.sql.prepared import bind_expression, has_parameter

if TYPE_CHECKING:  # pragma: no cover
    from repro.indexed.indexed_dataframe import IndexedDataFrame
    from repro.sql.session import Session


class IndexedRelation(Relation):
    """Logical leaf for an IndexedDataFrame; ``view`` is the catalog name it
    is registered under (None for ``idf.to_df()``)."""

    def __init__(self, idf: "IndexedDataFrame", view: "str | None" = None) -> None:
        super().__init__(idf.name, idf.schema, rows=None, cached=None)
        self.idf = idf
        self.view = view

    def estimated_row_count(self) -> int:
        # Indexed relations are the big side by design (the paper always
        # indexes the large table); report a large stand-in so join-side
        # selection treats them accordingly without running a job.
        return INDEXED_ROW_ESTIMATE

    def __repr__(self) -> str:
        return f"IndexedRelation({self.idf.name}, key={self.idf.key_column}, v={self.idf.version})"


#: What may stand opposite the key in a claimed conjunct: a literal, or a
#: ``?`` of a prepared statement. A statement's template is planned once,
#: before any value is bound, and the leaf it gets has to be the one its
#: bound form would get — so a ``?`` claims what a literal does; the
#: template's leaf builds the bound form's at bind (``_KeyTemplateExec``).
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


def _key_range(op: str, value: Any) -> KeyRange:
    """The KeyRange of one bound on the key (:func:`_bounded_by`'s op, with
    the operand's value). Inclusivity is preserved exactly: ``<`` maps to an
    open bound, ``<=`` to a closed one (never conflated — the boundary bugs
    the range tests pin down)."""
    if op == "prefix":
        return KeyRange.prefix_of(value)
    if op == "<":
        return KeyRange(hi=value, hi_inclusive=False)
    if op == "<=":
        return KeyRange(hi=value)
    if op == ">":
        return KeyRange(lo=value, lo_inclusive=False)
    return KeyRange(lo=value)


def _range_of_conjunct(conj: Expression, key_column: str) -> "KeyRange | None":
    """The KeyRange one bound conjunct imposes on the key column, or None
    (a literal on the left flips the operator)."""
    bound = _bounded_by(conj, key_column)
    if bound is None:
        return None
    op, operand = bound
    return _key_range(op, operand if op == "prefix" else operand.value)


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


def _value(operand: Expression, values: "Sequence[Any]") -> Any:
    """A claimed operand's value under ``values``: a ``?`` slot's, or the
    literal's."""
    return values[operand.index] if isinstance(operand, Parameter) else operand.value


class _KeyTemplateExec(IndexedLeafExec):
    """The index leaf of a prepared statement's template: conjuncts that pin
    (``kind="point"``) or bound (``"range"``) the key, holding a ``?``. It
    never runs; :meth:`bind` builds the leaf the bound conjuncts claim.

    Planning reduces the conjuncts once, to the operands each pins the key
    to or to the bound each puts on it (an operand is a ``?`` slot or a
    literal), so a binding substitutes values: no conjunct is re-split, and
    only one left to filter (bound to NULL, or a bound the range cannot
    absorb) is rebuilt bound. What it builds is what
    :func:`extract_lookup_keys` / :func:`extract_key_range` extract from
    the bound conjuncts — the same keys in the same order, the same range,
    the same leftover filter."""

    def __init__(
        self, session: "Session", idf: "IndexedDataFrame", view: "str | None", kind: str,
        claimed: Expression,
    ) -> None:
        super().__init__(session, idf, idf.schema, view)
        self.kind = kind
        self.claimed = claimed
        claims = _pinned_to if kind == "point" else _bounded_by
        #: Per conjunct: the operands it pins the key to (``point``), or
        #: (the conjunct, op, operand) of its bound (``range``).
        self.operands: list[Any] = [
            claims(conj, idf.key_column) if kind == "point"
            else (conj, *claims(conj, idf.key_column))
            for conj in split_conjuncts(claimed)
        ]

    def bind(self, values: "Sequence[Any]") -> PhysicalPlan | None:
        """The leaf for ``values``; None when every range bound is bound
        NULL (the statement then plans its bound logical plan)."""
        if self.kind == "point":
            key_sets = [{_value(x, values) for x in ops} for ops in self.operands]
            keys = sorted(set.intersection(*key_sets), key=repr)
            return IndexedLookupExec(self.session, self.idf, keys, self.view)
        krange: "KeyRange | None" = None
        leftover: list[Expression] = []
        for conj, op, operand in self.operands:
            value = operand if op == "prefix" else _value(operand, values)
            merged = None
            if value is not None:  # a NULL bounds nothing: the conjunct is filtered
                r = _key_range(op, value)
                merged = r if krange is None else krange.intersect(r)
            if merged is None:
                leftover.append(bind_expression(conj, values))
            else:
                krange = merged
        if krange is None:
            return None
        leaf = IndexedRangeScanExec(self.session, self.idf, krange, self.view)
        if not leftover:
            return leaf
        condition = resolve_expression(combine_conjuncts(leftover), self.idf.schema)
        return FilterExec(self.session, condition, leaf)

    def do_execute(self) -> Any:
        raise RuntimeError(f"{self!r} has unbound parameters (bind before executing)")

    def direct_rows(self, source: Any = None) -> Any:
        raise RuntimeError(f"{self!r} has unbound parameters (bind before executing)")

    def estimated_rows(self) -> int:
        return 1 if self.kind == "point" else INDEXED_RANGE_ESTIMATE

    def __repr__(self) -> str:
        name = "IndexedLookup" if self.kind == "point" else "IndexedRangeScan"
        return f"{name}({self.idf.name}, {self.claimed!r})"


def bound_claim(
    session: "Session", idf: "IndexedDataFrame", view: "str | None", kind: str,
    claimed: Expression,
) -> PhysicalPlan:
    """The leaf for claimed conjuncts holding no ``?``: it reads the keys or
    range :func:`extract_lookup_keys` / :func:`extract_key_range` extract,
    under a filter of whatever bound the range could not absorb."""
    if kind == "point":
        keys, _ = extract_lookup_keys(claimed, idf.key_column)
        return IndexedLookupExec(session, idf, keys, view)
    krange, leftover = extract_key_range(claimed, idf.key_column)
    leaf = IndexedRangeScanExec(session, idf, krange, view)
    if leftover is None:
        return leaf
    return FilterExec(session, resolve_expression(leftover, idf.schema), leaf)


def _plan_by_index(
    session: "Session", relation: IndexedRelation, condition: Expression
) -> PhysicalPlan | None:
    """The lookup or range operator (under a residual filter, if any) for a
    predicate that constrains the index key — by equality, else by a range
    the ordered secondary index can seek (DESIGN.md §15); None when it does
    not."""
    key_column = relation.idf.key_column
    kind = index_claim(condition, key_column)
    if kind is None:
        return None
    claims = _pinned_to if kind == "point" else _bounded_by
    claimed: list[Expression] = []
    residual: list[Expression] = []
    for conj in split_conjuncts(condition):
        (claimed if claims(conj, key_column) is not None else residual).append(conj)
    idf, claim = relation.idf, combine_conjuncts(claimed)
    leaf: "PhysicalPlan | None"
    if has_parameter(claim):  # a statement's template: the leaf is built at bind
        leaf = _KeyTemplateExec(session, idf, relation.view, kind, claim)
    else:
        leaf = bound_claim(session, idf, relation.view, kind, claim)
    if residual:
        return FilterExec(session, resolve_expression(combine_conjuncts(residual), idf.schema), leaf)
    return leaf


def indexed_strategy(planner: Planner, plan: LogicalPlan) -> PhysicalPlan | None:
    """The injected planner strategy (consulted before the built-ins)."""
    session = planner.session

    if isinstance(plan, IndexedRelation):
        return IndexedScanExec(session, plan.idf, view=plan.view)

    if isinstance(plan, Filter) and isinstance(plan.child, IndexedRelation):
        claimed = _plan_by_index(session, plan.child, plan.condition)
        if claimed is not None:
            return claimed

    # What the index cannot claim runs over the full scan, with the filter
    # and a plain column projection fused into it (DESIGN.md §18). A Project
    # over a claimable Filter is left to the planner, which comes back here
    # with the Filter alone.
    fused = match_scan_fusion(plan)
    if fused is not None and isinstance(fused[2], IndexedRelation):
        required, condition, relation = fused
        if condition is None or index_claim(condition, relation.idf.key_column) is None:
            return IndexedScanExec(session, relation.idf, required, condition, relation.view)

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
