"""Prepared statements: PREPARE/bind-style parameterized queries.

``session.prepare("SELECT * FROM t WHERE k = ?")`` parses the text **once**
into a logical *template* containing :class:`~repro.sql.expressions.Parameter`
placeholders, and the template is planned once too: its physical plan rides
on the statement's plan-cache entry for the entry's catalog epoch, a ``?``
claiming the index as the literal it will be bound to would
(``repro.indexed.rules``). Each ``execute(params)`` then binds that plan
(:meth:`PreparedStatement.plan`): the indexed leaf, whose key conjuncts were
reduced to ``?`` slots and literals when it was planned, substitutes the
values into its keys or key range, and the row operators above it take
bound copies of the expressions that hold a ``?`` (the others are reused:
expressions are immutable) — no analyze, optimize, plan or plan-cache
lookup per execution. A plan holding an operator that
cannot bind (a join, an aggregate, a sort) binds the logical template
instead (:func:`bind_parameters` — a pure tree rewrite, the template is
never mutated and stays shareable across threads) and plans that, as does a
binding that leaves a range no bound (every bound NULL).

The serve tier answers a statement through the same bound plan, reading its
pinned partitions instead of the resident ones (DESIGN.md §11, §14).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.sql.expressions import Expression, Literal, Parameter
from repro.sql.logical import LogicalPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.physical import PhysicalPlan
    from repro.sql.plan_cache import CachedPlan
    from repro.sql.session import Session


def bind_expression(expr: Expression, values: Sequence[Any]) -> Expression:
    """A copy of ``expr`` with every ``?`` replaced by a Literal."""
    return expr.transform(
        lambda e: Literal(values[e.index]) if isinstance(e, Parameter) else None
    )


def has_parameter(expr: Expression) -> bool:
    """Whether ``expr`` holds a ``?`` (an expression without one binds to itself)."""
    return isinstance(expr, Parameter) or any(map(has_parameter, expr.children()))


def bind_parameters(template: LogicalPlan, values: Sequence[Any]) -> LogicalPlan:
    """A copy of ``template`` with every ``?`` replaced by a Literal."""
    return template.map_expressions(lambda e: bind_expression(e, values))


class PreparedStatement:
    """A parsed, parameterized statement bound per execution.

    Immutable after construction; safe to share between server worker
    threads (every ``execute`` builds its own bound plan).
    """

    def __init__(self, session: "Session", text: str, entry: "CachedPlan") -> None:
        self.session = session
        self.text = text
        #: The ``prepare::`` plan-cache entry: the template, and whether it
        #: can be planned at the entry's epoch.
        self.entry = entry
        self.template: LogicalPlan = entry.logical
        self.num_params = entry.num_params

    def _check(self, params: Sequence[Any]) -> None:
        if len(params) != self.num_params:
            raise ValueError(
                f"statement has {self.num_params} parameter(s), got {len(params)}"
            )

    def bind(self, params: Sequence[Any] = ()) -> LogicalPlan:
        """The logical template with ``params`` bound."""
        self._check(params)
        if self.num_params == 0:
            return self.template
        return bind_parameters(self.template, params)

    def plan(self, params: Sequence[Any] = ()) -> "PhysicalPlan":
        """The physical plan of this binding: the template's plan, planned
        once per catalog epoch and kept on the statement's entry, bound to
        ``params`` — or, when that plan cannot bind, the bound logical plan
        planned now. A template that cannot be planned is tried once per
        epoch."""
        self._check(params)
        session = self.session
        entry = self.entry
        current = entry.epoch == session.catalog.epoch
        template = entry.physical if current else None
        if template is None and not (current and entry.unplannable):
            try:
                template = session.plan_physical(self.template)
            except RuntimeError:  # a `?` whose type the plan needs (`SELECT ? ...`): bind first
                entry.unplannable = True
            else:
                if current:
                    entry.physical = template
        if template is not None and self.num_params == 0:
            return template
        bound = template.bind(params) if template is not None else None
        return bound if bound is not None else session.plan_physical(self.bind(params))

    def execute(self, params: Sequence[Any] = ()) -> list[tuple]:
        """Bind and run; returns result rows as tuples."""
        return self.session.execute(self.plan(params))

    def dataframe(self, params: Sequence[Any] = ()) -> "Any":
        """Bind into a DataFrame (for composing further operations)."""
        from repro.sql.dataframe import DataFrame

        return DataFrame(self.session, self.bind(params))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PreparedStatement({self.text!r}, params={self.num_params})"
