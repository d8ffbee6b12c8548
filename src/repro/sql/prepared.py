"""Prepared statements: PREPARE/bind-style parameterized queries.

``session.prepare("SELECT * FROM t WHERE k = ?")`` parses the text **once**
into a logical *template* containing :class:`~repro.sql.expressions.Parameter`
placeholders. Each ``execute(params)`` then:

1. substitutes a ``Literal`` for every placeholder
   (:func:`bind_parameters` — a pure tree rewrite, the template is never
   mutated and stays shareable across threads), and
2. runs the ordinary analyze/optimize/plan/execute pipeline on the bound
   plan.

This skips parsing on every execution. The serving layer goes further: a
template whose shape is a point, range or scan read of an indexed view
compiles once to a :class:`~repro.serve.fastpath.ServeTemplate` answered
from pinned partitions, skipping the *entire* pipeline — which is where the
paper's low-latency read-after-write numbers (Figs. 9-10) come from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.sql.expressions import Expression, Literal, Parameter
from repro.sql.logical import LogicalPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.session import Session


def bind_expression(expr: Expression, values: Sequence[Any]) -> Expression:
    """A copy of ``expr`` with every ``?`` replaced by a Literal."""
    return expr.transform(
        lambda e: Literal(values[e.index]) if isinstance(e, Parameter) else None
    )


def bind_parameters(template: LogicalPlan, values: Sequence[Any]) -> LogicalPlan:
    """A copy of ``template`` with every ``?`` replaced by a Literal."""
    return template.map_expressions(lambda e: bind_expression(e, values))


class PreparedStatement:
    """A parsed, parameterized statement bound per execution.

    Immutable after construction; safe to share between server worker
    threads (every ``execute`` builds its own bound plan).
    """

    def __init__(
        self, session: "Session", text: str, template: LogicalPlan, num_params: int
    ) -> None:
        self.session = session
        self.text = text
        self.template = template
        self.num_params = num_params

    def bind(self, params: Sequence[Any] = ()) -> LogicalPlan:
        if len(params) != self.num_params:
            raise ValueError(
                f"statement has {self.num_params} parameter(s), got {len(params)}"
            )
        if self.num_params == 0:
            return self.template
        return bind_parameters(self.template, params)

    def execute(self, params: Sequence[Any] = ()) -> list[tuple]:
        """Bind and run; returns result rows as tuples."""
        return self.session.execute(self.bind(params))

    def dataframe(self, params: Sequence[Any] = ()) -> "Any":
        """Bind into a DataFrame (for composing further operations)."""
        from repro.sql.dataframe import DataFrame

        return DataFrame(self.session, self.bind(params))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PreparedStatement({self.text!r}, params={self.num_params})"
