"""Row representation.

Rows are plain tuples throughout the engine (cheap to shuffle and hash); a
:class:`Row` wrapper adds schema-aware, name-based access for user-facing
results. Keeping the internal representation a tuple — not a dict or an
object — is the single biggest Python-level performance decision in this
codebase (guide: be easy on memory; avoid per-record object overhead).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.sql.types import Schema


class Row:
    """A result row: tuple data + schema for name access.

    >>> r = Row((1, "a"), Schema.of(("id", INTEGER), ("name", STRING)))
    >>> r["name"]
    'a'
    >>> r.id
    1
    """

    __slots__ = ("schema", "values")

    def __init__(self, values: tuple, schema: Schema) -> None:
        self.values = values
        self.schema = schema

    def __getitem__(self, key: "str | int") -> Any:
        if isinstance(key, str):
            return self.values[self.schema.index_of(key)]
        return self.values[key]

    def __getattr__(self, name: str) -> Any:
        try:
            return self.values[self.schema.index_of(name)]
        except KeyError:
            raise AttributeError(name) from None

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self.schema.names(), self.values))

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self.values == other.values
        if isinstance(other, tuple):
            return self.values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self.schema.names(), self.values))
        return f"Row({pairs})"
