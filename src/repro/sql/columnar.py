"""Columnar batches: the one column-major representation in the repo.

The paper's baseline is "the default in-memory (columnar) caching mechanism
provided by Spark" (Section IV-A). A :class:`ColumnBatch` holds rows as one
numpy array per column, enabling vectorized projection/filtering. Two
producers share it, and so share the kernels that consume it
(:meth:`ColumnBatch.scan`, the vectorised partial aggregate):

* the baseline cache (``df.cache()``) stores one batch per partition;
* the row-wise Indexed DataFrame *views* its binary row batches as column
  batches for the length of one task (DESIGN.md §18) — fixed-width columns
  are strided views of the row bytes, string columns are **deferred**:
  decoded on first use, and only for the rows still selected by then.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.sql.analysis import resolve_expression
from repro.sql.expressions import Expression, VectorFallback
from repro.sql.types import Schema

#: Decodes a deferred column for the given row positions (None = every row).
Decoder = Callable[["np.ndarray | None"], np.ndarray]


class ColumnBatch:
    """A run of rows, column-major."""

    __slots__ = ("columns", "deferred", "num_rows", "schema")

    def __init__(
        self,
        schema: Schema,
        columns: dict[str, np.ndarray],
        num_rows: int,
        deferred: "dict[str, Decoder] | None" = None,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.num_rows = num_rows
        self.deferred = deferred or {}

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], schema: Schema) -> "ColumnBatch":
        """Transpose row tuples into typed numpy columns. A primitive column
        holding a NULL becomes an object column (``None`` stays ``None``)."""
        n = len(rows)
        columns: dict[str, np.ndarray] = {}
        for i, field in enumerate(schema.fields):
            values = [row[i] for row in rows]
            dtype = field.dtype.numpy_dtype
            if dtype is object or None in values:
                arr = np.empty(n, dtype=object)
                arr[:] = values
            else:
                arr = np.fromiter(values, dtype=dtype, count=n)
            columns[field.name] = arr
        return cls(schema, columns, n)

    def column(self, name: str) -> np.ndarray:
        arr = self.columns.get(name)
        if arr is None:
            arr = self.columns[name] = self.deferred.pop(name)(None)
        return arr

    def project(self, names: Sequence[str]) -> "ColumnBatch":
        """Zero-copy column selection (views, not copies)."""
        return ColumnBatch(
            self.schema.select(names),
            {n: self.columns[n] for n in names if n in self.columns},
            self.num_rows,
            {n: self.deferred[n] for n in names if n in self.deferred},
        )

    def filter(self, mask: np.ndarray) -> "ColumnBatch":
        deferred: dict[str, Decoder] = {}
        if self.deferred:
            kept = np.flatnonzero(mask)
            for name, decode in self.deferred.items():
                deferred[name] = lambda sel, decode=decode: decode(
                    kept if sel is None else kept[sel]
                )
        return ColumnBatch(
            self.schema,
            {n: c[mask] for n, c in self.columns.items()},
            int(np.count_nonzero(mask)),
            deferred,
        )

    # -- kernels -------------------------------------------------------------------

    def eval_rows(self, expr: Expression) -> list:
        """``expr`` under the row evaluator, one value per row: the reference
        the vector path defers to whenever it raises :class:`VectorFallback`."""
        bound = resolve_expression(expr, self.schema)
        return [bound.eval(row) for row in self.to_rows()]

    def mask(self, condition: Expression) -> np.ndarray:
        """Boolean row mask of a predicate: vectorised, or — when numpy could
        answer differently from ``eval(row)`` (int64 wrap, zero divisor, a
        NULL an ``AND`` would have short-circuited past) — row by row, so the
        same rows come back or the same error is raised."""
        try:
            columns = {n: self.column(n) for n in condition.references()}
            mask = np.asarray(condition.eval_vector(columns), dtype=bool)
        except (VectorFallback, TypeError):
            mask = np.fromiter(map(bool, self.eval_rows(condition)), bool, self.num_rows)
        if mask.ndim == 0:  # literal-only predicate
            mask = np.full(self.num_rows, bool(mask))
        return mask

    def scan(
        self, condition: "Expression | None", required: "Sequence[str] | None"
    ) -> "ColumnBatch":
        """The fused scan kernel: filter as a mask, then select columns."""
        batch = self
        if condition is not None:
            batch = batch.filter(batch.mask(condition))
        if required is not None:
            batch = batch.project(required)
        return batch

    def to_rows(self) -> list[tuple]:
        """Materialize row tuples (the row-materialization cost the paper
        mentions for columnar formats, CORES [42])."""
        if self.num_rows == 0:
            return []
        if not self.schema.fields:
            return [()] * self.num_rows
        # ndarray.tolist() converts numpy scalars to Python objects in bulk,
        # far faster than per-element item() calls.
        pylists = [self.column(f.name).tolist() for f in self.schema.fields]
        return list(zip(*pylists))

    def iter_rows(self) -> Iterator[tuple]:
        return iter(self.to_rows())

    @property
    def nbytes(self) -> int:
        total = 0
        for c in self.columns.values():
            if c.dtype == object:
                # Approximate: pointer + average payload for strings.
                total += c.nbytes + sum(len(s) if isinstance(s, str) else 8 for s in c[:64]) * (
                    max(1, len(c)) // max(1, min(len(c), 64))
                )
            else:
                total += c.nbytes
        return total

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover
        return f"ColumnBatch(rows={self.num_rows}, cols={list(self.schema.names())})"
