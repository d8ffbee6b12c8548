"""Catalog: named temp views for the SQL entry point.

The catalog carries a monotonically increasing **epoch** that every
mutation (register / drop) bumps. Cached query plans are keyed on the
epoch at planning time (:mod:`repro.sql.plan_cache`): re-registering a
view — e.g. publishing a new MVCC version of an indexed relation —
therefore invalidates every plan that might still reference the old leaf.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.sql.logical import LogicalPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.dataframe import DataFrame  # noqa: F401


class Catalog:
    def __init__(self) -> None:
        self._views: dict[str, LogicalPlan] = {}
        self._epoch = 0
        self._lock = threading.Lock()

    @property
    def epoch(self) -> int:
        """Mutation counter; changes whenever any view is (re-)registered or
        dropped. Plan caches treat a changed epoch as "all bets are off"."""
        return self._epoch

    def register(self, name: str, plan: LogicalPlan) -> None:
        with self._lock:
            self._views[name.lower()] = plan
            self._epoch += 1

    def lookup(self, name: str) -> LogicalPlan:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise KeyError(
                f"table or view {name!r} not found; known: {sorted(self._views)}"
            ) from None

    def name_of(self, plan: LogicalPlan) -> "str | None":
        """The name ``plan`` is registered under right now (identity match;
        a re-registered view no longer names its old plan), or None."""
        with self._lock:
            return next((n for n, p in self._views.items() if p is plan), None)

    def drop(self, name: str) -> None:
        with self._lock:
            if self._views.pop(name.lower(), None) is not None:
                self._epoch += 1

    def names(self) -> list[str]:
        return sorted(self._views)
