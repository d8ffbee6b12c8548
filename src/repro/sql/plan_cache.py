"""Plan cache: normalized-SQL -> (logical, physical) plan reuse.

Repeated ``Session.sql`` calls with identical query text used to pay the
full parse -> analyze -> optimize -> plan pipeline every time, even though
the result is deterministic given the catalog contents. Intermediate Data
Caching Optimization (Yang et al., arXiv:1805.08609) makes the general
argument: work that repeats across requests should be cached, not
re-derived. This module is that cache for the planning pipeline:

* **Keying.** Entries are keyed on :func:`normalize_sql` of the query text
  (case-folded outside string literals, whitespace collapsed) so
  incidental formatting differences share one entry.
* **Invalidation.** Every entry records the catalog **epoch** it was built
  under (:attr:`repro.sql.catalog.Catalog.epoch`). Any catalog mutation —
  including re-registering an indexed view at a new MVCC version — bumps
  the epoch, and stale entries are discarded lazily on lookup. A cached
  plan can therefore never serve rows from a version the catalog no longer
  names.
* **Physical reuse.** An entry stores the parsed logical plan immediately
  and, after the first execution, the planned :class:`PhysicalPlan` too
  (physical plans here are re-executable: ``execute()`` builds a fresh RDD
  each call). The second execution of the same text skips parse, analyze,
  optimize *and* plan.

Capacity is bounded (LRU); ``capacity=0`` disables caching entirely (every
lookup misses), which is how benchmarks measure the uncached baseline.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry
    from repro.sql.logical import LogicalPlan
    from repro.sql.physical import PhysicalPlan

#: Split on single-quoted SQL strings ('' is the escaped quote); odd chunks
#: are string literals and keep their case/spacing.
_STRING_RE = re.compile(r"('(?:[^']|'')*')")
_WS_RE = re.compile(r"\s+")


def normalize_sql(text: str) -> str:
    """Canonical cache key: lower-case and collapse whitespace everywhere
    except inside string literals."""
    parts = _STRING_RE.split(text)
    for i in range(0, len(parts), 2):
        parts[i] = _WS_RE.sub(" ", parts[i]).lower()
    return "".join(parts).strip()


class CachedPlan:
    """One cache entry: the plans derived from one normalized query text."""

    __slots__ = (
        "advisor_stats",
        "epoch",
        "hits",
        "logical",
        "num_params",
        "physical",
        "text",
        "unplannable",
    )

    def __init__(self, text: str, epoch: int, logical: "LogicalPlan", num_params: int = 0):
        self.text = text
        self.epoch = epoch
        self.logical = logical
        self.num_params = num_params
        #: Filled in after the first execution of this text; for a
        #: ``prepare::`` entry, the template's plan, bound per execution
        #: (``repro.sql.prepared``).
        self.physical: "PhysicalPlan | None" = None
        #: For a ``prepare::`` entry: planning the template raised (a ``?``
        #: whose type the plan needs), so executions at this entry's epoch
        #: bind first without trying it again.
        self.unplannable = False
        #: Filled in by the cache advisor under ``Config.auto_cache``: this
        #: text's recurrence and measured execution cost (DESIGN.md §17).
        #: Riding on the entry, they are evicted and epoch-invalidated
        #: with the plan they describe.
        self.advisor_stats: Any = None
        self.hits = 0


class PlanCache:
    """Thread-safe, epoch-validated, LRU-bounded plan cache."""

    def __init__(self, capacity: int = 256, registry: "MetricsRegistry | None" = None):
        self.capacity = max(0, capacity)
        self.registry = registry
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        #: id(logical) -> entry, so Session.plan_physical can recognise a
        #: logical plan it handed out earlier and attach/reuse the physical
        #: plan. Entries own their logical objects, so ids stay stable for
        #: the lifetime of the entry.
        self._by_logical: dict[int, CachedPlan] = {}
        self.hit_count = 0
        self.miss_count = 0

    def _count(self, hit: bool) -> None:
        if hit:
            self.hit_count += 1
        else:
            self.miss_count += 1
        if self.registry is not None:
            self.registry.inc("plan_cache_requests_total", outcome="hit" if hit else "miss")

    def lookup(self, norm_text: str, epoch: int) -> CachedPlan | None:
        """The entry for ``norm_text`` valid at catalog ``epoch``, or None.

        A stale entry (built under an older epoch) is evicted on sight —
        the catalog changed underneath it, so both its logical leaf
        references and its physical operators may be stale.
        """
        with self._lock:
            entry = self._entries.get(norm_text)
            if entry is not None and entry.epoch != epoch:
                self._evict(norm_text, entry)
                entry = None
            if entry is None:
                self._count(False)
                return None
            self._entries.move_to_end(norm_text)
            entry.hits += 1
            self._count(True)
            return entry

    def store(self, entry: CachedPlan) -> CachedPlan:
        """Insert ``entry``; returns the entry actually cached (an existing
        same-epoch entry wins a race)."""
        if self.capacity == 0:
            return entry
        with self._lock:
            existing = self._entries.get(entry.text)
            if existing is not None and existing.epoch == entry.epoch:
                return existing
            if existing is not None:
                self._evict(entry.text, existing)
            self._entries[entry.text] = entry
            self._by_logical[id(entry.logical)] = entry
            while len(self._entries) > self.capacity:
                old_text, old = self._entries.popitem(last=False)
                self._by_logical.pop(id(old.logical), None)
            return entry

    def entry_for_logical(self, logical: "LogicalPlan") -> CachedPlan | None:
        """The live entry that owns ``logical`` (identity match), if any."""
        with self._lock:
            return self._by_logical.get(id(logical))

    def entries(self) -> "list[CachedPlan]":
        """The live entries, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def _evict(self, text: str, entry: CachedPlan) -> None:
        self._entries.pop(text, None)
        self._by_logical.pop(id(entry.logical), None)
        if self.registry is not None:
            self.registry.inc("plan_cache_evictions_total")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hit_count,
                "misses": self.miss_count,
            }
