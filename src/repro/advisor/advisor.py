"""The cache advisor: observed-behaviour-driven cache/evict decisions.

One :class:`CacheAdvisor` lives on every
:class:`~repro.engine.context.EngineContext` and accumulates the three
cost-model inputs (DESIGN.md §17):

* **recompute cost** — the cache manager reports every measured
  ``rdd.compute`` (:meth:`note_block_compute`, with lineage depth derived
  from the RDD's dependency DAG); the session reports every query
  execution (:meth:`record_execution`);
* **expected reuse** — the session reports every plan-cache entry it
  plans from (:meth:`note_query`, the recurrence signal) and the cache
  manager every block hit (:meth:`note_block_access`) — both into
  :class:`~repro.advisor.cost_model.DecayedCounter`\\ s on a query-count
  clock;
* **bytes held** — sampled from result rows / the memory manager's sizes.

Statistics live exactly as long as what they describe: per-query ones sit
on the plan-cache entry (``CachedPlan.advisor_stats`` — evicted and
epoch-invalidated with it) and are collected only when
``Config.auto_cache`` is on, their one reader; per-RDD ones are forgotten
when the RDD is unpersisted. The *active* half — transparently persisting
hot recurring query results and auto-evicting them under memory pressure —
also runs only under ``auto_cache``. Every active decision is observable
(``cache_advisor_decisions_total`` counters, ``advisor`` tracer spans,
recovery events) and safe by construction: persisted results live in the
ordinary block store (budgeted, spillable, rebuilt from lineage),
auto-cached entries are invalidated by catalog epoch exactly like
plan-cache entries, and the advisor only ever drops RDDs it persisted
itself — a user's ``.cache()`` is never revoked.
"""

from __future__ import annotations

import sys
import threading
from collections import ChainMap
from typing import TYPE_CHECKING, Any, Iterable

from repro.advisor.cost_model import (
    DECAY_PER_TICK,
    DecayedCounter,
    Ewma,
    lineage_depth,
    value_density,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext
    from repro.engine.rdd import RDD
    from repro.sql.plan_cache import CachedPlan

BlockId = tuple[int, int]


class _PlanStats:
    """Everything observed about one plan-cache entry's query text."""

    __slots__ = ("bytes_estimate", "exec_seconds", "executions", "recurrence")

    def __init__(self) -> None:
        self.recurrence = DecayedCounter()
        self.exec_seconds = Ewma()
        self.bytes_estimate = 0
        self.executions = 0


class _RddStats:
    """Everything observed about one cached RDD's blocks."""

    __slots__ = ("accesses", "compute_seconds")

    def __init__(self) -> None:
        self.compute_seconds = Ewma()
        self.accesses = DecayedCounter()


class _AutoCached:
    """One auto-materialized query result: the persisted RDD, its epoch and
    the statistics of the plan-cache entry that admitted it."""

    __slots__ = ("epoch", "fingerprint", "rdd", "stats")

    def __init__(self, fingerprint: str, rdd: "RDD", epoch: int, stats: _PlanStats) -> None:
        self.fingerprint = fingerprint
        self.rdd = rdd
        self.epoch = epoch
        self.stats = stats


def _estimate_row_bytes(rows: list, sample: int = 64) -> int:
    """Cheap result-size estimate: deep-ish size of a sample, scaled."""
    if not rows:
        return 0
    n = min(sample, len(rows))
    total = 0
    for row in rows[:n]:
        total += sys.getsizeof(row)
        for v in row if isinstance(row, tuple) else (row,):
            total += sys.getsizeof(v)
    return int(total * (len(rows) / n))


class CacheAdvisor:
    """Cost-based cache decisions for one engine context (see module doc)."""

    def __init__(self, context: "EngineContext") -> None:
        cfg = context.config
        self.context = context
        self.enabled = bool(cfg.auto_cache)
        self.score_threshold = float(cfg.advisor_score_threshold)
        self.shed_pressure = float(cfg.advisor_shed_pressure)
        self._lock = threading.Lock()
        #: Advisor clock: one tick per planned query (note_query).
        self._t = 0
        #: Per cached RDD id; both forgotten by :meth:`forget_rdd`.
        self._rdds: dict[int, _RddStats] = {}
        self._depth_cache: dict[int, int] = {}
        #: fingerprint -> auto-materialized result (strong ref keeps the
        #: persisted RDD alive; blocks themselves live in the block store).
        self._auto: dict[str, _AutoCached] = {}
        #: (action, subject) ring for ``cache_advisor_report()``.
        self._decisions: list[tuple[str, str]] = []

    # -- decision plumbing -------------------------------------------------------

    def _decide(self, action: str, subject: str, **attrs: Any) -> None:
        """Record one decision: counter, trace span, report ring."""
        self.context.registry.inc("cache_advisor_decisions_total", action=action)
        span = self.context.tracer.start_span(
            "advisor_decision", kind="advisor", action=action, subject=subject, **attrs
        )
        span.end()
        self._decisions.append((action, subject))
        del self._decisions[:-64]

    # -- collection: plans (only under auto_cache, their one reader) ---------------

    def note_query(self, entry: "CachedPlan", plan_cache_hit: bool = False) -> None:
        """One query planned from plan-cache ``entry`` (the session calls
        this on every ``sql_logical``). Advances the advisor clock — block
        recurrence decays on it whether or not ``auto_cache`` is on — and,
        under ``auto_cache``, bumps the entry's decayed recurrence; a
        plan-cache hit counts slightly more (proven repetition, not merely
        a first sighting)."""
        with self._lock:
            self._t += 1
            if not self.enabled:
                return
            stats = entry.advisor_stats
            if stats is None:
                stats = entry.advisor_stats = _PlanStats()
            stats.recurrence.bump(self._t, DECAY_PER_TICK, 1.25 if plan_cache_hit else 1.0)

    def record_execution(self, entry: "CachedPlan", seconds: float, rows: list) -> None:
        """Measured cost of one uncached execution of ``entry``'s query."""
        stats = entry.advisor_stats  # made by note_query when auto_cache is on
        if stats is None:
            return
        with self._lock:
            stats.exec_seconds.update(seconds)
            stats.executions += 1
            if rows:
                stats.bytes_estimate = _estimate_row_bytes(rows)

    def _plan_score_locked(self, stats: _PlanStats) -> float:
        """Current value density of caching the result ``stats`` describes."""
        reuse = stats.recurrence.read(self._t, DECAY_PER_TICK)
        return value_density(
            stats.exec_seconds.value, 1, reuse, max(stats.bytes_estimate, 1024)
        )

    # -- collection: blocks --------------------------------------------------------

    def note_block_access(self, block_id: BlockId) -> None:
        """A cache hit on ``block_id`` (local or remote)."""
        with self._lock:
            stats = self._rdds.get(block_id[0])
            if stats is None:
                stats = self._rdds[block_id[0]] = _RddStats()
            stats.accesses.bump(self._t, DECAY_PER_TICK)

    def note_block_compute(self, block_id: BlockId, rdd: "RDD", seconds: float) -> None:
        """A cache miss computed ``block_id`` from lineage in ``seconds``."""
        rdd_id = block_id[0]
        with self._lock:
            stats = self._rdds.get(rdd_id)
            if stats is None:
                stats = self._rdds[rdd_id] = _RddStats()
            stats.compute_seconds.update(seconds)
            if rdd_id not in self._depth_cache:
                # The walk stops at the nearest ancestor whose depth is
                # known. The scratch map in front keeps what it learns about
                # uncached ancestors out of the memo, so the memo holds one
                # entry per cached RDD and shrinks with forget_rdd.
                self._depth_cache[rdd_id] = lineage_depth(
                    rdd, ChainMap({}, self._depth_cache)
                )

    def forget_rdd(self, rdd_id: int) -> None:
        """``rdd_id`` was unpersisted: its block statistics describe nothing."""
        with self._lock:
            self._rdds.pop(rdd_id, None)
            self._depth_cache.pop(rdd_id, None)

    def block_scores(self, sizes: "dict[BlockId, int]") -> "dict[BlockId, float]":
        """Value density per block for the ``"cost"`` eviction policy.

        Called by the memory manager (under its block-manager lock — this
        method takes only the advisor's own lock and calls nothing that
        locks elsewhere). Blends per-RDD measured compute cost x lineage
        depth x decayed access recurrence with the DAG's lineage reference
        counts, per byte held. Publishes per-RDD score gauges.
        """
        refs = self.context.lineage_ref_counts()
        registry = self.context.registry
        out: "dict[BlockId, float]" = {}
        with self._lock:
            per_rdd: dict[int, float] = {}
            for block_id, nbytes in sizes.items():
                rdd_id = block_id[0]
                stats = self._rdds.get(rdd_id)
                if stats is None:
                    reuse = float(refs.get(rdd_id, 0))
                    score = value_density(0.001, 1, reuse, max(nbytes, 1))
                else:
                    reuse = stats.accesses.read(self._t, DECAY_PER_TICK) + 0.25 * refs.get(
                        rdd_id, 0
                    )
                    score = value_density(
                        max(stats.compute_seconds.value, 0.0005),
                        self._depth_cache.get(rdd_id, 1),
                        reuse,
                        max(nbytes, 1),
                    )
                out[block_id] = score
                per_rdd[rdd_id] = max(per_rdd.get(rdd_id, 0.0), score)
        for rdd_id, score in per_rdd.items():
            registry.set_gauge("cache_advisor_score", score, rdd=rdd_id)
        return out

    # -- the auto-cache hook (active; called by Session.execute) ------------------

    def auto_cached_rdd(self, entry: "CachedPlan") -> "RDD | None":
        """The persisted result RDD for ``entry``'s query text, valid at the
        entry's catalog epoch, or None. A stale result (epoch moved on —
        the catalog, and thus possibly the answer, changed) is dropped on
        sight."""
        if not self.enabled:
            return None
        stale: "_AutoCached | None" = None
        with self._lock:
            cached = self._auto.get(entry.text)
            if cached is None:
                return None
            if cached.epoch != entry.epoch:
                stale = self._auto.pop(entry.text)
        if stale is not None:
            self._drop_rdd(stale.rdd)
            return None
        self.context.registry.inc("cache_advisor_hits_total")
        return cached.rdd

    def before_collect(self, entry: "CachedPlan", rdd: "RDD") -> "RDD":
        """Admission decision for one about-to-execute recurring query.

        When the value density of ``entry``'s query clears the threshold,
        the result RDD is persisted *before* collection, so this very
        execution populates the block store and the next identical query is
        served from cache.
        """
        stats = entry.advisor_stats  # made by note_query when auto_cache is on
        if stats is None:
            return rdd
        fingerprint = entry.text
        with self._lock:
            if fingerprint in self._auto:
                return rdd
            score = self._plan_score_locked(stats)
            # threshold 0.0 is always-cache mode: nothing scores below it.
            if score < self.score_threshold:
                return rdd
            recurrence = stats.recurrence.read(self._t, DECAY_PER_TICK)
            self._auto[fingerprint] = _AutoCached(fingerprint, rdd, entry.epoch, stats)
        rdd.persist()
        # Marks the block store's puts best-effort for this RDD: a result
        # partition that cannot fit the budget is simply not stored (the
        # query still answers) instead of failing the task — transparent
        # caching must never break a query that would otherwise succeed.
        rdd.advisor_cached = True
        self._decide(
            "auto_cache", fingerprint, score=round(score, 4), recurrence=round(recurrence, 3)
        )
        self.context.registry.set_gauge(
            "cache_advisor_plan_score", score, fingerprint=fingerprint[:48]
        )
        return rdd

    # -- pressure response (active) -----------------------------------------------

    def maybe_shed(self) -> int:
        """Auto-evict under memory pressure; returns entries shed.

        Called at query boundaries (driver-side, no block-manager locks
        held — the lock-order inverse of :meth:`block_scores`). Above
        ``advisor_shed_pressure``, drops the lowest-value *auto-cached*
        results — only ever RDDs the advisor persisted itself.
        """
        if not self.enabled:
            return 0
        pressure = self.context.memory_pressure()
        if pressure < self.shed_pressure:
            return 0
        victims: list[_AutoCached] = []
        with self._lock:
            if self._auto:
                scored = sorted(
                    ((self._plan_score_locked(e.stats), e) for e in self._auto.values()),
                    key=lambda pair: pair[0],
                )
                # Shed cold entries (score below threshold); always at least
                # the single lowest-value one so pressure monotonically eases.
                victims = [
                    e for score, e in scored if score < self.score_threshold
                ] or [scored[0][1]]
                for entry in victims:
                    del self._auto[entry.fingerprint]
        # Act outside the advisor lock: unpersist + invalidate take
        # block-manager locks.
        span = self.context.tracer.start_span(
            "advisor_shed", kind="advisor", pressure=round(pressure, 3)
        )
        with span:
            for entry in victims:
                self._drop_rdd(entry.rdd)
                self._decide("auto_evict", entry.fingerprint, target="auto_cache")
                self.context.metrics.record_recovery(
                    "advisor_auto_evict",
                    detail=f"fingerprint={entry.fingerprint[:60]} pressure={pressure:.2f}",
                )
            span.set_attr("shed", len(victims))
        return len(victims)

    def _drop_rdd(self, rdd: "RDD") -> None:
        """Unpersist ``rdd`` and drop its blocks from every executor. Safe:
        the next read misses and rebuilds from lineage (MVCC versions and
        replay logs make that rebuild answer-identical)."""
        rdd.unpersist()
        for split in range(rdd.num_partitions):
            self.context.invalidate_block((rdd.rdd_id, split))

    # -- explain surface -------------------------------------------------------------

    def report(self, plans: "Iterable[CachedPlan]") -> str:
        """Human-readable advisor state: scores and decisions. ``plans`` are
        the session's live plan-cache entries, which carry the per-query
        statistics."""
        with self._lock:
            t = self._t
            plan_rows = []
            for entry in sorted(plans, key=lambda e: e.text):
                stats = entry.advisor_stats
                if stats is None:
                    continue
                rec = stats.recurrence.read(t, DECAY_PER_TICK)
                score = self._plan_score_locked(stats)
                state = "auto_cached" if entry.text in self._auto else "observed"
                plan_rows.append((entry.text, rec, stats, score, state))
            rdd_rows = [
                (
                    rdd_id,
                    s.compute_seconds.value,
                    self._depth_cache.get(rdd_id, 1),
                    s.accesses.read(t, DECAY_PER_TICK),
                )
                for rdd_id, s in sorted(self._rdds.items())
            ]
            decisions = list(self._decisions)
        lines = [
            f"== Cache advisor (enabled={self.enabled}, t={t}, "
            f"threshold={self.score_threshold}, decay={DECAY_PER_TICK}) ==",
            "-- plans (fingerprint | recurrence | exec_ms | est_bytes | score | state)",
        ]
        for fingerprint, rec, stats, score, state in plan_rows:
            lines.append(
                f"  {fingerprint[:56]:<56} {rec:7.2f} "
                f"{stats.exec_seconds.value * 1e3:9.2f} {stats.bytes_estimate:>10} "
                f"{score:9.3f} {state}"
            )
        lines.append("-- blocks (rdd | compute_ms | depth | decayed_accesses)")
        for rdd_id, secs, depth, acc in rdd_rows:
            lines.append(f"  rdd {rdd_id:<6} {secs * 1e3:9.2f} {depth:5d} {acc:9.2f}")
        if decisions:
            lines.append("-- recent decisions")
            for action, subject in decisions[-16:]:
                lines.append(f"  {action:<16} {subject[:60]}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CacheAdvisor(enabled={self.enabled}, rdds={len(self._rdds)}, "
            f"auto_cached={len(self._auto)}, t={self._t})"
        )
