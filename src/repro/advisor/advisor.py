"""The cache advisor: observed-behaviour-driven cache/pin/evict decisions.

One :class:`CacheAdvisor` lives on every
:class:`~repro.engine.context.EngineContext` and passively accumulates the
three cost-model inputs (DESIGN.md §17):

* **recompute cost** — the cache manager reports every measured
  ``rdd.compute`` (:meth:`note_block_compute`, with lineage depth derived
  from the RDD's dependency DAG); the session reports every query
  execution (:meth:`record_execution`);
* **expected reuse** — the session reports every normalized-SQL
  fingerprint it plans (:meth:`note_query`, the plan-cache recurrence
  signal), the cache manager every block hit (:meth:`note_block_access`),
  and the serve tier every fast-path hit (:meth:`note_serve_view`) — all
  into :class:`~repro.advisor.cost_model.DecayedCounter`\\ s on a
  query-count clock;
* **bytes held** — sampled from result rows / the memory manager's sizes.

Passive collection is always on (dict bumps, no locks beyond the
advisor's own). The *active* half — transparently persisting hot
recurring query results, auto-evicting them (and cold user pins) under
memory pressure — only runs when ``Config.auto_cache`` is true. Every
active decision is observable (``cache_advisor_decisions_total`` counters,
``advisor`` tracer spans, recovery events) and safe by construction:
persisted results live in the ordinary block store (budgeted, spillable,
rebuilt from lineage), auto-cached entries are invalidated by catalog
epoch exactly like plan-cache entries, and an unpin merely re-routes reads
through recomputation — never a different answer.
"""

from __future__ import annotations

import sys
import threading
import weakref
from typing import TYPE_CHECKING, Any

from repro.advisor.cost_model import DecayedCounter, Ewma, lineage_depth, value_density
from repro.advisor.ghost import GhostList

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext
    from repro.engine.rdd import RDD

BlockId = tuple[int, int]


class _PlanStats:
    """Everything observed about one normalized-SQL fingerprint."""

    __slots__ = ("bytes_estimate", "exec_seconds", "executions", "recurrence")

    def __init__(self) -> None:
        self.recurrence = DecayedCounter()
        self.exec_seconds = Ewma()
        self.bytes_estimate = 0
        self.executions = 0


class _RddStats:
    """Everything observed about one cached RDD's blocks."""

    __slots__ = ("accesses", "compute_seconds", "depth")

    def __init__(self) -> None:
        self.compute_seconds = Ewma()
        self.depth = 1
        self.accesses = DecayedCounter()


class _AutoCached:
    """One auto-materialized query result: the persisted RDD + its epoch."""

    __slots__ = ("epoch", "fingerprint", "hits", "rdd")

    def __init__(self, fingerprint: str, rdd: "RDD", epoch: int) -> None:
        self.fingerprint = fingerprint
        self.rdd = rdd
        self.epoch = epoch
        self.hits = 0


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
        self.decay = float(cfg.advisor_recurrence_decay)
        self.shed_pressure = float(cfg.advisor_shed_pressure)
        self.ghost = GhostList(cfg.advisor_ghost_size, cfg.advisor_ghost_cooldown)
        self._lock = threading.Lock()
        #: Advisor clock: one tick per planned query (note_query).
        self._t = 0
        self._plans: dict[str, _PlanStats] = {}
        self._rdds: dict[int, _RddStats] = {}
        self._depth_cache: dict[int, int] = {}
        #: fingerprint -> auto-materialized result (strong ref keeps the
        #: persisted RDD alive; blocks themselves live in the block store).
        self._auto: dict[str, _AutoCached] = {}
        #: rdd_id -> weakref of a user-persisted RDD (``.cache()``/
        #: ``.persist()``), candidates for auto-unpin under pressure.
        self._user_pins: dict[int, "weakref.ref[RDD]"] = {}
        self._serve: dict[str, DecayedCounter] = {}
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

    #: Public name for collaborators (serve tier) recording decisions they
    #: carried out on the advisor's recommendation.
    record_decision = _decide

    # -- passive collection: plans ----------------------------------------------

    def note_query(self, fingerprint: str, plan_cache_hit: bool = False) -> None:
        """One query planned for ``fingerprint`` (the session calls this on
        every ``sql_logical``). Advances the advisor clock and bumps the
        fingerprint's decayed recurrence; a plan-cache hit counts slightly
        more (proven repetition, not merely a first sighting)."""
        with self._lock:
            self._t += 1
            stats = self._plans.get(fingerprint)
            if stats is None:
                stats = self._plans[fingerprint] = _PlanStats()
            stats.recurrence.bump(self._t, self.decay, 1.25 if plan_cache_hit else 1.0)

    def record_execution(self, fingerprint: str, seconds: float, rows: list) -> None:
        """Measured cost of one uncached execution of ``fingerprint``."""
        with self._lock:
            stats = self._plans.get(fingerprint)
            if stats is None:
                stats = self._plans[fingerprint] = _PlanStats()
            stats.exec_seconds.update(seconds)
            stats.executions += 1
            if rows:
                stats.bytes_estimate = _estimate_row_bytes(rows)

    def plan_score(self, fingerprint: str) -> float:
        """Current value density of caching ``fingerprint``'s result."""
        with self._lock:
            return self._plan_score_locked(fingerprint)

    def _plan_score_locked(self, fingerprint: str) -> float:
        stats = self._plans.get(fingerprint)
        if stats is None:
            return 0.0
        reuse = stats.recurrence.read(self._t, self.decay)
        return value_density(
            stats.exec_seconds.value, 1, reuse, max(stats.bytes_estimate, 1024)
        )

    # -- passive collection: blocks ----------------------------------------------

    def note_block_access(self, block_id: BlockId) -> None:
        """A cache hit on ``block_id`` (local or remote)."""
        with self._lock:
            stats = self._rdds.get(block_id[0])
            if stats is None:
                stats = self._rdds[block_id[0]] = _RddStats()
            stats.accesses.bump(self._t, self.decay)

    def note_block_compute(self, block_id: BlockId, rdd: "RDD", seconds: float) -> None:
        """A cache miss computed ``block_id`` from lineage in ``seconds``."""
        with self._lock:
            stats = self._rdds.get(block_id[0])
            if stats is None:
                stats = self._rdds[block_id[0]] = _RddStats()
            stats.compute_seconds.update(seconds)
            stats.depth = lineage_depth(rdd, self._depth_cache)

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
                    reuse = stats.accesses.read(self._t, self.decay) + 0.25 * refs.get(
                        rdd_id, 0
                    )
                    score = value_density(
                        max(stats.compute_seconds.value, 0.0005),
                        stats.depth,
                        reuse,
                        max(nbytes, 1),
                    )
                out[block_id] = score
                per_rdd[rdd_id] = max(per_rdd.get(rdd_id, 0.0), score)
        for rdd_id, score in per_rdd.items():
            registry.set_gauge("cache_advisor_score", score, rdd=rdd_id)
        return out

    # -- the auto-cache hook (active; called by Session.execute) ------------------

    def auto_cached_rdd(self, fingerprint: str, epoch: int) -> "RDD | None":
        """The persisted result RDD for ``fingerprint`` valid at catalog
        ``epoch``, or None. A stale entry (epoch moved on — the catalog,
        and thus possibly the answer, changed) is dropped on sight."""
        if not self.enabled:
            return None
        stale: "_AutoCached | None" = None
        with self._lock:
            entry = self._auto.get(fingerprint)
            if entry is None:
                return None
            if entry.epoch != epoch:
                stale = self._auto.pop(fingerprint)
            else:
                entry.hits += 1
        if stale is not None:
            self._drop_rdd(stale.rdd)
            return None
        self.context.registry.inc("cache_advisor_hits_total")
        return entry.rdd

    def before_collect(self, fingerprint: str, rdd: "RDD", epoch: int) -> "RDD":
        """Admission decision for one about-to-execute recurring query.

        When the fingerprint's value density clears the threshold — and it
        is not in the ghost list's re-admission cooldown — the result RDD
        is persisted *before* collection, so this very execution populates
        the block store and the next identical query is served from cache.
        """
        if not self.enabled:
            return rdd
        with self._lock:
            if fingerprint in self._auto:
                return rdd
            score = self._plan_score_locked(fingerprint)
            stats = self._plans.get(fingerprint)
            recurrence = (
                stats.recurrence.read(self._t, self.decay) if stats is not None else 0.0
            )
            # threshold 0.0 is always-cache mode: nothing scores below it.
            if score < self.score_threshold:
                return rdd
            if self.ghost.recently_shed(fingerprint, self._t):
                blocked = True
            else:
                blocked = False
                self._auto[fingerprint] = _AutoCached(fingerprint, rdd, epoch)
        if blocked:
            self._decide("readmit_blocked", fingerprint)
            return rdd
        rdd.persist()
        # persist() registers a *user* pin; this one is advisor-owned and
        # tracked in _auto — keep the two shedding populations disjoint.
        self.forget_pin(rdd.rdd_id)
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

    def note_user_pin(self, rdd: "RDD") -> None:
        """A user called ``persist()``/``cache()``: remember the pin (weakly)
        so it can be auto-unpinned if it goes cold under pressure."""
        self._user_pins[rdd.rdd_id] = weakref.ref(rdd)

    def forget_pin(self, rdd_id: int) -> None:
        self._user_pins.pop(rdd_id, None)

    # -- pressure response (active) -----------------------------------------------

    def maybe_shed(self) -> int:
        """Auto-evict under memory pressure; returns entries shed.

        Called at query boundaries (driver-side, no block-manager locks
        held — the lock-order inverse of :meth:`block_scores`). Above
        ``advisor_shed_pressure``, drops the lowest-value auto-cached
        results and user pins whose decayed reuse has gone cold, recording
        each shed fingerprint in the ghost list so it cannot bounce
        straight back in (anti-thrash).
        """
        if not self.enabled:
            return 0
        pressure = self.context.memory_pressure()
        if pressure < self.shed_pressure:
            return 0
        victims: list[_AutoCached] = []
        cold_pins: list["RDD"] = []
        with self._lock:
            if self._auto:
                scored = sorted(
                    self._auto.values(), key=lambda e: self._plan_score_locked(e.fingerprint)
                )
                # Shed cold entries (score below threshold); always at least
                # the single lowest-value one so pressure monotonically eases.
                victims = [
                    e
                    for e in scored
                    if self._plan_score_locked(e.fingerprint) < self.score_threshold
                ] or scored[:1]
                for entry in victims:
                    del self._auto[entry.fingerprint]
                    self.ghost.record(entry.fingerprint, self._t)
            for rdd_id, ref in list(self._user_pins.items()):
                rdd = ref()
                if rdd is None or not rdd.cached:
                    del self._user_pins[rdd_id]
                    continue
                stats = self._rdds.get(rdd_id)
                reuse = (
                    stats.accesses.read(self._t, self.decay) if stats is not None else 0.0
                )
                if reuse < 0.5:  # cold: no recent hits survived decay
                    cold_pins.append(rdd)
                    del self._user_pins[rdd_id]
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
            for rdd in cold_pins:
                self._drop_rdd(rdd)
                self._decide("auto_evict", f"rdd:{rdd.rdd_id}", target="user_pin")
                self.context.metrics.record_recovery(
                    "advisor_auto_unpin",
                    detail=f"rdd={rdd.rdd_id} pressure={pressure:.2f}",
                )
            span.set_attr("shed", len(victims) + len(cold_pins))
        return len(victims) + len(cold_pins)

    def _drop_rdd(self, rdd: "RDD") -> None:
        """Unpersist ``rdd`` and drop its blocks from every executor. Safe:
        the next read misses and rebuilds from lineage (MVCC versions and
        replay logs make that rebuild answer-identical)."""
        rdd.unpersist()
        for split in range(rdd.num_partitions):
            self.context.invalidate_block((rdd.rdd_id, split))

    # -- serve-tier signal ----------------------------------------------------------

    def note_serve_view(self, view: str) -> None:
        """One fast-path hit on a served view: recurrence feeds the serve
        tier's unpin-under-pressure decision."""
        with self._lock:
            counter = self._serve.get(view)
            if counter is None:
                counter = self._serve[view] = DecayedCounter()
            counter.bump(self._t, self.decay)

    def serve_recurrence(self, view: str) -> float:
        with self._lock:
            counter = self._serve.get(view)
            return counter.read(self._t, self.decay) if counter is not None else 0.0

    def should_unpin_view(self, view: str) -> bool:
        """Is ``view`` cold enough to drop its serve pin under pressure?
        (Correct either way: an unpinned view serves through the general
        plan-cached path until the next publish re-pins it.)"""
        return self.enabled and self.serve_recurrence(view) < 1.0

    # -- explain surface -------------------------------------------------------------

    def report(self) -> str:
        """Human-readable advisor state: scores, decisions, ghost stats."""
        with self._lock:
            t = self._t
            plan_rows = []
            for fingerprint, stats in sorted(self._plans.items()):
                rec = stats.recurrence.read(t, self.decay)
                score = self._plan_score_locked(fingerprint)
                state = "auto_cached" if fingerprint in self._auto else (
                    "ghost" if fingerprint in self.ghost else "observed"
                )
                plan_rows.append((fingerprint, rec, stats, score, state))
            rdd_rows = [
                (rdd_id, s.compute_seconds.value, s.depth, s.accesses.read(t, self.decay))
                for rdd_id, s in sorted(self._rdds.items())
            ]
            serve_rows = [
                (view, c.read(t, self.decay)) for view, c in sorted(self._serve.items())
            ]
            decisions = list(self._decisions)
            ghost = self.ghost.stats()
        lines = [
            f"== Cache advisor (enabled={self.enabled}, t={t}, "
            f"threshold={self.score_threshold}, decay={self.decay}) ==",
            f"ghost: {ghost['entries']}/{ghost['capacity']} entries, "
            f"cooldown={ghost['cooldown']}, recorded={ghost['recorded']}, "
            f"blocked={ghost['blocked']}",
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
        if serve_rows:
            lines.append("-- served views (view | decayed_hits)")
            for view, rec in serve_rows:
                lines.append(f"  {view:<32} {rec:9.2f}")
        if decisions:
            lines.append("-- recent decisions")
            for action, subject in decisions[-16:]:
                lines.append(f"  {action:<16} {subject[:60]}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CacheAdvisor(enabled={self.enabled}, plans={len(self._plans)}, "
            f"auto_cached={len(self._auto)}, t={self._t})"
        )
