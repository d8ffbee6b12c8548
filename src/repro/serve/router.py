"""ShardRouter: the read path of the serve tier, over N replicated shards.

DESIGN.md §14. Every served read goes through a router — a
:class:`~repro.serve.server.QueryServer` is admission control in front of a
router with one shard. The router owns the control plane the shards
deliberately don't have:

* **Routing.** A query is recognized (via the plan cache, by the one
  recogniser in :mod:`repro.serve.fastpath`) as a *point* read (``=`` /
  ``IN`` on the key), a *range* read (``BETWEEN`` / ``<`` / ``LIKE 'x%'``
  on the key, served by each shard's ordered index), a *scan*, or none of
  them. Point keys route ``key -> split`` through the engine's hash
  partitioner and ``split -> shard`` through the
  :class:`~repro.serve.shard.RoutingTable`, rotating over a split's live
  replicas; ranges and scans fan out one live replica per split, calling
  each assigned shard in turn on the caller's thread, and merge; everything
  else — a view this router does not serve included — falls
  back to the session's general pipeline.
* **Failover.** Shard health is a tiny state machine (ALIVE → SUSPECT →
  DEAD) driven by heartbeats and by :class:`~repro.serve.shard.ShardDown`
  observed on the data path. A dead shard's traffic moves to the next
  live replica mid-query — the client sees a normal answer, plus
  ``serve_shard_failovers_total`` ticking. When *every* replica of a
  partition is dead the router degrades gracefully: partial rows with an
  explicit ``degraded`` flag and the missing partitions listed, never a
  silent wrong answer.
* **Shedding.** Shards shed with retryable ``shard_overloaded`` rejections
  when their inflight gate fills; the router tries the other replicas
  first, then surfaces the rejection to the client's retry loop.

Consistency: shards of one view always serve the same pinned MVCC version.
``publish`` is a barrier — it waits out in-flight queries, installs the new
version's partitions on every live shard, and only then admits new queries
— so a fan-out can never stitch two versions together. (Per-shard
incremental republish would relax this; the barrier keeps the zero-wrong-
answers contract trivially auditable.)
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.serve.fastpath import ServeTemplate, prepare_query
from repro.serve.shard import (
    PartitionNotOwned,
    RoutingTable,
    ServeRejected,
    ShardConfig,
    ShardDown,
    ShardServer,
)
from repro.serve.snapshot import PinnedSnapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.indexed.indexed_dataframe import IndexedDataFrame
    from repro.sql.session import Session

#: Shard health states (the failover state machine).
ALIVE, SUSPECT, DEAD = "alive", "suspect", "dead"


@dataclass
class RouterConfig:
    """Routing-tier tunables (shard-local ones live on :class:`ShardConfig`)."""

    #: Baseline replicas per partition (>= 2 survives any single shard death).
    replication_factor: int = 2
    #: Consecutive failed heartbeats before a SUSPECT shard is declared
    #: DEAD (a ShardDown observed on the data path skips straight to DEAD).
    heartbeat_misses_to_dead: int = 2
    #: Re-replicate a dead shard's partitions from surviving replicas as
    #: soon as the death is declared (restores the replication factor).
    auto_repair: bool = True
    #: Per-shard tunables applied to every shard the router builds.
    shard: ShardConfig = field(default_factory=ShardConfig)


@dataclass
class QueryResult:
    """One answered query; the defaults are a whole answer."""

    rows: list[tuple]
    #: "point" | "range" | "scan" | "general" ("fastpath" for a point read
    #: answered through a QueryServer, the label its counters always used)
    path: str
    #: Pinned MVCC version served (None for the general pipeline).
    snapshot_version: "int | None"
    #: Seconds in a QueryServer's admission queue (0.0 on a bare router).
    queued_seconds: float = 0.0
    total_seconds: float = 0.0
    #: True when some partition had no live replica: ``rows`` is the answer
    #: over the surviving partitions only, never silently wrong.
    degraded: bool = False
    #: Splits that had no live replica (empty unless degraded).
    missing_partitions: list[int] = field(default_factory=list)
    #: Replica fail-overs this query performed mid-flight.
    failovers: int = 0


class ShardRouter:
    """Sharded serving front end over one session (see module docstring)."""

    def __init__(
        self,
        session: "Session",
        num_shards: int,
        config: "RouterConfig | None" = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.session = session
        self.context = session.context
        self.config = config or RouterConfig()
        self.registry = self.context.registry
        self.shards = [
            ShardServer(i, self.context, self.config.shard) for i in range(num_shards)
        ]
        self._health = [ALIVE] * num_shards
        self._heartbeat_misses = [0] * num_shards
        #: Per served view: the pin it publishes (all partitions, what
        #: ``pinned`` returns) and where each split lives.
        self._pinned: dict[str, PinnedSnapshot] = {}
        self._tables: dict[str, RoutingTable] = {}
        self._admin_lock = threading.RLock()
        self._gate = threading.Condition()
        self._active_queries = 0
        self._publishing = False
        self._route_ops = itertools.count()
        self._rr = itertools.count()
        self._closed = False

    # -- publishing --------------------------------------------------------------------

    def publish(self, view: str, idf: "IndexedDataFrame") -> PinnedSnapshot:
        """Pin ``idf`` (one lineage-safe job) and atomically make it the
        served version of ``view`` (the catalog's spelling: lower-case) on
        every live shard. Readers of the previous pin are unaffected — they
        hold the partition objects of their version (MVCC)."""
        view = view.lower()
        pin = PinnedSnapshot.pin(idf)  # outside the barrier: may rebuild partitions
        # Barrier first, admin lock second: an in-flight query that sees a
        # shard die needs the admin lock to declare it dead, and the barrier
        # waits for that query — the other order never returns. Nothing that
        # holds the admin lock waits on the barrier.
        with self._publish_barrier(), self._admin_lock:
            idf.create_or_replace_temp_view(view)
            table = self._tables.get(view)  # kept across republish: repairs, quarantines
            if table is None or table.num_partitions != idf.num_partitions:
                table = RoutingTable(
                    idf.num_partitions, len(self.shards), self.config.replication_factor
                )
            self._pinned[view], self._tables[view] = pin, table
            for shard in self.shards:
                if shard.alive:
                    splits = table.splits_owned_by(shard.shard_id)
                    shard.install(view, pin.version, {s: pin.partitions[s] for s in splits})
        return pin

    def pinned(self, view: str) -> PinnedSnapshot:
        """The currently served snapshot of ``view``."""
        return self._pinned[view.lower()]

    def views(self) -> list[str]:
        return sorted(self._pinned)

    def routing_table(self, view: str) -> dict[int, list[int]]:
        """split -> ordered replica shards, as plain data (a copy)."""
        return self._tables[view.lower()].as_dict()

    # -- client surface ----------------------------------------------------------------

    def query(
        self, text: str, params: "Sequence[Any] | None" = None
    ) -> QueryResult:
        """Route one query; may raise a retryable :class:`ServeRejected`.

        :meth:`answer` plus what a bare router adds around it: shard-kill
        chaos and the ``serve_router_*`` counters.
        """
        if self._closed:
            raise ServeRejected("shutdown", retryable=False)
        self._inject_chaos()
        t0 = time.perf_counter()
        result = self.answer(text, params)
        result.total_seconds = time.perf_counter() - t0
        self.registry.inc("serve_router_queries_total", path=result.path)
        self.registry.observe(
            "serve_router_latency_seconds", result.total_seconds, path=result.path
        )
        if result.degraded:
            self.registry.inc("serve_degraded_results_total")
        return result

    def answer(self, text: str, params: "Sequence[Any] | None" = None) -> QueryResult:
        """Answer one query inside a publish-barrier slot, recording no
        router counters — what a :class:`QueryServer` worker calls."""
        gate = self._gate
        with gate:
            while self._publishing:
                gate.wait()
            self._active_queries += 1
        try:
            return self._dispatch(text, params)
        finally:
            with gate:
                self._active_queries -= 1
                if self._active_queries == 0 and self._publishing:
                    gate.notify_all()  # the publish barrier waits for this

    def shutdown(self) -> None:
        self._closed = True

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- health / failover -------------------------------------------------------------

    def live_shards(self) -> list[int]:
        return [i for i, h in enumerate(self._health) if h != DEAD and self.shards[i].alive]

    def shard_states(self) -> dict[int, str]:
        return {i: h for i, h in enumerate(self._health)}

    def check_health(self) -> dict[int, str]:
        """Heartbeat every shard, advancing the ALIVE → SUSPECT → DEAD
        state machine; declares (and repairs) deaths it discovers."""
        for i, shard in enumerate(self.shards):
            if self._health[i] == DEAD:
                continue
            try:
                shard.heartbeat()
            except ShardDown:
                with self._admin_lock:
                    self._heartbeat_misses[i] += 1
                    if (
                        self._heartbeat_misses[i] >= self.config.heartbeat_misses_to_dead
                        or self._health[i] == SUSPECT
                    ):
                        self._declare_dead(i, "missed heartbeats")
                    else:
                        self._health[i] = SUSPECT
                        self.registry.inc("serve_shard_suspects_total", shard=i)
            else:
                with self._admin_lock:
                    self._heartbeat_misses[i] = 0
                    if self._health[i] == SUSPECT:
                        self._health[i] = ALIVE
        return self.shard_states()

    def kill_shard(self, shard_id: int, reason: str = "manual") -> None:
        """Crash a shard (the kill-one-shard scenario's entry point)."""
        self.shards[shard_id].kill()
        self._declare_dead(shard_id, reason)

    def recover_shard(self, shard_id: int) -> None:
        """Restart a dead shard and re-install its owned partitions from the
        served pin (it holds every partition, verified by the last scrub)."""
        with self._admin_lock:
            shard = self.shards[shard_id]
            shard.restore()
            for view, pin in self._pinned.items():
                splits = self._tables[view].splits_owned_by(shard_id)
                shard.install(view, pin.version, {s: pin.partitions[s] for s in splits})
            self._health[shard_id] = ALIVE
            self._heartbeat_misses[shard_id] = 0
        self.context.metrics.record_recovery(
            "shard_recovered", detail=f"shard={shard_id}"
        )

    def repair(self, view: "str | None" = None) -> int:
        """Restore the replication factor after deaths by copying partitions
        from surviving replicas onto under-replicated shards; returns the
        number of (split, shard) installs performed."""
        installed = 0
        with self._admin_lock:
            live = set(self.live_shards())
            if not live:
                return 0
            views = [view] if view is not None else list(self._tables)
            for name in views:
                table = self._tables[name]
                per_shard: dict[int, dict[int, Any]] = {}
                for split in range(table.num_partitions):
                    owners = table.replicas(split)
                    live_owners = [s for s in owners if s in live]
                    if not live_owners or len(live_owners) >= table.replication_factor:
                        continue
                    source = self.shards[live_owners[0]].snapshot(name).parts.get(split)
                    if source is None:  # pragma: no cover - install raced a kill
                        continue
                    candidates = sorted(live - set(owners))
                    for target in candidates[
                        : table.replication_factor - len(live_owners)
                    ]:
                        table.add_replica(split, target)
                        per_shard.setdefault(target, {})[split] = source
                        installed += 1
                for target, parts in per_shard.items():
                    self.shards[target].install_partitions(name, parts)
        if installed:
            self.context.metrics.record_recovery(
                "shard_repaired", detail=f"installs={installed}"
            )
        return installed

    # -- internals: admission & chaos ---------------------------------------------------

    @contextmanager
    def _publish_barrier(self) -> Iterator[None]:
        with self._gate:
            while self._publishing:
                self._gate.wait()
            self._publishing = True
            while self._active_queries:
                self._gate.wait()
        try:
            yield
        finally:
            with self._gate:
                self._publishing = False
                self._gate.notify_all()

    def _inject_chaos(self) -> None:
        victim = self.context.faults.on_shard_route(
            next(self._route_ops), len(self.shards)
        )
        if victim is not None and self.shards[victim].alive:
            self.context.metrics.record_recovery(
                "chaos_shard_kill", detail=f"shard={victim}"
            )
            self.kill_shard(victim, reason="chaos")

    def _declare_dead(self, shard_id: int, reason: str) -> None:
        with self._admin_lock:
            already = self._health[shard_id] == DEAD
            self._health[shard_id] = DEAD
        if already:
            return
        self.context.metrics.record_recovery(
            "shard_lost", detail=f"shard={shard_id}: {reason}"
        )
        if self.config.auto_repair:
            self.repair()

    # -- internals: dispatch ------------------------------------------------------------

    def _dispatch(self, text: str, params: "Sequence[Any] | None") -> QueryResult:
        template, general = prepare_query(self.session, text, params)
        pin = self._pinned.get(template.view) if template is not None else None
        if pin is None:
            return QueryResult(general(), "general", None)
        if template.kind == "point":
            return self._run_point(template, pin, params)
        return self._run_fanout(template, pin, params)

    # -- internals: point path ----------------------------------------------------------

    def _run_point(
        self, template: ServeTemplate, pin: PinnedSnapshot, params: "Sequence[Any] | None"
    ) -> QueryResult:
        keys, residual = template.bind(params)
        table = self._tables[template.view]
        rows: list[tuple] = []
        missing: list[int] = []
        failovers = 0
        for key in keys:
            split = pin.partitioner.partition(key)
            key_rows, key_failovers = self._lookup_key(template.view, table, key, split)
            failovers += key_failovers
            if key_rows is None:
                missing.append(split)
            else:
                rows.extend(key_rows)
        return QueryResult(
            template.finish(rows, residual),
            "point",
            pin.version,
            degraded=bool(missing),
            missing_partitions=sorted(set(missing)),
            failovers=failovers,
        )

    def _lookup_key(
        self, view: str, table: RoutingTable, key: Any, split: int
    ) -> "tuple[list[tuple] | None, int]":
        """Route one key to a live replica of its split, failing over down
        the list. Returns (rows | None-if-no-live-replica, failovers)."""
        candidates = [s for s in table.replicas(split) if self._usable(s)]
        # Rotate across replicas so a split's reads spread over all its copies.
        if len(candidates) > 1:
            start = next(self._rr) % len(candidates)
            candidates = candidates[start:] + candidates[:start]
        rows, failovers = self._call_replicas(view, key, split, candidates)
        if rows is None:
            # Candidates list may have been stale; one more look post-failover.
            retry = [s for s in table.replicas(split) if self._usable(s)]
            if retry:
                rows, more = self._call_replicas(view, key, split, retry)
                failovers += more
        return rows, failovers

    def _usable(self, shard_id: int) -> bool:
        return self._health[shard_id] != DEAD and self.shards[shard_id].alive

    def _call_replicas(
        self, view: str, key: Any, split: int, candidates: list[int]
    ) -> "tuple[list[tuple] | None, int]":
        """Try replicas in order. Returns (rows | None when every candidate
        is dead, failovers)."""
        failovers = 0
        shed: "ServeRejected | None" = None
        for shard_id in candidates:
            if not self._usable(shard_id):
                continue
            try:
                return self.shards[shard_id].lookup(view, key, split), failovers
            except ShardDown as exc:
                self._failed_over(exc, f"key={key!r}", "observed on lookup")
                failovers += 1
            except PartitionNotOwned:
                failovers += 1
            except ServeRejected as exc:
                shed = exc
        if shed is not None:
            raise shed
        return None, failovers

    def _failed_over(self, exc: ShardDown, what: str, reason: str) -> None:
        """A data-path call found its shard dead: declare it, count it."""
        self._declare_dead(exc.shard_id, reason)
        self.registry.inc("serve_shard_failovers_total")
        self.context.metrics.record_recovery(
            "shard_failover", detail=f"shard={exc.shard_id} {what}"
        )

    # -- internals: range / scan fan-out ------------------------------------------------

    def _run_fanout(
        self, template: ServeTemplate, pin: PinnedSnapshot, params: "Sequence[Any] | None"
    ) -> QueryResult:
        """Send a range or a scan to one live replica per split and merge.

        Keys are hash-partitioned, so every split may hold members of a key
        range — a range fans out exactly like a scan, and the two differ
        only in the per-shard call (a range seeks each partition's ordered
        index instead of decoding every row). Assigned shards are called in
        turn on the caller's thread (DESIGN.md §14 records why there is no
        pool). A split whose shard dies or disowns it mid-call is
        re-assigned in the next round; one with no live replica left is
        reported missing.
        """
        view, kind = template.view, template.kind
        target, residual = template.bind(params)
        table = self._tables[view]
        remaining = list(range(table.num_partitions))
        rows: list[tuple] = []
        missing: list[int] = []
        failovers = 0
        rounds = 0
        while remaining and rounds <= len(self.shards):
            rounds += 1
            live = set(self.live_shards())
            assignment, no_replica = table.scan_assignment(remaining, live)
            missing.extend(no_replica)
            if not assignment:
                break
            remaining = []
            for shard_id, splits in assignment.items():
                shard = self.shards[shard_id]
                try:
                    if kind == "range":
                        rows.extend(shard.range_scan(view, splits, target, residual))
                    else:
                        rows.extend(shard.scan(view, splits, residual))
                except ShardDown as exc:
                    self._failed_over(exc, kind, f"observed on {kind}")
                    failovers += 1
                    remaining.extend(splits)
                except PartitionNotOwned:
                    failovers += 1
                    remaining.extend(splits)
        missing.extend(remaining)
        return QueryResult(
            # The residual already ran shard-side; only project/limit remain.
            template.finish(rows, None),
            kind,
            pin.version,
            degraded=bool(missing),
            missing_partitions=sorted(set(missing)),
            failovers=failovers,
        )

    # -- integrity: replica quarantine ---------------------------------------------------

    def quarantine_replica(self, view: str, split: int, exc: Exception) -> str:
        """Repair one split whose pinned copy failed a checksum audit.

        Every replica holding a copy that fails verification is dropped
        (from the shard *and* the routing table). When a surviving replica
        still verifies, its partition is the repair source
        (``"replica_copy"``); when none does, the damaged cached blocks are
        quarantined and the split is re-pinned from lineage
        (``"lineage_repin"`` — the rebuild cost lands on the cache
        manager's ``lineage_rebuild`` attribution, not double-counted
        here). Either way the served pin takes the verified copy of the
        split (same version: what :meth:`pinned` readers see) and the
        replication factor is restored before returning, so the
        zero-wrong-answers contract holds with no degraded window beyond
        this call.
        """
        from repro.integrity import CorruptBlockError, audit_partition

        with self._admin_lock:
            pin, table = self._pinned[view], self._tables[view]
            source = None
            for owner in list(table.replicas(split)):
                if not self._usable(owner):
                    continue
                try:
                    part = self.shards[owner].snapshot(view).parts.get(split)
                except PartitionNotOwned:
                    part = None
                if part is None:
                    continue
                try:
                    audit_partition(part, where="scrub")
                except CorruptBlockError:
                    self.shards[owner].drop_partition(view, split)
                    table.remove_replica(split, owner)
                    continue
                if source is None:
                    source = part
            if source is not None:
                how = "replica_copy"
            else:
                how = "lineage_repin"
                matched = self.context.quarantine_corrupt(exc)
                source = PinnedSnapshot.pin(pin.idf).partitions[split]
                if matched == 0:
                    # Nothing was cached: the re-pin itself is the repair
                    # (otherwise the cache manager's rebuild attributes it).
                    self.registry.inc("corruption_repaired_total", how="repin")
            pin.partitions[split] = source
            # Restore the replication factor with the verified source.
            installs: dict[int, Any] = {}
            for target in range(len(self.shards)):
                if len(table.replicas(split)) >= table.replication_factor:
                    break
                if not self._usable(target) or target in table.replicas(split):
                    continue
                table.add_replica(split, target)
                installs[target] = source
            for target in installs:
                self.shards[target].install_partitions(view, {split: source})
        return how

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShardRouter(shards={len(self.shards)}, live={self.live_shards()}, "
            f"views={self.views()})"
        )
