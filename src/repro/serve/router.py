"""ShardRouter: the read path of the serve tier, over N replicated shards.

DESIGN.md §14. Every served read goes through a router — a
:class:`~repro.serve.server.QueryServer` is admission control in front of a
router with one shard. The router owns the control plane the shards
deliberately don't have:

* **Routing.** A query is planned by the session (a prepared statement,
  kept per text until the catalog changes, is planned once and bound per
  call). When the plan's leaf is an indexed read of a view this router
  serves — a *point* lookup, a *range* seek or a *scan*, under filters,
  projections and a ``LIMIT`` — the router runs that plan's direct read
  with itself as the partition source: each split goes, through the
  :class:`~repro.serve.shard.RoutingTable`, to one live replica, rotating
  over them, on the caller's thread. No job, no ``job_lock``. Everything
  else is answered by the session's pipeline (``path="general"``).
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
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.indexed.operators import IndexedLeafExec
from repro.integrity import CorruptBlockError, audit_partition
from repro.serve.shard import (
    PartitionNotOwned,
    RoutingTable,
    ServeRejected,
    ShardConfig,
    ShardDown,
    ShardServer,
)
from repro.serve.snapshot import PinnedSnapshot
from repro.sql.physical import RowwiseExec

if TYPE_CHECKING:  # pragma: no cover
    from repro.indexed.indexed_dataframe import IndexedDataFrame
    from repro.sql.prepared import PreparedStatement
    from repro.sql.session import Session

#: Shard health states (the failover state machine).
ALIVE, SUSPECT, DEAD = "alive", "suspect", "dead"

#: Prepared statements a router keeps by query text; past this many texts
#: the memo starts over (the session's plan cache holds as many plans).
MAX_STATEMENTS = 256


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
        #: Query text -> its prepared statement, re-prepared when the
        #: catalog's epoch moves (a publish, any DDL), not per read.
        self._statements: "dict[str, PreparedStatement]" = {}
        #: Per path: the ``serve_router_*`` series keys (built once).
        self._series: "dict[str, tuple[Any, Any]]" = {}
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
        path, key = result.path, self.registry.key
        if path not in self._series:
            self._series[path] = (key("serve_router_queries_total", path=path),
                                  key("serve_router_latency_seconds", path=path))
        self.registry.count_and_observe(*self._series[path], result.total_seconds)
        if result.degraded:
            self.registry.inc("serve_degraded_results_total")
        return result

    def answer(self, text: str, params: "Sequence[Any] | None" = None) -> QueryResult:
        """Answer one query inside a publish-barrier slot, recording no
        router counters — what a :class:`QueryServer` calls."""
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
        """Plan ``text`` through the session's plan cache (a prepared
        statement's plan bound to ``params``) and read it from the shards
        when its leaf is an indexed read of a view this router serves; the
        session's pipeline answers anything else."""
        session = self.session
        if params is None:
            logical = session.sql_logical(text)
            physical = session.plan_physical(logical)
        else:
            physical = self._statement(text).plan(params)
        leaf = physical
        while isinstance(leaf, RowwiseExec):
            leaf = leaf.child
        pin = self._pinned.get(leaf.view) if isinstance(leaf, IndexedLeafExec) else None
        if pin is None:
            rows = session.execute(logical if params is None else physical)
            return QueryResult(rows, "general", None)
        source = _ShardPartitions(self, leaf.view, pin)
        return QueryResult(
            list(physical.direct_rows(source)),
            leaf.kind,
            pin.version,
            degraded=bool(source.missing),
            missing_partitions=sorted(set(source.missing)),
            failovers=source.failovers,
        )

    def _statement(self, text: str) -> "PreparedStatement":
        """``text`` prepared once per catalog epoch: a read of a known text
        costs no normalising, no plan-cache lookup and no new statement."""
        statement = self._statements.get(text)
        if statement is None or statement.entry.epoch != self.session.catalog.epoch:
            if len(self._statements) >= MAX_STATEMENTS:
                self._statements.clear()
            statement = self._statements[text] = self.session.prepare(text)
        return statement

    def _usable(self, shard_id: int) -> bool:
        return self._health[shard_id] != DEAD and self.shards[shard_id].alive

    def _read_split(
        self, view: str, split: int, fn: "Callable[[Any], list[tuple]]", op: str
    ) -> "tuple[list[tuple] | None, int]":
        """``fn`` of ``split``'s partition on a live replica, rotating over
        them so a split's reads spread over all its copies, failing over
        down the list. Returns (rows | None when no replica is left,
        failovers); a shed call surfaces only when no other replica took
        the read."""
        failovers = 0
        for _ in range(2):  # the second look sees replicas a failover repaired
            candidates = [s for s in self._tables[view].replicas(split) if self._usable(s)]
            if len(candidates) > 1:
                start = next(self._rr) % len(candidates)
                candidates = candidates[start:] + candidates[:start]
            shed: "ServeRejected | None" = None
            for shard_id in candidates:
                if not self._usable(shard_id):
                    continue
                try:
                    return self.shards[shard_id].read(view, split, fn, op), failovers
                except ShardDown as exc:
                    self._failed_over(exc, f"{view}[{split}]", f"observed on {op}")
                    failovers += 1
                except PartitionNotOwned:
                    failovers += 1
                except ServeRejected as exc:
                    shed = exc
                except CorruptBlockError as exc:
                    # A damaged copy (a corrupt spill file faulting in):
                    # repaired as the scrubber repairs it, then read again.
                    self.registry.inc("corruption_detected_total", where=exc.where)
                    if self.quarantine_replica(view, split, exc) == "replica_copy":
                        self.registry.inc("corruption_repaired_total", how="replica_copy")
                    break
            if shed is not None:
                raise shed
            if not candidates:
                break
        return None, failovers

    def _failed_over(self, exc: ShardDown, what: str, reason: str) -> None:
        """A data-path call found its shard dead: declare it, count it."""
        self._declare_dead(exc.shard_id, reason)
        self.registry.inc("serve_shard_failovers_total")
        self.context.metrics.record_recovery(
            "shard_failover", detail=f"shard={exc.shard_id} {what}"
        )

    # -- integrity: replica quarantine ---------------------------------------------------

    def quarantine_replica(self, view: str, split: int, exc: Exception) -> str:
        """Repair one split whose pinned copy failed a checksum audit.

        Every replica holding a copy that fails verification is dropped
        (from the shard *and* the routing table). When a surviving replica
        still verifies, its partition is the repair source
        (``"replica_copy"``); when none does, the damaged cached blocks are
        quarantined and the split is re-pinned from lineage
        (``"lineage_repin"`` — the repair is counted by
        :meth:`~repro.engine.context.EngineContext.quarantine_corrupt` or the
        cache manager's rebuild, not here). Either way the served pin takes
        the verified copy of the split (same version: what :meth:`pinned`
        readers see) and the replication factor is restored before
        returning, so the zero-wrong-answers contract holds with no degraded
        window beyond this call.
        """
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
                self.context.quarantine_corrupt(exc)
                source = PinnedSnapshot.pin(pin.idf).partitions[split]
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
        return f"ShardRouter(shards={len(self.shards)}, live={self.live_shards()}, views={self.views()})"


class _ShardPartitions:
    """A router's partition source for a plan's direct read (DESIGN.md §14,
    ``repro.indexed.operators``): the router's pin of one view, each split
    read on a live replica of it. Splits with no live replica are skipped
    and listed in ``missing`` — the answer is then partial and flagged,
    never silently wrong."""

    def __init__(self, router: ShardRouter, view: str, pin: PinnedSnapshot) -> None:
        self.router = router
        self.view = view
        self.partitioner = pin.partitioner
        self.missing: list[int] = []
        self.failovers = 0

    def read(
        self, work: "list[tuple[int, Any]]", read: "Callable[[Any, Any], list[tuple]]", name: str
    ) -> Iterator[list[tuple]]:
        for split, arg in work:
            rows, failovers = self.router._read_split(
                self.view, split, lambda part, arg=arg: read(part, arg), name
            )
            self.failovers += failovers
            if rows is None:
                self.missing.append(split)
            else:
                yield rows
