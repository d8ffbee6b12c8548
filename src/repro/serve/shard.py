"""Serve shards: per-shard pinned partitions, admission, and failure modes.

One :class:`ShardServer` is the shard-local half of the serve tier
(DESIGN.md §14): pinned partitions, admission control, retryable shedding
and per-shard latency accounting, scoped to *only the partitions the shard
owns* under the engine's hash partitioner. The SQL front end (planning,
routing, merging, failover) lives in :class:`~repro.serve.router.ShardRouter`
— a :class:`~repro.serve.server.QueryServer` reads through a one-shard
router — and a shard exposes one data-plane verb, :meth:`ShardServer.read`:
run a plan leaf's read of one partition against the pinned copy of a split
the shard owns. The router reads each split from exactly one live replica,
so replication never duplicates rows.

Failure modes are explicit and typed, because the router's failover state
machine keys off them:

* :class:`ShardDown` — the shard process is dead (killed by chaos, the
  kill-one-shard scenario, or a missed-heartbeat declaration). The router
  fails over to the next live replica; the client never sees this.
* :class:`PartitionNotOwned` — the routing table and the shard disagree
  (a repair or quarantine raced the query). Also handled by failover.
* :class:`ServeRejected` (``shard_overloaded``) — the shard's admission
  gate shed the call; retryable backpressure, surfaced to the client as
  shed load exactly like a front end's own admission rejections.

Capacity is modeled, not real: ``ShardConfig.service_time`` seconds of
simulated work are paid under a per-shard service lock, so a shard behaves
like a single-core server (~1/service_time qps). Nothing in the repo sets
it above 0.0 any more; the field and its branch in :meth:`ShardServer.read`
stay because the repo benchmark passes the keyword (ROADMAP item 1(a)).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext


class ServeRejected(RuntimeError):
    """Admission control refused the query.

    ``retryable`` rejections mean "back off and resend"; only ``shutdown``
    is final. Rejections are the serve tier's *only* degraded mode besides
    a router's flagged partial answers — it sheds load rather than degrade
    answers.
    """

    def __init__(self, reason: str, detail: str = "", retryable: bool = True) -> None:
        message = f"query rejected ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.reason = reason
        self.retryable = retryable


class ShardDown(RuntimeError):
    """The shard is dead; the caller must fail over to a replica."""

    def __init__(self, shard_id: int, detail: str = "") -> None:
        message = f"shard {shard_id} is down"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.shard_id = shard_id


class PartitionNotOwned(RuntimeError):
    """The shard does not hold the requested partition (routing raced a
    repair or quarantine); the caller retries on a replica that does."""

    def __init__(self, shard_id: int, view: str, split: int) -> None:
        super().__init__(f"shard {shard_id} does not own {view}[{split}]")
        self.shard_id = shard_id
        self.view = view
        self.split = split


@dataclass
class ShardConfig:
    """Shard-local tunables."""

    #: Concurrent calls a shard accepts before shedding (``shard_overloaded``).
    max_inflight: int = 32
    #: Simulated seconds of service time per point read, paid under the
    #: shard's service lock (0.0 = no modelled capacity; a positive value
    #: models a single-core shard).
    service_time: float = 0.0


class ShardSnapshot:
    """The shard-local fraction of one pinned view: ``{split: partition}``.

    Partitions come from the same MVCC-versioned, immutable
    :class:`~repro.indexed.partition.IndexedPartition` objects a full
    :class:`~repro.serve.snapshot.PinnedSnapshot` pins — holding a subset
    is exactly as safe as holding all of them (each partition is an
    independent read anchor; the router's hash of a key names the one split
    it lives in without consulting the others).
    """

    __slots__ = ("parts", "version", "view")

    def __init__(self, view: str, version: int, parts: dict[int, Any]):
        self.view = view
        self.version = version
        self.parts = dict(parts)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShardSnapshot({self.view}, v={self.version}, "
            f"splits={sorted(self.parts)})"
        )


class ShardServer:
    """One serve shard: pinned partition subset + admission + health."""

    def __init__(
        self,
        shard_id: int,
        context: "EngineContext",
        config: "ShardConfig | None" = None,
    ) -> None:
        self.shard_id = shard_id
        self.context = context
        self.config = config or ShardConfig()
        self.registry = context.registry
        self.faults = context.faults
        self._snapshots: dict[str, ShardSnapshot] = {}
        self._lock = threading.Lock()
        #: Serializes simulated service time: a shard is a single-core
        #: server, so its capacity is ~1/service_time qps.
        self._service_lock = threading.Lock()
        #: One entry per call in flight: admission appends under ``_lock``, a
        #: finished call pops without it (``list.pop`` is atomic), so the
        #: count never exceeds ``max_inflight``.
        self._inflight: list[None] = []
        #: op -> (requests counter key, latency histogram key), built once.
        self._series: dict[str, tuple] = {}
        self._alive = True

    # -- data plane -----------------------------------------------------------------

    def install(self, view: str, version: int, parts: dict[int, Any]) -> None:
        """Install (or replace) this shard's fraction of ``view`` at
        ``version``. Called by the router on publish and recovery."""
        with self._lock:
            self._snapshots[view] = ShardSnapshot(view, version, parts)
        self.registry.set_gauge(
            "serve_shard_pinned_version", float(version), shard=self.shard_id, view=view
        )
        self.registry.set_gauge(
            "serve_shard_partitions", float(len(parts)), shard=self.shard_id, view=view
        )

    def install_partitions(self, view: str, parts: dict[int, Any]) -> None:
        """Add partitions to an existing snapshot (repair / quarantine)."""
        with self._lock:
            snap = self._snapshots[view]
            merged = dict(snap.parts)
            merged.update(parts)
            self._snapshots[view] = ShardSnapshot(view, snap.version, merged)
        self.registry.set_gauge(
            "serve_shard_partitions", float(len(merged)), shard=self.shard_id, view=view
        )

    def drop_partition(self, view: str, split: int) -> Any:
        """Quarantine: drop one pinned partition (it failed a checksum
        audit); subsequent reads of the split raise
        :class:`PartitionNotOwned` until a verified copy is re-installed.
        Returns the dropped partition (None when not held)."""
        with self._lock:
            snap = self._snapshots.get(view)
            if snap is None or split not in snap.parts:
                return None
            remaining = dict(snap.parts)
            dropped = remaining.pop(split)
            self._snapshots[view] = ShardSnapshot(view, snap.version, remaining)
        self.registry.set_gauge(
            "serve_shard_partitions", float(len(remaining)), shard=self.shard_id, view=view
        )
        return dropped

    def snapshot(self, view: str) -> ShardSnapshot:
        with self._lock:
            snap = self._snapshots.get(view)
        if snap is None:
            raise PartitionNotOwned(self.shard_id, view, -1)
        return snap

    def read(
        self, view: str, split: int, fn: "Callable[[Any], list[tuple]]", op: str = "lookup"
    ) -> list[tuple]:
        """``fn(partition)`` of this shard's pinned partition of ``split`` —
        the one data-plane verb: the router's partition source calls it with
        the plan leaf's read of one partition (a key lookup, a range seek, a
        scan), under admission, injected delays and the death checks; ``op``
        names that read in the shard's counters. A point read
        (``op="lookup"``) pays ``ShardConfig.service_time``."""
        if not self._alive:
            raise ShardDown(self.shard_id)
        delay = self.faults.on_shard_call(self.shard_id)
        inflight = self._inflight
        with self._lock:
            if len(inflight) >= self.config.max_inflight:
                self.registry.inc("serve_shard_shed_total", shard=self.shard_id)
                raise ServeRejected(
                    "shard_overloaded",
                    f"shard {self.shard_id} at {len(inflight)} inflight",
                )
            inflight.append(None)
            snap = self._snapshots.get(view)
        t0 = time.perf_counter()
        try:
            if delay:
                time.sleep(delay)
            part = snap.parts.get(split) if snap is not None else None
            if part is None:
                raise PartitionNotOwned(self.shard_id, view, split)
            service = self.config.service_time if op == "lookup" else 0.0
            if service:
                with self._service_lock:
                    if not self._alive:  # died while queued for service
                        raise ShardDown(self.shard_id, "died mid-service")
                    time.sleep(service)
                    rows = fn(part)
            else:
                rows = fn(part)
            if not self._alive:
                # Killed mid-call: the answer is from an immutable snapshot
                # (so it could never be wrong), but a real crashed process
                # never responds — model that.
                raise ShardDown(self.shard_id, "died mid-call")
            return rows
        finally:
            inflight.pop()
            series = self._series.get(op)
            if series is None:
                series = self._series[op] = (
                    self.registry.key("serve_shard_requests_total", shard=self.shard_id, op=op),
                    self.registry.key("serve_shard_latency_seconds", shard=self.shard_id),
                )
            self.registry.count_and_observe(*series, time.perf_counter() - t0)

    # -- health / lifecycle ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def heartbeat(self) -> dict[str, Any]:
        """Cheap health probe; raises :class:`ShardDown` when dead."""
        if not self._alive:
            raise ShardDown(self.shard_id, "no heartbeat")
        with self._lock:
            versions = {v: s.version for v, s in self._snapshots.items()}
        return {
            "shard": self.shard_id,
            "time": time.perf_counter(),
            "inflight": len(self._inflight),
            "versions": versions,
        }

    def kill(self) -> None:
        """Crash the shard: every current and future call raises
        :class:`ShardDown` and the pinned snapshots are dropped (a restart
        re-pins, it does not resurrect state)."""
        self._alive = False
        with self._lock:
            self._snapshots.clear()
        self.registry.inc("serve_shard_deaths_total", shard=self.shard_id)

    def restore(self) -> None:
        """Restart the shard process (empty: the router must re-install)."""
        self._alive = True

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShardServer(id={self.shard_id}, alive={self._alive}, "
            f"views={sorted(self._snapshots)})"
        )


class RoutingTable:
    """split -> ordered replica shards (primary first).

    Placement reuses the engine's hash-partitioner arithmetic: split ``s``'s
    primary is ``s % num_shards`` and its replicas are the next shards
    round-robin — the same data-distribution alignment argument as
    shard-key-aligned RDF partitioning (PAPERS.md): key → split is the
    *engine's* hash function, split → shard is this table, so the router
    and every index agree about placement with no per-key metadata.

    The table is copy-on-write under a lock: readers grab the owner list
    reference without locking; repairs and quarantines swap in new lists.
    """

    def __init__(
        self, num_partitions: int, num_shards: int, replication_factor: int = 2
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_partitions = num_partitions
        self.num_shards = num_shards
        self.replication_factor = max(1, min(replication_factor, num_shards))
        self._lock = threading.Lock()
        self._owners: list[list[int]] = [
            [(s + k) % num_shards for k in range(self.replication_factor)]
            for s in range(num_partitions)
        ]

    def replicas(self, split: int) -> list[int]:
        """Ordered replica shards for ``split`` (primary first)."""
        return list(self._owners[split])

    def splits_owned_by(self, shard_id: int) -> list[int]:
        return [s for s, owners in enumerate(self._owners) if shard_id in owners]

    def add_replica(self, split: int, shard_id: int) -> bool:
        """Record that ``shard_id`` now holds ``split`` (repair); returns
        False when it already did."""
        with self._lock:
            owners = self._owners[split]
            if shard_id in owners:
                return False
            self._owners[split] = owners + [shard_id]
            return True

    def remove_replica(self, split: int, shard_id: int) -> bool:
        """Forget that ``shard_id`` holds ``split`` (its copy was dropped —
        corruption quarantine); returns False when it never did."""
        with self._lock:
            owners = self._owners[split]
            if shard_id not in owners:
                return False
            self._owners[split] = [s for s in owners if s != shard_id]
            return True

    def as_dict(self) -> dict[int, list[int]]:
        """The routing table as plain data (docs, debugging, benchmarks)."""
        with self._lock:
            return {s: list(owners) for s, owners in enumerate(self._owners)}

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RoutingTable(partitions={self.num_partitions}, "
            f"shards={self.num_shards}, rf={self.replication_factor})"
        )
