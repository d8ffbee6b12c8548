"""Background snapshot scrubber: proactive integrity for the serve tier.

Trust-boundary verification (DESIGN.md §16) catches corruption when bytes
*move* — spill fault-in, worker attach, shuffle fetch, snapshot pin. A
pinned snapshot that just sits in memory serving lookups crosses none of
those boundaries, so silent damage to its batches would only surface when a
query happened to decode the flipped bytes. The scrubber closes that gap:
it periodically re-verifies every pinned partition's checksums and repairs
what it finds *before* a client read can observe it.

There is one repair path. The target is a
:class:`~repro.serve.router.ShardRouter`, or a
:class:`~repro.serve.server.QueryServer`, scrubbed through the one-shard
router it reads from: each view's splits are audited once (replicas share
the pinned MVCC objects), and a mismatch is repaired through
:meth:`~repro.serve.router.ShardRouter.quarantine_replica` — surviving
verified replica first, lineage re-pin as the last resort.

Every cycle runs under a ``scrub`` tracer span and feeds the
``scrub_cycles_total`` / ``scrub_partitions_verified_total`` /
``corruption_detected_total{where=scrub}`` counters, so a chaos run can
assert the detect → repair ledger balances.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.integrity import CorruptBlockError, audit_partition
from repro.serve.shard import PartitionNotOwned


class SnapshotScrubber:
    """Re-verify pinned snapshots on a serve target; repair on mismatch."""

    def __init__(self, target: Any, interval: float = 0.0) -> None:
        #: The router to audit: ``target`` itself, or a QueryServer's own.
        self.router = getattr(target, "router", target)
        self.context = self.router.context
        #: Seconds between background cycles; 0 keeps scrubbing manual
        #: (:meth:`scrub_once`).
        self.interval = interval
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    # -- one cycle --------------------------------------------------------------------

    def scrub_once(self) -> dict[str, int]:
        """Audit every pinned partition once; returns cycle counters."""
        registry = self.context.registry
        span = self.context.tracer.start_span("scrub", kind="scrub")
        with span:
            stats = self._scrub()
            span.set_attr("found", stats["found"])
            span.set_attr("verified", stats["verified"])
        registry.inc("scrub_cycles_total")
        registry.inc("scrub_partitions_verified_total", stats["partitions"])
        return stats

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "SnapshotScrubber":
        """Start the background daemon (no-op when ``interval`` <= 0)."""
        if self.interval <= 0 or self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="snapshot-scrubber", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SnapshotScrubber":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scrub_once()
            except Exception:
                # A scrub cycle must never take the serve tier down; the
                # next cycle retries (and the counter records the miss).
                self.context.registry.inc("scrub_errors_total")

    # -- the audit --------------------------------------------------------------------

    def _scrub(self) -> dict[str, int]:
        """Audit each split once (replicas share the pinned objects);
        repair through the router's replica quarantine."""
        router = self.router
        stats = {"partitions": 0, "verified": 0, "anchored": 0, "found": 0, "repaired": 0}
        for view in router.views():
            for split, owners in router.routing_table(view).items():
                part = self._split_partition(router, view, owners, split)
                if part is None:
                    continue
                stats["partitions"] += 1
                try:
                    verified, anchored = audit_partition(part, where="scrub")
                    stats["verified"] += verified
                    stats["anchored"] += anchored
                except CorruptBlockError as exc:
                    self._found(view, split, exc, stats)
                    how = router.quarantine_replica(view, split, exc)
                    if how == "replica_copy":
                        self.context.registry.inc(
                            "corruption_repaired_total", how="replica_copy"
                        )
                    self._repaired(view, split, how, stats)
        return stats

    @staticmethod
    def _split_partition(router: Any, view: str, owners: list[int], split: int) -> Any:
        for owner in owners:
            if not router._usable(owner):
                continue
            try:
                part = router.shards[owner].snapshot(view).parts.get(split)
            except PartitionNotOwned:
                part = None
            if part is not None:
                return part
        return None

    # -- accounting -------------------------------------------------------------------

    def _found(self, view: str, split: int, exc: Exception, stats: dict[str, int]) -> None:
        stats["found"] += 1
        self.context.registry.inc("corruption_detected_total", where="scrub")
        self.context.metrics.record_recovery(
            "scrub_corruption_found", partition=split, detail=f"view={view}: {exc}"
        )

    def _repaired(self, view: str, split: int, how: str, stats: dict[str, int]) -> None:
        stats["repaired"] += 1
        self.context.metrics.record_recovery(
            "scrub_corruption_repaired", partition=split, detail=f"view={view} how={how}"
        )
