"""Block managers: per-executor in-memory caches plus the master registry.

Cached RDD partitions (including Indexed Batch RDD partitions — the cTrie,
row batches and back-pointers of Section III-C) live in the block manager
of the executor that computed them. The master tracks locations for
locality-aware scheduling; killing an executor (Fig. 12) removes its blocks
and forces lineage recomputation on next access.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.memory_manager import MemoryPressureError
from repro.engine.partition import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext
    from repro.engine.memory_manager import MemoryManager
    from repro.engine.rdd import RDD

BlockId = tuple[int, int]  # (rdd_id, partition_index)


class BlockManager:
    """One executor's block store, optionally metered by a
    :class:`~repro.engine.memory_manager.MemoryManager`.

    Without a memory manager (or with ``executor_memory_bytes == 0``) this
    is the original unbounded dict. Under a budget, ``put`` meters the
    block, degrades through spill/evict tiers, and raises the retryable
    ``MemoryPressureError`` when the block cannot fit (DESIGN.md §10).
    """

    def __init__(self, executor_id: str, memory: "MemoryManager | None" = None) -> None:
        self.executor_id = executor_id
        self._blocks: dict[BlockId, Any] = {}
        self._lock = threading.Lock()
        self.memory = memory

    def put(self, block_id: BlockId, value: Any) -> None:
        with self._lock:
            if self.memory is not None:
                self.memory.admit(block_id, value, self._blocks)
            else:
                self._blocks[block_id] = value

    def get(self, block_id: BlockId) -> Any | None:
        with self._lock:
            value = self._blocks.get(block_id)
            if value is not None and self.memory is not None:
                self.memory.on_access(block_id)
            return value

    def contains(self, block_id: BlockId) -> bool:
        with self._lock:
            return block_id in self._blocks

    def remove(self, block_id: BlockId) -> None:
        with self._lock:
            self._blocks.pop(block_id, None)
            if self.memory is not None:
                self.memory.on_remove(block_id, self._blocks)

    def clear(self) -> None:
        from repro.indexed.row_batch import discard_resident_files

        with self._lock:
            # Resident batches' spill regions are stale caches — drop them
            # now (a file goes with its last region); regions of
            # still-spilled batches go once the last sharing version drops.
            for value in self._blocks.values():
                discard_resident_files(value)
            self._blocks.clear()
            if self.memory is not None:
                self.memory.on_clear()

    def block_ids(self) -> list[BlockId]:
        with self._lock:
            return list(self._blocks)

    def used_bytes(self) -> int:
        """Metered bytes in the store (0 when unmetered)."""
        with self._lock:
            return self.memory.used_bytes if self.memory is not None else 0

    def pressure_storm(
        self,
        factor: float,
        job_index: int = -1,
        stage_id: "int | None" = None,
        partition: "int | None" = None,
    ) -> None:
        """Chaos entry point: shed down to ``factor`` of the budget now."""
        if self.memory is not None:
            self.memory.pressure_storm(
                factor,
                self._lock,
                self._blocks,
                job_index=job_index,
                stage_id=stage_id,
                partition=partition,
            )


class BlockManagerMaster:
    """Driver-side registry: block id -> executors holding it."""

    def __init__(self) -> None:
        self._locations: dict[BlockId, list[str]] = {}
        #: Blocks whose last replica is gone — died with its executor or was
        #: evicted under memory pressure — consulted by the CacheManager to
        #: attribute recomputation cost to recovery.
        self._lost: set[BlockId] = set()
        #: Blocks quarantined after a checksum mismatch (a subset of the
        #: lost set, kept separately so the rebuild can be attributed to
        #: corruption repair rather than plain recovery).
        self._corrupt: set[BlockId] = set()
        self._lock = threading.Lock()

    def register(self, block_id: BlockId, executor_id: str) -> None:
        with self._lock:
            locs = self._locations.setdefault(block_id, [])
            if executor_id not in locs:
                locs.append(executor_id)
            self._lost.discard(block_id)
            self._corrupt.discard(block_id)

    def locations(self, block_id: BlockId) -> list[str]:
        with self._lock:
            return list(self._locations.get(block_id, ()))

    def remove_executor(self, executor_id: str) -> list[BlockId]:
        """Forget all blocks held (only) by a dead executor; return those lost."""
        lost: list[BlockId] = []
        with self._lock:
            for block_id, locs in list(self._locations.items()):
                if executor_id in locs:
                    locs.remove(executor_id)
                    if not locs:
                        lost.append(block_id)
                        del self._locations[block_id]
                        self._lost.add(block_id)
        return lost

    def mark_evicted(self, block_id: BlockId, executor_id: str) -> None:
        """One executor dropped the block under memory pressure. When that
        was the last replica, the block joins the lost set so its eventual
        recompute is attributed (``block_recomputed``) like any recovery."""
        with self._lock:
            locs = self._locations.get(block_id)
            if locs is not None and executor_id in locs:
                locs.remove(executor_id)
                if not locs:
                    del self._locations[block_id]
                    self._lost.add(block_id)

    def mark_corrupt(self, block_id: BlockId) -> bool:
        """Quarantine: a checksum mismatch implicated this block. *Every*
        location is dropped (unlike an eviction, no replica can be trusted
        — MVCC copies share the damaged batch object), and the block joins
        both the lost set (so the rebuild is recovery-attributed) and the
        corrupt set (so it is attributed as a corruption repair). False
        when the block was marked already, its rebuild still pending."""
        with self._lock:
            self._locations.pop(block_id, None)
            self._lost.add(block_id)
            fresh = block_id not in self._corrupt
            self._corrupt.add(block_id)
            return fresh

    def was_corrupt(self, block_id: BlockId) -> bool:
        """True when the block was quarantined for corruption and not yet
        rebuilt anywhere."""
        with self._lock:
            return block_id in self._corrupt

    def was_lost(self, block_id: BlockId) -> bool:
        """True when the block's last replica died and it has not yet been
        recomputed anywhere (recovery-cost attribution)."""
        with self._lock:
            return block_id in self._lost

    def remove_rdd_block(self, block_id: BlockId) -> None:
        with self._lock:
            self._locations.pop(block_id, None)

    def remove_rdd(self, rdd_id: int) -> None:
        with self._lock:
            for block_id in [b for b in self._locations if b[0] == rdd_id]:
                del self._locations[block_id]


class CacheManager:
    """Cache-aware partition access: get the block or compute-and-store it.

    This is the recomputation entry point of the fault-tolerance design: a
    lost cached partition simply misses here and is rebuilt from lineage
    (`rdd.compute`), then re-registered at its new executor.
    """

    def __init__(self, context: "EngineContext") -> None:
        self._context = context
        # Per-block locks so concurrent tasks don't compute a partition
        # twice: ``[lock, tasks holding or waiting for it]``, dropped by the
        # last of those tasks, so only blocks in use keep one.
        self._compute_locks: dict[BlockId, list] = {}
        self._guard = threading.Lock()

    @contextmanager
    def _computing(self, block_id: BlockId) -> Iterator[None]:
        """Hold ``block_id``'s compute lock."""
        with self._guard:
            entry = self._compute_locks.get(block_id)
            if entry is None:
                entry = self._compute_locks[block_id] = [threading.Lock(), 0]
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._guard:
                entry[1] -= 1
                if not entry[1]:
                    del self._compute_locks[block_id]

    def get_or_compute(self, rdd: "RDD", split: int, ctx: TaskContext) -> Iterator[Any]:
        block_id: BlockId = (rdd.rdd_id, split)
        ctxm = self._context
        with self._computing(block_id):
            # 1. Local hit.
            local = ctxm.executor_runtime(ctx.executor_id).block_manager
            value = local.get(block_id)
            if value is not None:
                ctxm.registry.inc("cache_hits_total", level="local")
                ctxm.advisor.note_block_access(block_id)
                return iter(value)
            # 2. Remote hit: fetch from another live executor (accounted).
            for executor_id in ctxm.block_manager_master.locations(block_id):
                runtime = ctxm.executor_runtime(executor_id, allow_dead=True)
                if runtime is None or not runtime.alive:
                    continue
                value = runtime.block_manager.get(block_id)
                if value is not None:
                    nbytes = getattr(value, "nbytes", None)
                    if nbytes is None:
                        from repro.engine.shuffle import estimate_size

                        nbytes = estimate_size(value if isinstance(value, list) else [value])
                    if ctxm.topology.same_machine(executor_id, ctx.executor_id):
                        ctx.shuffle_bytes_read_local += nbytes
                    else:
                        ctx.shuffle_bytes_read_remote += nbytes
                    ctxm.registry.inc("cache_hits_total", level="remote")
                    ctxm.advisor.note_block_access(block_id)
                    return iter(value)
            ctxm.registry.inc("cache_misses_total")
            # 3. Miss: compute from lineage, store locally, register. A miss
            # on a block whose replica died with its executor is *recovery*
            # work — record its cost against the in-flight job (this is the
            # index-recreation spike a Fig. 12 run attributes per query).
            was_lost = ctxm.block_manager_master.was_lost(block_id)
            was_corrupt = ctxm.block_manager_master.was_corrupt(block_id)
            t0 = time.perf_counter()
            materialized = list(rdd.compute(split, ctx))
            elapsed = time.perf_counter() - t0
            ctxm.registry.observe("block_compute_seconds", elapsed)
            # Feed the advisor's cost model: measured per-block rebuild cost
            # plus the block's lineage depth (DESIGN.md §17).
            ctxm.advisor.note_block_compute(block_id, rdd, elapsed)
            try:
                local.put(block_id, materialized)
            except MemoryPressureError:
                if getattr(rdd, "advisor_cached", False):
                    # Advisor-initiated caching is best-effort: the block
                    # does not fit, so serve the rows uncached — the query
                    # must not fail because of a cache the user never
                    # asked for (DESIGN.md §17).
                    ctxm.registry.inc("cache_advisor_put_skipped_total")
                    return iter(materialized)
                # Backpressure: the budget is exhausted and shedding could
                # not make room. Propagate retryably — the task scheduler
                # backs off, draws on the stage attempt budget, and
                # blacklists this executor, so the retry lands where there
                # is room (the append-path flow control of DESIGN.md §10).
                ctxm.registry.inc("memory_pressure_errors_total", executor=ctx.executor_id)
                raise
            ctxm.block_manager_master.register(block_id, ctx.executor_id)
            if was_lost:
                ctxm.metrics.record_recovery(
                    "block_recomputed",
                    job_index=ctx.job_index,
                    stage_id=ctx.stage_id,
                    partition=split,
                    executor_id=ctx.executor_id,
                    seconds=elapsed,
                    detail=f"rdd={rdd.rdd_id}",
                )
            if was_corrupt:
                # The quarantined block now exists again with fresh bytes:
                # this is the lineage half of the detect -> repair contract.
                ctxm.registry.inc("corruption_repaired_total", how="lineage_rebuild")
                ctxm.metrics.record_recovery(
                    "corrupt_block_rebuilt",
                    job_index=ctx.job_index,
                    stage_id=ctx.stage_id,
                    partition=split,
                    executor_id=ctx.executor_id,
                    seconds=elapsed,
                    detail=f"rdd={rdd.rdd_id}",
                )
            return iter(materialized)
