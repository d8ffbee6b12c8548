"""Per-executor memory budgets: metering, tiered spill/eviction, backpressure.

The paper's Indexed DataFrame is an *in-memory* cache; this module keeps an
executor's block store inside a byte budget instead of OOM-ing (DESIGN.md §10):

* **Metering** — a :class:`~repro.utils.memory.Ledger` of the blocks' parts,
  charged in LRU order so MVCC versions sharing structure count it once.
* **Tier 1, spill** — sealed row batches of the coldest blocks go to disk in
  place, one file per block spilled
  (:func:`repro.indexed.row_batch.spill_partition`), so every version
  sharing a batch sees the spill; indexes stay queryable.
* **Tier 2, evict** — whole blocks go, LRU or lowest value density first
  (``eviction_policy="cost"``, DESIGN.md §17), rebuilt from lineage on request.
* **Backpressure** — a put that cannot fit raises the retryable
  :class:`MemoryPressureError`; **chaos** — :meth:`MemoryManager.pressure_storm`.

Everything feeds the registry (bytes cached/spilled/evicted/faulted-back) and
the recovery events ``block_spilled`` / ``block_evicted`` / ``memory_pressure``
/ ``chaos_memory_squeeze``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.utils.memory import Ledger

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext

BlockId = tuple[int, int]  # (rdd_id, partition_index)

EVICTION_POLICIES = ("lru", "cost")


class MemoryPressureError(RuntimeError):
    """The executor's block budget is exhausted and eviction could not free
    enough. *Retryable*: the scheduler backs off and retries elsewhere."""

    def __init__(self, executor_id: str, needed: int, budget: int, used: int) -> None:
        super().__init__(
            f"executor {executor_id}: block of {needed} B cannot fit budget "
            f"{budget} B ({used} B in use after spill/evict)"
        )
        self.executor_id, self.needed, self.budget, self.used = executor_id, needed, budget, used


class MemoryManager:
    """Budget enforcement for one executor's block store; every mutating call
    comes under the owning ``BlockManager``'s lock."""

    def __init__(self, context: "EngineContext", executor_id: str) -> None:
        cfg = context.config
        self.context = context
        self.executor_id = executor_id
        self.budget = max(0, int(cfg.executor_memory_bytes))
        self.spill_dir = cfg.spill_dir
        self.policy = cfg.eviction_policy
        if self.policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction_policy {self.policy!r} (expected one of {EVICTION_POLICIES})"
            )
        #: Without a budget every hook is a no-op until a chaos squeeze
        #: starts metering (:meth:`pressure_storm`).
        self.enabled = self.budget > 0
        #: block id -> charged bytes, in LRU order (oldest first).
        self._sizes: "dict[BlockId, int]" = {}
        self._ledger = Ledger()
        self._used = 0
        #: Serializes pressure storms against concurrent admits.
        self._storm_lock = threading.Lock()

    @property
    def used_bytes(self) -> int:
        return self._used

    def block_sizes(self) -> "dict[BlockId, int]":
        return dict(self._sizes)

    def _publish_gauge(self) -> None:
        self.context.registry.set_gauge(
            "memory_bytes_cached", float(self._used), executor=self.executor_id
        )

    def _settle(self, blocks: "dict[BlockId, Any]", drop: "BlockId | None" = None) -> None:
        """A meter point: after a spill, or after ``drop`` left the store."""
        if drop is not None:
            blocks.pop(drop, None)
            self._sizes.pop(drop, None)
        self._sizes = self._ledger.settle(self._sizes, blocks)
        self._used = sum(self._sizes.values())
        self._publish_gauge()

    # -- store hooks (called under the BlockManager lock) -----------------------

    def admit(self, block_id: BlockId, value: Any, blocks: "dict[BlockId, Any]") -> None:
        """Meter ``value``, store it, and enforce the budget; raises
        :class:`MemoryPressureError`, the store unchanged, if it cannot fit."""
        if not self.enabled:
            blocks[block_id] = value
            return
        if block_id in self._sizes:  # an overwrite (a retried recompute)
            self._settle(blocks, drop=block_id)
        self._ledger.refresh(self._sizes, blocks)  # no meter point: charges stay as they were
        size = self._ledger.add(block_id, value)
        registry = self.context.registry
        registry.inc("memory_put_bytes_total", float(size), executor=self.executor_id)
        blocks[block_id] = value
        self._sizes[block_id] = size
        self._used += size
        if self.budget > 0 and self._used > self.budget:
            try:
                self._shed_to(self.budget, blocks, protect=block_id, reason="budget")
            except MemoryPressureError:
                self._settle(blocks, drop=block_id)  # the store as it was before the put
                raise
        self._publish_gauge()

    def on_access(self, block_id: BlockId) -> None:
        """LRU touch for a read hit: to the MRU end."""
        if self.enabled and block_id in self._sizes:
            self._sizes[block_id] = self._sizes.pop(block_id)

    def on_remove(self, block_id: BlockId, blocks: "dict[BlockId, Any]") -> None:
        if self.enabled and block_id in self._sizes:
            self._settle(blocks, drop=block_id)

    def on_clear(self) -> None:
        if self.enabled:
            self._sizes.clear()
            self._settle({})

    # -- pressure tiers ----------------------------------------------------------

    def _fault_listener(self, nbytes: int, seconds: float) -> None:
        """The one meter of fault-back traffic, fired by each batch this
        executor spilled as it loads."""
        registry = self.context.registry
        registry.inc("memory_faulted_back_bytes_total", float(nbytes), executor=self.executor_id)
        registry.observe("memory_fault_in_seconds", seconds)

    def _victim_order(self, protect: "BlockId | None") -> "list[BlockId]":
        """Candidate blocks, best victim first, per the configured policy."""
        candidates = [b for b in self._sizes if b != protect]  # LRU order
        if self.policy == "cost":
            # Lowest value density first (DESIGN.md §17); LRU among equals.
            scores = self.context.advisor.block_scores(self._sizes)
            candidates.sort(key=lambda b: scores.get(b, 0.0))
        return candidates

    def _shed_to(
        self, target: int, blocks: "dict[BlockId, Any]", protect: "BlockId | None", reason: str
    ) -> None:
        """Spill, then evict, until ``used <= target`` (or raise)."""
        context = self.context
        span = context.tracer.start_span(
            "memory_pressure", kind="memory", executor=self.executor_id,
            reason=reason, used=self._used, target=target,
        )
        spilled_bytes = evicted_bytes = 0
        with span:
            # Tier 1: spill, coldest block first and the incoming one last.
            order = self._victim_order(protect)
            if protect is not None and protect in self._sizes:
                order.append(protect)
            for block_id in order:
                if self._used <= target:
                    break
                freed = self._spill_block(block_id, blocks.get(block_id))
                if freed:
                    spilled_bytes += freed
                    self._settle(blocks)
                    self._tally("memory_spilled_bytes_total", "memory_spills_total", freed)
                    context.metrics.record_recovery(
                        "block_spilled", job_index=context.job_index, partition=block_id[1],
                        executor_id=self.executor_id,
                        detail=f"rdd={block_id[0]} freed={freed} reason={reason}",
                    )
            # Tier 2: evict whole blocks (never the one being admitted).
            for block_id in self._victim_order(protect):
                if self._used <= target:
                    break
                size = self._sizes.get(block_id, 0)
                self._settle(blocks, drop=block_id)
                evicted_bytes += size
                context.block_manager_master.mark_evicted(block_id, self.executor_id)
                self._tally("memory_evicted_bytes_total", "memory_evictions_total", size)
                context.metrics.record_recovery(
                    "block_evicted", job_index=context.job_index, partition=block_id[1],
                    executor_id=self.executor_id,
                    detail=f"rdd={block_id[0]} bytes={size} policy={self.policy} reason={reason}",
                )
            span.set_attr("spilled_bytes", spilled_bytes)
            span.set_attr("evicted_bytes", evicted_bytes)
            span.set_attr("used_after", self._used)
            if self._used > target and reason == "budget":
                context.metrics.record_recovery(
                    "memory_pressure", job_index=context.job_index,
                    partition=protect[1] if protect else None, executor_id=self.executor_id,
                    detail=f"needed={self._used} budget={target}",
                )
                needed = self._sizes.get(protect, self._used) if protect else self._used
                raise MemoryPressureError(self.executor_id, needed, target, self._used)

    def _tally(self, bytes_counter: str, counter: str, nbytes: int) -> None:
        self.context.registry.inc(bytes_counter, float(nbytes), executor=self.executor_id)
        self.context.registry.inc(counter, executor=self.executor_id)

    def _spill_block(self, block_id: BlockId, value: Any) -> int:
        """Tier-1 spill of one stored block into one file; returns the batch
        bytes released. Once per residency: a partition each of whose sealed
        batches is spilled, or was faulted back in, holds only what readers
        faulted back (DESIGN.md §10)."""
        if value is None:
            return 0
        with self.context.tracer.start_span("spill", kind="memory", executor=self.executor_id,
                                            rdd=block_id[0], partition=block_id[1]) as span:
            spillable = [
                item for item in (value if isinstance(value, (list, tuple)) else [value])
                if not all(b.faults or not b.resident for b in getattr(item, "batches", ())[:-1])
            ]
            freed = self.spill_partition(spillable) if spillable else 0
            span.set_attr("freed", freed)
        return freed

    def spill_partition(self, partition: Any, keep_tail: bool = True) -> int:
        """Spill the sealed batches of a partition (or of a block's list of
        them) into one file, reactively or for ``IndexedDataFrame.spill_index``:
        each carries this executor's fault meter and the context's corruption
        chaos hook."""
        from repro.indexed.row_batch import spill_partition

        return spill_partition(
            partition, spill_dir=self.spill_dir, keep_tail=keep_tail,
            on_fault=self._fault_listener if self.enabled else None,
            corruption_hook=self.context.spill_corruption_hook(self.executor_id),
        )

    # -- chaos -----------------------------------------------------------------------

    def pressure_storm(
        self, factor: float, blocks_lock: "threading.Lock", blocks: "dict[BlockId, Any]",
        job_index: int = -1, stage_id: "int | None" = None, partition: "int | None" = None,
    ) -> None:
        """Chaos hook: shed down to ``factor`` of the budget (of the usage
        when unbounded) and record a ``chaos_memory_squeeze``. Never raises."""
        with self._storm_lock, blocks_lock:
            self.enabled = True  # a squeeze where nothing metered starts it, for good
            if not self._sizes and blocks:
                self._sizes = dict.fromkeys(blocks, 0)
                self._settle(blocks)
            base = self.budget if self.budget > 0 else self._used
            target = max(0, int(base * factor))
            if self._used == 0:
                return
            self.context.metrics.record_recovery(
                "chaos_memory_squeeze", job_index=job_index, stage_id=stage_id,
                partition=partition, executor_id=self.executor_id,
                detail=f"factor={factor} used={self._used} target={target}",
            )
            try:
                self._shed_to(target, blocks, protect=None, reason="chaos")
            finally:
                self._publish_gauge()
