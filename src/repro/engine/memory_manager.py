"""Per-executor memory budgets: metering, tiered spill/eviction, backpressure.

The paper's Indexed DataFrame is an *in-memory* cache; a real deployment
runs it under a finite executor heap. This module is the subsystem that
makes the block store survive that regime (DESIGN.md §10):

* **Metering.** Every stored block is deep-sized with
  :func:`repro.utils.memory.deep_sizeof` using one *shared* ``seen`` set
  across the whole store, so MVCC versions sharing cTrie nodes and row
  batches are counted once — exactly the sharing the Fig. 11 accounting
  relies on.
* **Tier 1 — spill.** Over budget, sealed indexed row batches of the
  coldest blocks move to disk (:func:`repro.indexed.out_of_core.spill_partition`),
  keeping indexes queryable at a fault-in cost.
* **Tier 2 — evict.** Still over budget, whole blocks are dropped — least
  recently used first, or lowest value density first under
  ``eviction_policy="cost"`` (DESIGN.md §17). An evicted block's re-request
  simply misses in the cache and is rebuilt from lineage, with the
  existing ``BlockManagerMaster`` lost-block attribution marking the
  recompute as recovery work.
* **Backpressure.** When spilling + evicting cannot make the incoming
  block fit, the put raises :class:`MemoryPressureError` — *retryable*: the
  task scheduler backs off, consumes stage attempt budget, and blacklists
  the pressured executor, so an append lands on an executor with room
  instead of OOM-killing the job.
* **Chaos.** :meth:`MemoryManager.pressure_storm` shrinks the effective
  budget for one moment (seeded via ``Config.chaos_memory_squeeze_prob``),
  forcing spill storms at chosen task launches so the OOM-adjacent paths
  are exercised by the chaos suite.

Everything feeds the unified registry (bytes cached/spilled/evicted/
faulted-back) and the recovery-event stream (``block_spilled`` /
``block_evicted`` / ``memory_pressure`` / ``chaos_memory_squeeze``).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.utils.memory import deep_sizeof

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
        self.executor_id = executor_id
        self.needed = needed
        self.budget = budget
        self.used = used


class MemoryManager:
    """Budget enforcement for one executor's block store.

    Not thread-safe on its own: every mutating call happens under the
    owning :class:`~repro.engine.block_manager.BlockManager`'s lock, which
    serializes store contents and accounting together.
    """

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
        #: Metering happens when a budget is set or chaos squeezes are
        #: possible; otherwise every hook is a cheap no-op (seed behaviour).
        self.enabled = self.budget > 0 or cfg.chaos_memory_squeeze_prob > 0
        #: block id -> charged incremental bytes, in LRU order (oldest first).
        self._sizes: "dict[BlockId, int]" = {}
        #: ids of objects already counted (the MVCC shared-structure guard).
        self._seen_ids: set[int] = set()
        self._used = 0
        #: Serializes pressure storms against concurrent admits.
        self._storm_lock = threading.Lock()

    # -- accounting ------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    def block_sizes(self) -> "dict[BlockId, int]":
        return dict(self._sizes)

    def _publish_gauge(self) -> None:
        self.context.registry.set_gauge(
            "memory_bytes_cached", float(self._used), executor=self.executor_id
        )

    def _recompute(self, blocks: "dict[BlockId, Any]") -> None:
        """Re-meter the whole store (after spill/evict/remove).

        One shared ``seen`` set across blocks in LRU order keeps shared MVCC
        structure charged to the oldest block that references it.
        """
        self._seen_ids = set()
        sizes: "dict[BlockId, int]" = {}
        for block_id in list(self._sizes):
            value = blocks.get(block_id)
            if value is None:
                continue
            sizes[block_id] = deep_sizeof(value, seen=self._seen_ids)
        self._sizes = sizes
        self._used = sum(sizes.values())
        self._publish_gauge()

    # -- store hooks (called under the BlockManager lock) -----------------------

    def admit(self, block_id: BlockId, value: Any, blocks: "dict[BlockId, Any]") -> None:
        """Meter ``value``, store it, and enforce the budget.

        Raises :class:`MemoryPressureError` (leaving the store unchanged)
        when the block cannot fit even after spilling and evicting
        everything else.
        """
        if not self.enabled:
            blocks[block_id] = value
            return
        if block_id in self._sizes:
            # Overwrite (idempotent recompute, e.g. a retry): drop the old
            # charge first so the new bytes are metered from scratch.
            blocks.pop(block_id, None)
            self._sizes.pop(block_id, None)
            self._recompute(blocks)
        # One walk: ``_seen_ids`` is closed under reachability (every walk
        # that built it went all the way down), so the objects this walk
        # skips as seen lead only to objects seen already, and the copy it
        # fills is the store's new ``seen`` set.
        seen = set(self._seen_ids)
        size = deep_sizeof(value, seen=seen)
        registry = self.context.registry
        registry.inc("memory_put_bytes_total", float(size), executor=self.executor_id)
        blocks[block_id] = value
        self._seen_ids = seen
        self._sizes[block_id] = size
        self._used += size
        if self.budget > 0 and self._used > self.budget:
            try:
                self._shed_to(self.budget, blocks, protect=block_id, reason="budget")
            except MemoryPressureError:
                # Leave the store as it was before this put.
                blocks.pop(block_id, None)
                self._sizes.pop(block_id, None)
                self._recompute(blocks)
                registry.inc("memory_pressure_errors_total", executor=self.executor_id)
                raise
        self._publish_gauge()

    def on_access(self, block_id: BlockId) -> None:
        """LRU touch for a read hit."""
        if not self.enabled or block_id not in self._sizes:
            return
        self._sizes[block_id] = self._sizes.pop(block_id)  # move to MRU end

    def on_remove(self, block_id: BlockId, blocks: "dict[BlockId, Any]") -> None:
        if not self.enabled or block_id not in self._sizes:
            return
        self._sizes.pop(block_id, None)
        self._recompute(blocks)

    def on_clear(self) -> None:
        if not self.enabled:
            return
        self._sizes.clear()
        self._seen_ids.clear()
        self._used = 0
        self._publish_gauge()

    # -- pressure tiers ----------------------------------------------------------

    def _fault_listener(self, nbytes: int, seconds: float) -> None:
        """Installed on every batch this executor spills: the one meter of
        fault-back traffic, fired by the batch itself as it loads."""
        registry = self.context.registry
        registry.inc(
            "memory_faulted_back_bytes_total", float(nbytes), executor=self.executor_id
        )
        registry.observe("memory_fault_in_seconds", seconds)

    def _victim_order(self, protect: "BlockId | None") -> "list[BlockId]":
        """Candidate blocks, best victim first, per the configured policy."""
        candidates = [b for b in self._sizes if b != protect]  # LRU order
        if self.policy == "cost":
            # Lowest value density (recompute cost x expected reuse per
            # byte, DESIGN.md §17) first; the stable sort leaves LRU order
            # among equals.
            scores = self.context.advisor.block_scores(self._sizes)
            candidates.sort(key=lambda b: scores.get(b, 0.0))
        return candidates

    def _shed_to(
        self,
        target: int,
        blocks: "dict[BlockId, Any]",
        protect: "BlockId | None",
        reason: str,
    ) -> None:
        """Spill, then evict, until ``used <= target`` (or raise)."""
        context = self.context
        registry = context.registry
        span = context.tracer.start_span(
            "memory_pressure",
            kind="memory",
            executor=self.executor_id,
            reason=reason,
            used=self._used,
            target=target,
        )
        spilled_bytes = 0
        evicted_bytes = 0
        with span:
            # Tier 1: spill sealed row batches, coldest block first. The
            # protected (incoming) block participates too — spilling its own
            # sealed batches is often what lets a large partition fit at all.
            order = self._victim_order(protect)
            if protect is not None and protect in self._sizes:
                order.append(protect)  # spill the newcomer last
            for block_id in order:
                if self._used <= target:
                    break
                freed = self._spill_block(block_id, blocks.get(block_id))
                if freed:
                    spilled_bytes += freed
                    before = self._used
                    self._recompute(blocks)
                    registry.inc(
                        "memory_spilled_bytes_total",
                        float(max(0, before - self._used)),
                        executor=self.executor_id,
                    )
                    registry.inc("memory_spills_total", executor=self.executor_id)
                    context.metrics.record_recovery(
                        "block_spilled",
                        job_index=context.job_index,
                        partition=block_id[1],
                        executor_id=self.executor_id,
                        detail=f"rdd={block_id[0]} freed={freed} reason={reason}",
                    )
            # Tier 2: evict whole blocks (never the one being admitted).
            for block_id in self._victim_order(protect):
                if self._used <= target:
                    break
                size = self._sizes.get(block_id, 0)
                blocks.pop(block_id, None)
                self._sizes.pop(block_id, None)
                self._recompute(blocks)
                evicted_bytes += size
                context.block_manager_master.mark_evicted(block_id, self.executor_id)
                registry.inc(
                    "memory_evicted_bytes_total", float(size), executor=self.executor_id
                )
                registry.inc("memory_evictions_total", executor=self.executor_id)
                context.metrics.record_recovery(
                    "block_evicted",
                    job_index=context.job_index,
                    partition=block_id[1],
                    executor_id=self.executor_id,
                    detail=f"rdd={block_id[0]} bytes={size} policy={self.policy} reason={reason}",
                )
            span.set_attr("spilled_bytes", spilled_bytes)
            span.set_attr("evicted_bytes", evicted_bytes)
            span.set_attr("used_after", self._used)
            if self._used > target and reason == "budget":
                # Nothing left to shed: the protected block alone overflows.
                context.metrics.record_recovery(
                    "memory_pressure",
                    job_index=context.job_index,
                    partition=protect[1] if protect else None,
                    executor_id=self.executor_id,
                    detail=f"needed={self._used} budget={target}",
                )
                raise MemoryPressureError(
                    self.executor_id,
                    needed=self._sizes.get(protect, self._used) if protect else self._used,
                    budget=target,
                    used=self._used,
                )

    def _spill_block(self, block_id: BlockId, value: Any) -> int:
        """Tier-1 spill of one stored block; returns batch bytes moved to disk.

        A partition goes through tier 1 once per residency, and that is read
        from its batches: when every sealed one is spillable already, what
        is resident was faulted back in by a reader — hot data, which only
        eviction removes (spilling it straight back out measured 7 % slower
        on ``bounded_memory``, DESIGN.md §10).
        """
        from repro.indexed.out_of_core import SpillableRowBatch

        if value is None:
            return 0
        freed = 0
        items = value if isinstance(value, (list, tuple)) else [value]
        span = self.context.tracer.start_span(
            "spill", kind="memory", executor=self.executor_id,
            rdd=block_id[0], partition=block_id[1],
        )
        with span:
            for item in items:
                sealed = getattr(item, "batches", ())[:-1]
                if not all(isinstance(b, SpillableRowBatch) for b in sealed):
                    freed += self.spill_partition(item)
            span.set_attr("freed", freed)
        return freed

    def spill_partition(self, partition: Any, keep_tail: bool = True) -> int:
        """Spill one indexed partition's sealed batches on this executor:
        the call both the reactive tier and ``IndexedDataFrame.spill_index``
        make, so every spilled batch carries this executor's fault meter
        (when it meters at all) and the context's corruption chaos hook."""
        from repro.indexed.out_of_core import spill_partition

        return spill_partition(
            partition,
            spill_dir=self.spill_dir,
            keep_tail=keep_tail,
            on_fault=self._fault_listener if self.enabled else None,
            corruption_hook=self.context.spill_corruption_hook(self.executor_id),
        )

    # -- chaos -----------------------------------------------------------------------

    def pressure_storm(
        self,
        factor: float,
        blocks_lock: "threading.Lock",
        blocks: "dict[BlockId, Any]",
        job_index: int = -1,
        stage_id: "int | None" = None,
        partition: "int | None" = None,
    ) -> None:
        """Chaos hook: pretend the budget shrank to ``factor`` of its value.

        Sheds (spills, then evicts) down to the squeezed level and records a
        ``chaos_memory_squeeze`` event. Never raises: with an unbounded
        budget the squeeze target is ``factor`` x the *current* usage, so a
        storm always forces real spill/evict work but cannot fail a task by
        itself.
        """
        with self._storm_lock, blocks_lock:
            if not self.enabled:
                # A targeted squeeze can arrive in a context that never
                # configured a budget or squeeze probability: start metering
                # now (and keep it on) so the storm has sizes to shed.
                self.enabled = True
            if not self._sizes and blocks:
                for block_id in blocks:
                    self._sizes[block_id] = 0
                self._recompute(blocks)
            base = self.budget if self.budget > 0 else self._used
            target = max(0, int(base * factor))
            before = self._used
            if before == 0:
                return
            self.context.metrics.record_recovery(
                "chaos_memory_squeeze",
                job_index=job_index,
                stage_id=stage_id,
                partition=partition,
                executor_id=self.executor_id,
                detail=f"factor={factor} used={before} target={target}",
            )
            try:
                self._shed_to(target, blocks, protect=None, reason="chaos")
            finally:
                self._publish_gauge()
