"""Fault injection: executor kills, chaos-style mid-stage failures (Fig. 12).

The Fig. 12 experiment manually kills a Spark executor holding 4 indexed
partitions in the middle of a 200-query run; the query in flight pays the
index-recreation cost (~13 s vs ~1 s) and subsequent queries run at normal
speed. :class:`FaultInjector` reproduces the "manually kill" part — and,
beyond the paper, acts as a chaos layer for hardening the concurrent
runtime:

* **job-boundary kills** (:meth:`fail_executor_at_job`) — the original
  Fig. 12 scenario;
* **mid-stage kills** (:meth:`fail_executor_at_task`) — the executor dies
  while its stage still has tasks in flight, so siblings hit
  dead-executor errors and fetch failures concurrently;
* **transient task failures** (``task_failure_prob``) — a task attempt
  raises a retryable :class:`ChaosTaskError` before running;
* **stragglers** (``straggler_prob`` / :meth:`delay_task_once`) — a task
  sleeps before running (the stage waits it out; a sibling's failure wakes
  it early);
* **flaky shuffle fetches** (``fetch_failure_prob``) — a reduce-side fetch
  raises a FetchFailedError even though the map output is present, forcing
  the DAG scheduler through its (cheap) resubmit path;
* **memory squeezes** (``memory_squeeze_prob`` /
  :meth:`squeeze_memory_at_task`) — a task launch shrinks its executor's
  effective block budget, forcing a spill/evict storm (the OOM-adjacent
  failure class the memory manager exists to absorb, DESIGN.md §10).

**Determinism.** Probabilistic decisions are not drawn from one shared RNG
stream (whose order would depend on thread interleaving) but from a hash of
``(seed, decision site)``: a task decision is keyed by ``(stage_id, split,
attempt)``, a fetch decision by ``(shuffle_id, reduce_id, per-reduce fetch
count)``. A given seed therefore injects the *same* faults at the same
logical sites in sequential and threads mode, run after run.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable


class ChaosTaskError(RuntimeError):
    """An injected *transient* task failure (retryable, like a flaky node)."""


@dataclass
class ChaosDecision:
    """What the chaos layer wants done to one task launch."""

    #: Executors that must die now (mid-stage if tasks are in flight).
    kill_executors: list[str] = field(default_factory=list)
    #: Transient exception to raise instead of running the task.
    fail: ChaosTaskError | None = None
    #: Seconds to sleep before running the task (straggler injection).
    delay_seconds: float = 0.0
    #: When > 0, squeeze the launching executor's effective memory budget to
    #: this fraction before the task runs (forces a spill/evict storm).
    memory_squeeze_factor: float = 0.0


_NO_CHAOS = ChaosDecision()


def _draw(seed: int, *site: object) -> float:
    """Uniform [0,1) keyed by the decision site, stable across runs/threads.

    ``random.Random`` seeded with a string hashes it with SHA-512, so this
    is independent of ``PYTHONHASHSEED``.
    """
    return random.Random("|".join(str(s) for s in (seed, *site))).random()


@dataclass
class FaultInjector:
    """Schedules executor failures and chaos-style fault injection.

    Use :meth:`fail_executor_at_job` for the Fig. 12 scenario ("kill
    executor X while job N runs"), :meth:`fail_executor_at_task` to kill
    mid-stage at the Nth task launch, or :meth:`fail_when` for custom
    predicates. ``check`` is consulted at job boundaries;
    :meth:`on_task_start` / :meth:`on_fetch` are consulted by the task
    scheduler and shuffle manager on the hot path (cheap no-ops unless
    chaos is configured).
    """

    seed: int = 0
    task_failure_prob: float = 0.0
    fetch_failure_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_delay: float = 0.02
    #: Memory-pressure injection: probability that a task launch squeezes
    #: its executor's effective budget to ``memory_squeeze_factor``.
    memory_squeeze_prob: float = 0.0
    memory_squeeze_factor: float = 0.5
    #: Probability that the query server's admission control sheds one
    #: incoming query (always a *retryable* rejection, never a wrong
    #: answer) — chaos for client retry loops. Keyed by query index.
    serve_rejection_prob: float = 0.0
    #: Probability that one routed serve operation crashes a shard *before*
    #: the call lands (the kill-one-shard scenario). Keyed by the router's
    #: operation index; the victim shard is drawn from the same site, so a
    #: given seed kills the same shards at the same operations every run.
    shard_kill_prob: float = 0.0
    #: Corruption chaos (DESIGN.md §16): probability that real bytes get
    #: damaged in a spill file after it is written. The damage mode
    #: (bit-flip / truncation / garbled header) is drawn from the same
    #: site. Each injection must be *detected* by a checksum boundary and
    #: repaired from lineage or a replica — never decoded into an answer.
    corrupt_spill_prob: float = 0.0

    _scheduled: list[tuple[Callable[[int], bool], str]] = field(default_factory=list)
    _fired: set[int] = field(default_factory=set)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: (job_index, executor_id) of every kill this injector fired.
    killed: list[tuple[int, str]] = field(default_factory=list)
    #: (task_launch_index, executor_id) kills waiting for the counter.
    _task_kills: list[tuple[int, str]] = field(default_factory=list)
    _task_launches: int = 0
    #: One-shot targeted straggler injections: (split, delay, stage_id|None).
    _targeted_delays: list[tuple[int, float, int | None]] = field(default_factory=list)
    #: One-shot memory squeezes waiting on the launch counter: (at, factor).
    _memory_squeezes: list[tuple[int, float]] = field(default_factory=list)
    #: Scheduled shard kills waiting on the router op counter: (at, shard_id).
    _shard_kills: list[tuple[int, int]] = field(default_factory=list)
    #: One-shot targeted shard stragglers: shard_id -> delay seconds.
    _shard_delays: dict[int, float] = field(default_factory=dict)
    _fetch_counts: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Monotonic spill-write counter keying corrupt_spill draws.
    _spill_writes: int = 0
    #: The no-consecutive-corruption rule for spills: a rebuild's re-spill
    #: directly follows the corrupted one, so suppressing back-to-back hits
    #: guarantees repair converges even at probability 1.0.
    _spill_corrupted_last: bool = False
    #: Every corruption this injector fired: (site, mode) — test assertions
    #: pair these with detection/repair counters.
    corruptions: list[tuple[str, str]] = field(default_factory=list)
    #: shuffle_id -> first-seen dense index. Shuffle ids are allocated from a
    #: process-global counter, so the raw id is not stable across contexts;
    #: draws are keyed by this normalized index instead, making the fault
    #: schedule reproducible for a repeated workload in a fresh context.
    _shuffle_order: dict[int, int] = field(default_factory=dict)

    # -- configuration -------------------------------------------------------------

    def configure(
        self,
        seed: int | None = None,
        task_failure_prob: float | None = None,
        fetch_failure_prob: float | None = None,
        straggler_prob: float | None = None,
        straggler_delay: float | None = None,
        memory_squeeze_prob: float | None = None,
        memory_squeeze_factor: float | None = None,
        serve_rejection_prob: float | None = None,
        shard_kill_prob: float | None = None,
        corrupt_spill_prob: float | None = None,
    ) -> None:
        with self._lock:
            if seed is not None:
                self.seed = seed
            if task_failure_prob is not None:
                self.task_failure_prob = task_failure_prob
            if fetch_failure_prob is not None:
                self.fetch_failure_prob = fetch_failure_prob
            if straggler_prob is not None:
                self.straggler_prob = straggler_prob
            if straggler_delay is not None:
                self.straggler_delay = straggler_delay
            if memory_squeeze_prob is not None:
                self.memory_squeeze_prob = memory_squeeze_prob
            if memory_squeeze_factor is not None:
                self.memory_squeeze_factor = memory_squeeze_factor
            if serve_rejection_prob is not None:
                self.serve_rejection_prob = serve_rejection_prob
            if shard_kill_prob is not None:
                self.shard_kill_prob = shard_kill_prob
            if corrupt_spill_prob is not None:
                self.corrupt_spill_prob = corrupt_spill_prob

    # -- scheduled kills -----------------------------------------------------------

    def fail_executor_at_job(self, executor_id: str, job_index: int) -> None:
        """Kill ``executor_id`` when job number ``job_index`` starts."""
        self.fail_when(lambda j, target=job_index: j >= target, executor_id)

    def fail_when(self, predicate: Callable[[int], bool], executor_id: str) -> None:
        with self._lock:
            self._scheduled.append((predicate, executor_id))

    def fail_executor_at_task(self, executor_id: str, task_launch_index: int) -> None:
        """Kill ``executor_id`` at the Nth task launch — *mid-stage* when
        the stage has more tasks than have launched so far."""
        with self._lock:
            self._task_kills.append((task_launch_index, executor_id))

    def check(self, job_index: int) -> list[str]:
        """Return executors that must die now (each schedule fires once)."""
        victims: list[str] = []
        with self._lock:
            for i, (pred, executor_id) in enumerate(self._scheduled):
                if i in self._fired:
                    continue
                if pred(job_index):
                    self._fired.add(i)
                    victims.append(executor_id)
                    self.killed.append((job_index, executor_id))
        return victims

    def squeeze_memory_at_task(self, task_launch_index: int, factor: float = 0.5) -> None:
        """Force a memory-pressure storm on the executor of the Nth task
        launch: its effective budget shrinks to ``factor`` for that moment,
        spilling/evicting cached blocks (a deterministic force-spill storm)."""
        with self._lock:
            self._memory_squeezes.append((task_launch_index, factor))

    # -- targeted stragglers ---------------------------------------------------------

    def delay_task_once(self, split: int, delay: float, stage_id: int | None = None) -> None:
        """Make the next launch of partition ``split`` (optionally only
        within ``stage_id``) sleep ``delay`` seconds."""
        with self._lock:
            self._targeted_delays.append((split, delay, stage_id))

    # -- hot-path hooks ----------------------------------------------------------------

    @property
    def task_launches(self) -> int:
        with self._lock:
            return self._task_launches

    @property
    def armed(self) -> bool:
        """Whether a job may still meet chaos: an unfired scheduled job or
        task kill, a targeted delay, a memory squeeze, or a task-failure,
        straggler or squeeze probability. A key-bound read skips the
        scheduler only while this is False (DESIGN.md §13)."""
        with self._lock:
            return self._armed_locked()

    def _armed_locked(self) -> bool:
        return bool(
            len(self._fired) < len(self._scheduled)
            or self._task_kills
            or self._targeted_delays
            or self._memory_squeezes
            or self.task_failure_prob > 0
            or self.straggler_prob > 0
            or self.memory_squeeze_prob > 0
        )

    def on_task_start(
        self, stage_id: int, split: int, attempt: int, job_index: int
    ) -> ChaosDecision:
        """Chaos decision for one task launch."""
        with self._lock:
            self._task_launches += 1
            n = self._task_launches
            if not self._armed_locked():
                return _NO_CHAOS
            decision = ChaosDecision()
            remaining: list[tuple[int, str]] = []
            for at, executor_id in self._task_kills:
                if n >= at:
                    decision.kill_executors.append(executor_id)
                    self.killed.append((job_index, executor_id))
                else:
                    remaining.append((at, executor_id))
            self._task_kills = remaining
            squeeze_remaining: list[tuple[int, float]] = []
            for at, factor in self._memory_squeezes:
                if n >= at:
                    # Most aggressive squeeze wins when several fire at once.
                    if decision.memory_squeeze_factor == 0.0:
                        decision.memory_squeeze_factor = factor
                    else:
                        decision.memory_squeeze_factor = min(
                            decision.memory_squeeze_factor, factor
                        )
                else:
                    squeeze_remaining.append((at, factor))
            self._memory_squeezes = squeeze_remaining
            for i, (t_split, t_delay, t_stage) in enumerate(self._targeted_delays):
                if t_split == split and (t_stage is None or t_stage == stage_id):
                    decision.delay_seconds = max(decision.delay_seconds, t_delay)
                    del self._targeted_delays[i]
                    break
        if self.task_failure_prob > 0 and attempt == 0:
            # Only first attempts fail: "transient" means the retry succeeds.
            if _draw(self.seed, "task", stage_id, split) < self.task_failure_prob:
                decision.fail = ChaosTaskError(
                    f"chaos: injected transient failure (stage={stage_id}, split={split})"
                )
        if self.straggler_prob > 0 and attempt == 0 and decision.fail is None:
            if _draw(self.seed, "straggle", stage_id, split) < self.straggler_prob:
                decision.delay_seconds = max(decision.delay_seconds, self.straggler_delay)
        if self.memory_squeeze_prob > 0 and decision.memory_squeeze_factor == 0.0:
            # Seeded per (stage, split, attempt): a given seed squeezes the
            # same logical launches in both scheduler modes.
            if (
                _draw(self.seed, "memsqueeze", stage_id, split, attempt)
                < self.memory_squeeze_prob
            ):
                decision.memory_squeeze_factor = self.memory_squeeze_factor
        return decision

    def on_serve(self, query_index: int) -> bool:
        """True when the query server should shed this admission (seeded per
        query index, so a given seed rejects the same queries every run)."""
        if self.serve_rejection_prob <= 0:
            return False
        return _draw(self.seed, "serve", query_index) < self.serve_rejection_prob

    # -- sharded serving chaos -------------------------------------------------------

    def kill_shard_at(self, op_index: int, shard_id: int) -> None:
        """Crash shard ``shard_id`` when the router's Nth routed operation
        starts — the deterministic kill-one-shard-at-QPS scenario."""
        with self._lock:
            self._shard_kills.append((op_index, shard_id))

    def delay_shard_once(self, shard_id: int, delay: float) -> None:
        """Make shard ``shard_id``'s next serve call sleep ``delay`` seconds
        (a targeted straggler: holds a query in flight for a test)."""
        with self._lock:
            self._shard_delays[shard_id] = max(delay, self._shard_delays.get(shard_id, 0.0))

    def on_shard_route(self, op_index: int, num_shards: int) -> "int | None":
        """Shard id that must crash before this routed operation, or None.

        Scheduled kills (:meth:`kill_shard_at`) fire first; otherwise the
        probabilistic draw is keyed by the op index and the victim by a
        second draw at the same site, so a seed reproduces the same kill
        schedule run after run.
        """
        with self._lock:
            remaining: list[tuple[int, int]] = []
            victim: "int | None" = None
            for at, shard_id in self._shard_kills:
                if victim is None and op_index >= at:
                    victim = shard_id
                else:
                    remaining.append((at, shard_id))
            self._shard_kills = remaining
        if victim is not None:
            return victim
        if self.shard_kill_prob <= 0 or num_shards <= 0:
            return None
        if _draw(self.seed, "shardkill", op_index) < self.shard_kill_prob:
            return int(_draw(self.seed, "shardvictim", op_index) * num_shards)
        return None

    def on_shard_call(self, shard_id: int) -> float:
        """Seconds this shard-local call must straggle (0.0 = no chaos)."""
        if not self._shard_delays:
            return 0.0
        with self._lock:
            return self._shard_delays.pop(shard_id, 0.0)

    # -- corruption chaos --------------------------------------------------------------

    def _corruption_mode(self, *site: object) -> str:
        """Damage pattern for one corruption, drawn at the decision site."""
        from repro.integrity import CORRUPTION_MODES

        i = int(_draw(self.seed, "corruptmode", *site) * len(CORRUPTION_MODES))
        return CORRUPTION_MODES[min(i, len(CORRUPTION_MODES) - 1)]

    def on_spill_write(self) -> "str | None":
        """Corruption mode for the spill file just written, or None.

        Keyed by a monotonic spill counter (spill order is deterministic
        per seed in sequential mode; in parallel modes the *count* of
        corruptions is stable even when the victims vary). Back-to-back
        corruptions are suppressed so a rebuilt block's re-spill lands
        clean and recovery always converges.
        """
        if self.corrupt_spill_prob <= 0:
            return None
        with self._lock:
            self._spill_writes += 1
            n = self._spill_writes
            if self._spill_corrupted_last:
                self._spill_corrupted_last = False
                return None
            if _draw(self.seed, "spillcorrupt", n) < self.corrupt_spill_prob:
                mode = self._corruption_mode("spill", n)
                self._spill_corrupted_last = True
                self.corruptions.append(("spill", mode))
                return mode
        return None

    def on_fetch(self, shuffle_id: int, reduce_id: int) -> bool:
        """True when this fetch should fail flakily (map output intact)."""
        if self.fetch_failure_prob <= 0:
            return False
        with self._lock:
            norm = self._shuffle_order.setdefault(shuffle_id, len(self._shuffle_order))
            n = self._fetch_counts.get((shuffle_id, reduce_id), 0) + 1
            self._fetch_counts[(shuffle_id, reduce_id)] = n
        return _draw(self.seed, "fetch", norm, reduce_id, n) < self.fetch_failure_prob

    def reset(self) -> None:
        with self._lock:
            self._scheduled.clear()
            self._fired.clear()
            self.killed.clear()
            self._task_kills.clear()
            self._targeted_delays.clear()
            self._memory_squeezes.clear()
            self._shard_kills.clear()
            self._shard_delays.clear()
            self._fetch_counts.clear()
            self._shuffle_order.clear()
            self.corruptions.clear()
            self._task_launches = 0
            self._spill_writes = 0
            self._spill_corrupted_last = False
            self.task_failure_prob = 0.0
            self.fetch_failure_prob = 0.0
            self.straggler_prob = 0.0
            self.memory_squeeze_prob = 0.0
            self.serve_rejection_prob = 0.0
            self.shard_kill_prob = 0.0
            self.corrupt_spill_prob = 0.0
