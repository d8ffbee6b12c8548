"""The advisor's lineage cost model.

Prices one cacheable intermediate (a block, a recurring query's result) by

    value density = recompute_cost x expected_reuse / bytes_held

following the optimization formulation of "Intermediate Data Caching
Optimization for Multi-Stage and Parallel Big Data Frameworks"
(arXiv:1805.08609): what is worth holding is what is expensive to rebuild,
likely to be asked for again, and cheap to keep.

* **recompute cost** — measured seconds (the cache manager times every
  ``rdd.compute``; the session times every query execution) scaled by the
  block's :func:`lineage_depth`: a block ten transformations deep drags a
  longer rebuild chain behind its eviction than a source partition does.
* **expected reuse** — a :class:`DecayedCounter`: recurrence observed from
  plan-cache fingerprints and block accesses, decayed per advisor tick so
  yesterday's hot query does not pin today's memory.
* **bytes held** — the memory manager's charge, from its ledger of parts.

Everything here is arithmetic over plain floats; no locks, no clocks —
callers feed observed values in and sort by the returned score.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, MutableMapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD

MB = 1024.0 * 1024.0


def lineage_depth(rdd: "RDD", _cache: "MutableMapping[int, int] | None" = None) -> int:
    """Longest dependency chain above ``rdd`` (1 for a source RDD).

    The multiplier on measured compute time in the cost model: evicting a
    deep block risks recomputing its whole ancestry (ancestors may have
    been evicted too), so depth scales the priced rebuild cost. Iterative
    (no recursion) and memoizable across calls via ``_cache`` keyed on
    ``rdd_id``.
    """
    cache = _cache if _cache is not None else {}
    order: list["RDD"] = []
    seen: set[int] = set()
    stack: list["RDD"] = [rdd]
    while stack:  # post-order without recursion: children before parents
        node = stack.pop()
        if node.rdd_id in seen or node.rdd_id in cache:
            continue
        seen.add(node.rdd_id)
        order.append(node)
        stack.extend(dep.rdd for dep in node.dependencies)
    for node in reversed(order):
        parents = [cache.get(dep.rdd.rdd_id, 1) for dep in node.dependencies]
        cache[node.rdd_id] = 1 + max(parents, default=0)
    return cache[rdd.rdd_id]


def value_density(
    compute_seconds: float,
    depth: int,
    expected_reuse: float,
    nbytes: int,
) -> float:
    """The advisor's score: recompute cost x expected reuse per MB held.

    Unit: (seconds x expected future uses) / MB. Higher = more valuable to
    keep cached; the eviction policy drops the *lowest* first, the
    auto-cache hook admits entries whose score clears
    ``Config.advisor_score_threshold``.
    """
    cost = max(0.0, compute_seconds) * max(1, depth)
    return cost * max(0.0, expected_reuse) / max(nbytes, 1024) * MB


#: Per-tick multiplicative decay of the advisor's recurrence counters:
#: a query or block unseen for ~45 advisor ticks counts a tenth of a fresh
#: one. A constant: no workload, test or example ever set another value.
DECAY_PER_TICK = 0.95


class DecayedCounter:
    """Exponentially decayed event counter on a caller-supplied clock.

    ``bump(t)`` adds one observation at tick ``t``; ``read(t)`` reports the
    decayed total. The clock is a monotone integer the owner advances (one
    tick per query), so decay is deterministic and replay-safe — no wall
    time involved. ``decay = 1.0`` degenerates to a plain counter.
    """

    __slots__ = ("last_t", "value")

    def __init__(self) -> None:
        self.value = 0.0
        self.last_t = 0

    def _rolled(self, t: int, decay: float) -> float:
        age = max(0, t - self.last_t)
        if age == 0 or decay >= 1.0:
            return self.value
        if age > 500:  # decay^age underflows anyway; skip the pow
            return 0.0
        return self.value * (decay**age)

    def bump(self, t: int, decay: float, amount: float = 1.0) -> float:
        self.value = self._rolled(t, decay) + amount
        self.last_t = max(self.last_t, t)
        return self.value

    def read(self, t: int, decay: float) -> float:
        return self._rolled(t, decay)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DecayedCounter(value={self.value:.3f}, last_t={self.last_t})"


class Ewma:
    """Tiny exponentially weighted moving average (alpha fixed at 0.4:
    recent executions dominate, one outlier does not)."""

    __slots__ = ("value",)

    ALPHA = 0.4

    def __init__(self) -> None:
        self.value = 0.0

    def update(self, sample: float) -> float:
        if self.value == 0.0:
            self.value = sample
        else:
            self.value += self.ALPHA * (sample - self.value)
        return self.value
