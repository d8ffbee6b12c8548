"""Ghost list: the advisor's anti-thrash memory.

The failure mode this prevents, under a bounded budget: the shedding
policy evicts a block, the very next access rebuilds and re-admits it, the
re-admission pushes the store over budget, and the same block (or its
neighbour) is shed again — spills and fault-backs that are pure churn. The
classical fix (ARC's ghost lists, admission
cooldowns in web caches) is to *remember what was just shed*: a bounded
map of recently-evicted keys with the tick they were shed at. Consumers
use it two ways:

* the **memory manager** defers re-shedding a just-re-admitted block for a
  cooldown window (victims are reordered, never excluded, so shedding can
  still always complete);
* the **auto-cache hook** refuses to re-admit a fingerprint it just
  auto-evicted (``cache_advisor_decisions_total{action="readmit_blocked"}``)
  until the cooldown passes.

Keys are any hashables (block ids, plan fingerprints). Capacity 0 disables
the list entirely (every query answers "not recently shed").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable


class GhostList:
    """Bounded ``key -> shed tick`` map with a re-admission cooldown.

    Not thread-safe; owners call it under their own lock (the memory
    manager under the block-manager lock, the advisor under its own).
    """

    def __init__(self, capacity: int, cooldown: int) -> None:
        self.capacity = max(0, int(capacity))
        self.cooldown = max(0, int(cooldown))
        self._shed_at: "OrderedDict[Hashable, int]" = OrderedDict()
        self.recorded = 0
        self.blocked = 0

    def record(self, key: Hashable, tick: int) -> None:
        """Note that ``key`` was just shed (evicted/spilled/auto-evicted)."""
        if self.capacity == 0:
            return
        self._shed_at.pop(key, None)
        self._shed_at[key] = tick
        self.recorded += 1
        while len(self._shed_at) > self.capacity:
            self._shed_at.popitem(last=False)

    def recently_shed(self, key: Hashable, tick: int) -> bool:
        """Was ``key`` shed within the last ``cooldown`` ticks?

        Counts a hit (for :meth:`stats`) when true — a true answer is what
        blocks a re-admission or defers a re-shed.
        """
        shed = self._shed_at.get(key)
        if shed is None or tick - shed > self.cooldown:
            return False
        self.blocked += 1
        return True

    def forget(self, key: Hashable) -> None:
        self._shed_at.pop(key, None)

    def clear(self) -> None:
        self._shed_at.clear()

    def __len__(self) -> int:
        return len(self._shed_at)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._shed_at

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._shed_at),
            "capacity": self.capacity,
            "cooldown": self.cooldown,
            "recorded": self.recorded,
            "blocked": self.blocked,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"GhostList(entries={len(self._shed_at)}/{self.capacity}, cooldown={self.cooldown})"
