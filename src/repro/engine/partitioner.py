"""Partitioners: how keys map to partitions.

The Indexed DataFrame is *hash partitioned* on the indexed column
(Section III-C: "ensures better load balancing when key ranges are not
known a-priori"); lookups and probe-side shuffles must agree with the index
about key placement, so partitioner equality is semantic (two
HashPartitioners with the same partition count place keys identically).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Sequence

import numpy as np

from repro.utils.hashing import partition_column, partition_for


class Partitioner:
    """Maps keys to partition ids in ``[0, num_partitions)``."""

    num_partitions: int

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def partition_array(self, keys: Sequence[Any]) -> np.ndarray:
        """Vectorizable bulk version of :meth:`partition`."""
        return np.fromiter(
            (self.partition(k) for k in keys), dtype=np.int64, count=len(keys)
        )

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key in hot paths
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Deterministic hash partitioning (the index's scheme)."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        return partition_for(key, self.num_partitions)

    def partition_array(self, keys: Sequence[Any]) -> np.ndarray:
        return partition_column(keys, self.num_partitions)

    def __repr__(self) -> str:
        return f"HashPartitioner({self.num_partitions})"


class RangePartitioner(Partitioner):
    """Range partitioning over sorted split points (used by sort-merge join)."""

    def __init__(self, bounds: Sequence[Any]) -> None:
        self.bounds = list(bounds)
        self.num_partitions = len(self.bounds) + 1

    @classmethod
    def from_sample(cls, sample: Sequence[Any], num_partitions: int) -> "RangePartitioner":
        """Derive split points from a sample, like Spark's range partitioner."""
        if num_partitions <= 1 or not sample:
            return cls([])
        ordered = sorted(sample)
        bounds = []
        for i in range(1, num_partitions):
            idx = min(len(ordered) - 1, i * len(ordered) // num_partitions)
            bounds.append(ordered[idx])
        # De-duplicate while preserving order (skewed samples collapse bounds).
        uniq = []
        for b in bounds:
            if not uniq or b > uniq[-1]:
                uniq.append(b)
        return cls(uniq)

    def partition(self, key: Any) -> int:
        return bisect_right(self.bounds, key)

    def __repr__(self) -> str:
        return f"RangePartitioner(bounds={len(self.bounds)})"
