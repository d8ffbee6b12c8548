"""Shared low-level utilities: atomics, hashing, memory metering."""

from repro.utils.atomic import AtomicReference
from repro.utils.hashing import hash32, hash64, hash_column, partition_for
from repro.utils.memory import deep_sizeof

__all__ = [
    "AtomicReference",
    "deep_sizeof",
    "hash32",
    "hash64",
    "hash_column",
    "partition_for",
]
