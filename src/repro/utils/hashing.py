"""Hash functions for partitioning and for the cTrie.

Two requirements drive this module:

* **Determinism across processes.** Python's builtin ``hash`` is salted for
  strings, so partition placement would not be reproducible between runs.
  We use a splitmix64-style finalizer for integers and FNV-1a for bytes,
  both stable and well-mixed.
* **Vectorization.** Shuffle partitioning hashes whole key columns; doing
  that row-by-row in Python dominates runtime, so :func:`hash_column`
  applies the same mixers with numpy (guide: vectorize for-loops).

The paper hashes string keys into a 32-bit number before using them as cTrie
keys (Section IV-E, Fig. 15 discussion); :func:`hash32` is that function.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _splitmix64(x: int) -> int:
    """Finalizer of the splitmix64 generator: a cheap, strong 64-bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def hash64(key: object) -> int:
    """Deterministic 64-bit hash of a scalar key (int, float, str, bytes, bool, None).

    Equal keys hash equal, as with Python's ``hash``: a bool hashes as its
    int and an integral float (``7.0``, ``-0.0``) as its int, so ``7`` finds
    the partition and trie slot of a DOUBLE key ``7.0``.
    """
    if key is None:
        return 0x9E3779B97F4A7C15
    if isinstance(key, (int, np.integer, np.bool_)):
        return _splitmix64(int(key) & _MASK64)
    if isinstance(key, (float, np.floating)):
        f = float(key)
        if f.is_integer():
            return _splitmix64(int(f) & _MASK64)
        return _splitmix64(np.float64(f).view(np.uint64).item())
    if isinstance(key, str):
        return _fnv1a(key.encode("utf-8"))
    if isinstance(key, (bytes, bytearray)):
        return _fnv1a(bytes(key))
    if isinstance(key, tuple):
        h = 0x345678
        for item in key:
            h = _splitmix64(h ^ hash64(item))
        return h
    raise TypeError(f"unhashable key type for deterministic hashing: {type(key)!r}")


def hash32(key: object) -> int:
    """32-bit fold of :func:`hash64`; the paper's string-to-int key transform."""
    h = hash64(key)
    return (h ^ (h >> 32)) & _MASK32


def partition_for(key: object, num_partitions: int) -> int:
    """Map a key to a partition id in ``[0, num_partitions)``."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return hash64(key) % num_partitions


#: The Python types a list of keys is hashed in bulk for, when every key has it.
_BULK_DTYPES = {int: np.int64, float: np.float64, bool: np.bool_}


def hash_column(values: "np.ndarray | Iterable[object]") -> np.ndarray:
    """Vectorized :func:`hash64` over a column; returns ``uint64`` array.

    Integer, bool and float arrays are mixed entirely in numpy. A list is
    made an array only when every key is an int, every one a float or every
    one a bool: numpy would promote a mix (``[7, 2.5]`` to floats, an int
    past ``2**63`` to a float) and hash what it made. Anything else
    (strings, None, mixed) is hashed key by key; every path equals
    :func:`hash64`, which property tests assert.
    """
    if not isinstance(values, np.ndarray):
        keys = list(values)
        kinds = set(map(type, keys))
        dtype = _BULK_DTYPES.get(kinds.pop()) if len(kinds) == 1 else None
        try:
            values = None if dtype is None else np.array(keys, dtype)
        except OverflowError:  # an int outside int64
            values = None
        if values is None:
            return np.fromiter(map(hash64, keys), np.uint64, len(keys))
    if values.dtype.kind in "iub":
        return _splitmix64_np(values.astype(np.uint64, copy=False))
    if values.dtype.kind == "f":
        return _hash_floats(values.astype(np.float64))
    return np.fromiter(map(hash64, values.tolist()), np.uint64, values.size)


def _hash_floats(x: np.ndarray) -> np.ndarray:
    """:func:`hash64` of float64s: an integral one as its int, else its bits."""
    out = _splitmix64_np(x.view(np.uint64))
    whole = np.isfinite(x) & (x == np.trunc(x))
    small = whole & (np.abs(x) < 2.0**63)
    out[small] = _splitmix64_np(x[small].astype(np.int64).astype(np.uint64))
    big = np.flatnonzero(whole & ~small)  # integral beyond int64: rare, by Python int
    out[big] = [hash64(f) for f in x[big].tolist()]
    return out


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def partition_column(values: "np.ndarray | Iterable[object]", num_partitions: int) -> np.ndarray:
    """Vectorized :func:`partition_for` over a column; returns ``int64`` array."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return (hash_column(values) % np.uint64(num_partitions)).astype(np.int64)
