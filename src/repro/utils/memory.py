"""Deep object-size metering: the JAMM memory-meter analogue (paper Fig. 11).

The paper instruments the cTrie with JAMM to show the per-partition index
overhead stays under 2% of the data size. :func:`deep_sizeof` walks an object
graph once (cycle-safe, shared-structure-aware) summing ``sys.getsizeof``.
Shared-structure awareness matters here: cTrie snapshots share almost all of
their nodes with the parent, and the whole point of Fig. 11 / the MVCC design
is that shared state is *not* double-counted.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

import numpy as np

_ATOMIC_TYPES = (int, float, complex, bool, str, bytes, type(None), range)

#: type -> the slot names of it and its bases, resolved once per type.
_SLOT_NAMES: dict[type, tuple[str, ...]] = {}
_UNSET = object()  # an empty slot


def _slot_names(cls: type) -> tuple[str, ...]:
    names = _SLOT_NAMES.get(cls)
    if names is None:
        found: list[str] = []
        for klass in cls.__mro__:
            slots = klass.__dict__.get("__slots__", ())
            found.extend((slots,) if isinstance(slots, str) else slots)
        names = _SLOT_NAMES[cls] = tuple(dict.fromkeys(found))
    return names


def deep_sizeof(
    obj: Any,
    *,
    seen: set[int] | None = None,
    size_of: Callable[[Any], int] = sys.getsizeof,
) -> int:
    """Return the total bytes reachable from ``obj``, counting shared objects once.

    ``seen`` may be passed in to measure *incremental* footprint: objects
    already in ``seen`` are counted as zero and not walked, so
    ``deep_sizeof(snapshot, seen=parent_seen)`` — ``parent_seen`` the set an
    earlier ``deep_sizeof(parent, seen=parent_seen)`` filled — yields only the
    delta a snapshot adds over its parent. The walk adds the ``id`` of every
    object it reaches to ``seen``.
    """
    if seen is None:
        seen = set()
    stack = [obj]
    total = 0
    while stack:
        o = stack.pop()
        oid = id(o)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(o, np.ndarray):
            total += size_of(o)
            if o.base is not None:
                stack.append(o.base)
            if o.dtype.hasobject:
                stack.extend(o.tolist())  # the elements are references
            continue
        total += size_of(o)
        if isinstance(o, _ATOMIC_TYPES):
            continue
        if isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (bytearray, memoryview)):
            continue
        else:
            d = getattr(o, "__dict__", None)
            if d is not None:
                stack.append(d)
            for slot in _slot_names(type(o)):
                value = getattr(o, slot, _UNSET)
                if value is not _UNSET:
                    stack.append(value)
    return total
