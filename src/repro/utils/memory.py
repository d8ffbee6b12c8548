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


def deep_sizeof(
    obj: Any,
    *,
    seen: set[int] | None = None,
    size_of: Callable[[Any], int] = sys.getsizeof,
) -> int:
    """Return the total bytes reachable from ``obj``, counting shared objects once.

    ``seen`` may be passed in to measure *incremental* footprint: objects
    already in ``seen`` are counted as zero, so
    ``deep_sizeof(snapshot, seen=ids_of(parent))`` yields only the delta a
    snapshot adds over its parent.
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
            slots = getattr(type(o), "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for cls in type(o).__mro__:
                for slot in getattr(cls, "__slots__", ()) or ():
                    if isinstance(slot, str) and hasattr(o, slot):
                        stack.append(getattr(o, slot))
    return total


def reachable_ids(obj: Any) -> set[int]:
    """Return the ``id``s of every object reachable from ``obj``.

    Used together with :func:`deep_sizeof`'s ``seen`` parameter to measure
    snapshot deltas.
    """
    seen: set[int] = set()
    deep_sizeof(obj, seen=seen)
    return seen
