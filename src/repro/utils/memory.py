"""Deep object-size metering: the JAMM memory-meter analogue (paper Fig. 11).

:func:`deep_sizeof` walks an object graph once (cycle-safe) summing
``sys.getsizeof`` and counting shared objects once: cTrie snapshots share
almost all of their nodes with the parent, and the point of Fig. 11 and of
the MVCC design is that shared state is *not* double-counted. :class:`Ledger`
keeps a block store's bytes by the same walk, a part at a time (DESIGN.md §10).
"""

from __future__ import annotations

import operator
import sys
from itertools import chain
from typing import Any, Callable

import numpy as np

#: Not walked into. A class is program structure, and its ``__dict__`` is a
#: fresh proxy on every read whose id is free again when the walk ends.
_ATOMIC_TYPES = (int, float, complex, bool, str, bytes, type(None), range, type)
#: Sized where they are found rather than pushed: most of a row list.
_LEAVES = frozenset((int, float, bool, str, bytes, type(None), bytearray))
_ARRAY, _SEQUENCE, _MAPPING, _ATOM, _OBJECT = range(5)
_KINDS = ((_ARRAY, np.ndarray), (_SEQUENCE, (list, tuple, set, frozenset)), (_MAPPING, dict),
          (_ATOM, (*_ATOMIC_TYPES, bytearray, memoryview)))
#: type -> (how the walk enters its instances, slot names of it and its bases).
_SHAPES: dict[type, tuple[int, tuple[str, ...]]] = {}
_UNSET = object()  # an empty slot


def _shape(cls: type) -> tuple[int, tuple[str, ...]]:
    kind = next((kind for kind, bases in _KINDS if issubclass(cls, bases)), _OBJECT)
    slots = (vars(klass).get("__slots__", ()) for klass in cls.__mro__)
    names = chain.from_iterable((s,) if isinstance(s, str) else s for s in slots)
    _SHAPES[cls] = shape = (kind, tuple(dict.fromkeys(names)))
    return shape


def deep_sizeof(obj: Any, *, seen: set[int] | None = None,
                size_of: Callable[[Any], int] = sys.getsizeof) -> int:
    """Return the total bytes reachable from ``obj``, counting shared objects once.

    ``seen`` may be passed in to measure *incremental* footprint: objects
    already in ``seen`` are counted as zero and not walked, so
    ``deep_sizeof(snapshot, seen=parent_seen)`` — ``parent_seen`` the set an
    earlier ``deep_sizeof(parent, seen=parent_seen)`` filled — yields only the
    delta a snapshot adds over its parent. The walk adds the ``id`` of every
    object it reaches to ``seen``.
    """
    return sum(object_sizes(obj, seen=set() if seen is None else seen, size_of=size_of).values())


def object_sizes(obj: Any, *, seen: set[int], size_of: Callable[[Any], int] = sys.getsizeof,
                 dicts: "list[dict] | None" = None) -> dict[int, int]:
    """:func:`deep_sizeof`'s walk, itemised: ``id -> size`` of every object it
    reaches, skipping (and not entering) the ids in ``seen``, which it extends.
    ``dicts`` collects the instance ``__dict__`` objects walked: CPython sizes
    one sharing its keys with its class by how many instances were made, so
    its size drifts while the object stays put."""
    stack, sizes = [obj], {}
    while stack:
        o = stack.pop()
        oid = id(o)
        if oid in seen:
            continue
        seen.add(oid)
        sizes[oid] = size_of(o)
        kind, slots = _SHAPES.get(type(o)) or _shape(type(o))
        if kind == _SEQUENCE:
            children = o
        elif kind == _OBJECT:
            children = [getattr(o, slot, _UNSET) for slot in slots]
            d = getattr(o, "__dict__", None)
            if d is not None:
                children.append(d)
                if dicts is not None and id(d) not in seen and not callable(o):
                    dicts.append(d)
        elif kind == _MAPPING:
            children = [*o, *o.values()]
        elif kind == _ARRAY:
            children = [] if o.base is None else [o.base]
            if o.dtype.hasobject:
                children += o.tolist()  # the elements are references
        else:
            continue
        for child in children:
            if type(child) in _LEAVES:
                cid = id(child)
                if cid not in seen:
                    seen.add(cid)
                    sizes[cid] = size_of(child)
            elif child is not _UNSET:
                stack.append(child)
    return sizes


def _parts_of(value: Any) -> list:
    """A block's parts, the value itself first: a list of partitions adds
    each partition (its shell) and its ``parts()``. Anything else is one
    part, walked once when it is stored."""
    items = value if isinstance(value, (list, tuple)) else (value,)
    if not items or not callable(getattr(items[0], "parts", None)):
        return [value]
    return list({id(p): p for item in items for p in (value, item, *item.parts())}.values())


def _state(parts: list, _meter_state: Callable = operator.methodcaller("meter_state")) -> tuple:
    """What the parts with a ``meter_state()`` report now, in a row."""
    return tuple(chain.from_iterable(map(_meter_state, parts)))


def _same(old: tuple, new: tuple) -> bool:
    return len(old) == len(new) and all(map(operator.is_, old, new))


class Ledger:
    """A block store's bytes as a ledger of parts (DESIGN.md §10).

    A part is walked once (:func:`object_sizes`, stopping at its block's other
    parts) and held, with the state it was walked in, while a block holds it,
    so the ids in its map cannot be reused. A meter point (:meth:`settle`)
    re-reads each block's state and walks again only the parts whose state
    changed. A block is charged what no older block reaches, as one walk of
    the store in LRU order would: only objects two blocks reach need that.
    """

    def __init__(self) -> None:
        #: part id -> (part, state, object id -> bytes, instance dicts)
        self.parts: "dict[int, tuple]" = {}
        #: block id -> [parts with a state, their state, part entries, object id -> bytes,
        #: instance dicts, total bytes, the dicts' sizes]
        self.blocks: "dict[Any, list]" = {}
        self.shared: set[int] = set()  # ids two or more blocks reach

    def add(self, key: Any, value: Any, previous: "dict[int, tuple] | None" = None) -> int:
        """Enter a block; returns the bytes no other block reaches. A part in
        the ledger is taken as it is, one in ``previous`` if its state is
        unchanged; any other is walked."""
        parts = _parts_of(value)
        stops, entries = {id(p) for p in parts}, {}
        for part in parts:
            pid = id(part)
            entry = self.parts.get(pid)
            if entry is None:
                state = part.meter_state() if hasattr(part, "meter_state") else ()
                entry = (previous or {}).get(pid)
                if entry is None or not _same(entry[1], state):
                    dicts: "list[dict]" = []
                    walked = object_sizes(part, seen=stops - {pid}, dicts=dicts)
                    entry = (part, state, walked, dicts)
                self.parts[pid] = entry
            entries[pid] = entry
        maps = [entry[2] for entry in entries.values()]
        sizes = maps[0] if len(maps) == 1 else dict(chain.from_iterable(map(dict.items, maps)))
        known = set().union(*[block[3].keys() & sizes.keys() for block in self.blocks.values()])
        self.shared |= known
        mutable = [part for part in parts if hasattr(part, "meter_state")]
        state = tuple(chain.from_iterable(entries[id(part)][1] for part in mutable))  # as metered
        dicts = [d for entry in entries.values() for d in entry[3]]
        total, dict_sizes = sum(sizes.values()), [sizes[id(d)] for d in dicts]
        self.blocks[key] = [mutable, state, entries, sizes, dicts, total, dict_sizes]
        return total - sum(map(sizes.__getitem__, known))

    def drop(self, key: Any) -> None:
        common = self.shared & self.blocks.pop(key)[3].keys()
        once, twice = set(), set()
        for block in self.blocks.values():
            hit = common & block[3].keys()
            twice |= once & hit
            once |= hit
        self.shared -= common - twice

    def refresh(self, order: "dict[Any, int]", store: "dict[Any, Any]") -> None:
        """Re-read the blocks of ``order`` in ``store``, walk parts whose state changed and drop
        parts no block holds: then no id in the ledger is an object gone since."""
        previous, self.parts = self.parts, {}
        for key in [key for key in self.blocks if key not in order or key not in store]:
            self.drop(key)
        for key in order:
            if key not in store:
                continue
            block = self.blocks.get(key)
            if block is not None and _same(block[1], _state(block[0])):
                self.parts.update(block[2])
            else:
                if block is not None:
                    self.drop(key)
                self.add(key, store[key], previous)
                block = self.blocks[key]
            now = list(map(sys.getsizeof, block[4]))
            if now != block[6]:  # drifted (see object_sizes)
                for entry in block[2].values():
                    entry[2].update((id(d), sys.getsizeof(d)) for d in entry[3])
                block[3].update(zip(map(id, block[4]), now))
                block[5], block[6] = sum(block[3].values()), now

    def settle(self, order: "dict[Any, int]", store: "dict[Any, Any]") -> "dict[Any, int]":
        """A meter point: block id -> charge, for the blocks of ``order`` (LRU first)."""
        self.refresh(order, store)
        charged, charges = set(), {}
        for key in order:
            if key in self.blocks:
                _, _, _, sizes, _, total, _ = self.blocks[key]
                common = self.shared & sizes.keys()
                charges[key] = total - sum(map(sizes.__getitem__, common & charged))
                charged |= common
        return charges
