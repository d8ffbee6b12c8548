"""A partition version's index: a sealed array base under a delta (DESIGN.md
§15), and the :class:`KeyRange` predicate its ordered reads take.

* ``base`` — an immutable :class:`SealedBase`: parallel numpy arrays ``keys``
  (sorted *trie* keys — the key value, or ``hash32`` of a hashed string,
  because backward-pointer chains are threaded by trie key), ``heads`` (the
  packed pointer of each key's newest row) and ``ordered`` (the sorted key
  *values* a range scan enumerates: ``keys`` itself unless those are hashes,
  which destroy order), all ``writeable=False``. A seal builds **new**
  arrays, never in place, so MVCC snapshots holding the old ones are unaffected.
  A first build placed in key order seals a :class:`KeyOrderedBase`, whose
  keys' rows are runs of records (DESIGN.md §15, Runs).
* ``delta`` — the heads written since the last seal: a :class:`WriteBuffer`
  under a seal threshold, the paper's cTrie at threshold 0 (never sealed);
  ``fresh`` is the sorted array of the key values first written since then
  (NULL apart: ``null_key``), immutable like the base, so an ordered read
  seeks it as it seeks the base and never walks the delta.

A batch is published once: the first into an empty index, and any that
brings the delta to ``seal_threshold`` distinct keys, straight into a new
base; the rest into the delta (0 never seals: the paper's cTrie-only index).
:meth:`OrderedIndex.snapshot` copies a buffer of fewer keys than the
threshold, or takes a cTrie's O(1) snapshot.

Concurrency: one writer. Only the task building a version writes its
index, into a partition no other thread holds yet, and published versions
are immutable. A seal still installs the new base *before* the empty delta,
and readers read ``fresh`` / ``delta`` *before* ``base``.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.ctrie import CTrie
from repro.indexed.pointers import NULL_POINTER


class KeyRange:
    """A contiguous key interval: explicit bounds or a string prefix.

    ``lo``/``hi`` of ``None`` mean unbounded on that side. A ``prefix``
    range matches string keys starting with ``prefix``; it also carries
    ``lo = prefix`` so a sorted structure can seek directly to the first
    candidate (keys sharing a prefix are contiguous in sort order).
    """

    __slots__ = ("hi", "hi_inclusive", "lo", "lo_inclusive", "prefix")

    def __init__(
        self,
        lo: Any = None,
        hi: Any = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        prefix: "str | None" = None,
    ) -> None:
        if prefix is not None:
            lo = prefix
            lo_inclusive = True
        self.lo = lo
        self.hi = hi
        self.lo_inclusive = lo_inclusive
        self.hi_inclusive = hi_inclusive
        self.prefix = prefix

    @classmethod
    def prefix_of(cls, prefix: str) -> "KeyRange":
        return cls(prefix=prefix)

    # -- predicate semantics -----------------------------------------------------------

    def matches(self, key: Any) -> bool:
        """Exact membership test — the oracle the index scan must agree with."""
        if self.prefix is not None:
            return isinstance(key, str) and key.startswith(self.prefix)
        lo = self.lo
        if lo is not None:
            if self.lo_inclusive:
                if key < lo:
                    return False
            elif key <= lo:
                return False
        hi = self.hi
        if hi is not None:
            if self.hi_inclusive:
                if key > hi:
                    return False
            elif key >= hi:
                return False
        return True

    def is_empty(self) -> bool:
        """Statically provably empty (reversed bounds, or equal-but-open)."""
        if self.prefix is not None or self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_inclusive and self.hi_inclusive)

    def intersect(self, other: "KeyRange") -> "KeyRange | None":
        """Conjoin two ranges over the same key; None if incompatible.

        Prefix ranges only intersect with themselves-compatible prefixes
        (one extending the other); mixing a prefix with comparison bounds
        is left to the residual predicate instead of risking subtle
        inclusivity bugs.
        """
        if self.prefix is not None or other.prefix is not None:
            if self.prefix is not None and other.prefix is not None:
                if self.prefix.startswith(other.prefix):
                    return self
                if other.prefix.startswith(self.prefix):
                    return other
            return None
        lo, lo_inc = self.lo, self.lo_inclusive
        if other.lo is not None and (
            lo is None or other.lo > lo or (other.lo == lo and not other.lo_inclusive)
        ):
            lo, lo_inc = other.lo, other.lo_inclusive
        hi, hi_inc = self.hi, self.hi_inclusive
        if other.hi is not None and (
            hi is None or other.hi < hi or (other.hi == hi and not other.hi_inclusive)
        ):
            hi, hi_inc = other.hi, other.hi_inclusive
        return KeyRange(lo, hi, lo_inc, hi_inc)

    def describe(self) -> str:
        """Human-readable interval for EXPLAIN output."""
        if self.prefix is not None:
            return f"prefix={self.prefix!r}"
        lo = "(-inf" if self.lo is None else ("[" if self.lo_inclusive else "(") + repr(self.lo)
        hi = "+inf)" if self.hi is None else repr(self.hi) + ("]" if self.hi_inclusive else ")")
        return f"{lo}, {hi}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"KeyRange({self.describe()})"


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class SealedBase(NamedTuple):
    """The immutable tier of an index; shared by every version since its seal."""

    keys: np.ndarray
    heads: np.ndarray
    ordered: np.ndarray

    #: Whether each key's rows are one run of records (:class:`KeyOrderedBase`).
    runs = False

    def find(self, trie_keys: list) -> np.ndarray:
        """Each key's position in ``keys``, or -1: one ``searchsorted`` — key
        by key for a probe without the keys' dtype (None, mixed or foreign
        types, which numpy would compare as text)."""
        keys = self.keys
        if not len(keys):
            return np.full(len(trie_keys), -1, np.intp)
        wanted = np.asarray(trie_keys)
        if wanted.dtype != keys.dtype or wanted.ndim != 1:
            return np.fromiter(map(self.find_one, trie_keys), np.intp, len(trie_keys))
        pos = keys.searchsorted(wanted)
        pos[pos == len(keys)] = 0
        return np.where(keys[pos] == wanted, pos, -1)

    def find_one(self, trie_key: Any) -> int:
        keys = self.keys
        try:
            i = int(keys.searchsorted(trie_key))
            if i < len(keys) and keys[i] == trie_key:
                return i
        except (TypeError, ValueError, OverflowError):
            pass  # None, a tuple, an int past the dtype: no stored key equals it
        return -1

    def span(self, krange: KeyRange) -> "tuple[int, int]":
        """``ordered[i:j]`` are the key values inside ``krange``
        (:func:`_span`)."""
        return _span(self.ordered, krange)


def _span(ordered: np.ndarray, krange: KeyRange) -> "tuple[int, int]":
    """``ordered[i:j]`` are the sorted key values of ``ordered`` inside
    ``krange``: two ``searchsorted`` bounds (a prefix walks forward from its
    seek — prefix-sharing keys are contiguous)."""
    if krange.is_empty():
        return 0, 0
    lo, hi = krange.lo, krange.hi
    if ordered.dtype != object and not all(
        isinstance(bound, (int, float)) for bound in (lo, hi) if bound is not None
    ):  # numpy would compare them as text
        raise TypeError(f"range {krange.describe()} does not compare with {ordered.dtype} keys")
    i = j = 0 if lo is None else int(ordered.searchsorted(lo, "left" if krange.lo_inclusive else "right"))
    if krange.prefix is not None:
        while j < len(ordered) and krange.matches(ordered[j]):
            j += 1
    elif hi is None:
        j = len(ordered)
    else:
        j = int(ordered.searchsorted(hi, "right" if krange.hi_inclusive else "left"))
    return i, j


#: One frozen empty array per dtype: what ``fresh`` is while no key is, shared
#: by every index (a new one a seal would cost each partition ~100 B).
_EMPTY: "dict[np.dtype, np.ndarray]" = {}


def _empty(dtype: np.dtype) -> np.ndarray:
    empty = _EMPTY.get(dtype)
    if empty is None:
        empty = _EMPTY[dtype] = _frozen(np.empty(0, dtype))
    return empty


def _merged(keys: np.ndarray, added: np.ndarray) -> np.ndarray:
    """Two sorted arrays of distinct keys as one."""
    return np.insert(keys, keys.searchsorted(added), added) if len(added) else keys


class KeyOrderedBase(SealedBase):
    """The base a first build placed in key order seals: the rows of
    ``keys[i]`` are the records after ``heads[i - 1]``'s, up to and including
    ``heads[i]``'s (DESIGN.md §15, Runs). The type is the flag: not a byte
    more than a :class:`SealedBase`."""

    __slots__ = ()
    runs = True


class WriteBuffer(dict):
    """A bounded index's delta: a dict with the cTrie's surface. It holds
    fewer keys than the seal threshold and has one writer (DESIGN.md §15),
    so a copy is the whole snapshot."""

    __slots__ = ()
    lookup = dict.get
    insert = dict.__setitem__

    def snapshot(self) -> "WriteBuffer":
        return WriteBuffer(self)


class OrderedIndex:
    """trie key -> newest-row pointer, and the distinct key values in order."""

    __slots__ = ("base", "delta", "delta_writes", "fresh", "hashed", "null_key", "seal_threshold")

    def __init__(self, key_dtype: Any = np.int64, hashed: bool = False, seal_threshold: int = 512):
        self.hashed = hashed
        self.seal_threshold = seal_threshold
        keys = _frozen(np.empty(0, np.int64 if hashed else key_dtype))
        ordered = _frozen(np.empty(0, object)) if hashed else keys
        self.base = SealedBase(keys, _frozen(np.empty(0, np.uint64)), ordered)
        self.delta = WriteBuffer() if seal_threshold else CTrie()
        #: Distinct keys written per batch since the last seal, summed: an
        #: upper bound on ``len(delta)`` that costs no walk.
        self.delta_writes = 0
        #: The non-NULL key values first written since the last seal, sorted:
        #: a new frozen array at each publish that adds one.
        self.fresh = _empty(ordered.dtype)
        #: Whether a NULL key was written: it is never sealed (see :meth:`_seal`).
        self.null_key = False

    def __len__(self) -> int:
        """Distinct key values, O(1)."""
        return len(self.base.ordered) + len(self.fresh) + self.null_key

    # -- point reads -------------------------------------------------------------------

    def head(self, trie_key: Any) -> int:
        """Pointer to the newest row under ``trie_key``, or ``NULL_POINTER``."""
        delta = self.delta
        if self.delta_writes:
            pointer = delta.lookup(trie_key, NULL_POINTER)
            if pointer != NULL_POINTER:
                return pointer
        base = self.base
        i = base.find_one(trie_key)
        return NULL_POINTER if i < 0 else int(base.heads[i])

    def heads(self, trie_keys: Iterable[Any]) -> dict[Any, int]:
        """:meth:`head` of every distinct key: delta probes (if it was
        written), then one :meth:`SealedBase.find` of the base for the rest."""
        out = dict.fromkeys(trie_keys, NULL_POINTER)
        shadowed = self.delta_heads(out)
        missed = [key for key in out if key not in shadowed] if shadowed else list(out)
        out.update(shadowed)
        base = self.base
        if missed and len(base.keys):
            pos = base.find(missed)
            found = np.where(pos >= 0, base.heads[pos], np.uint64(NULL_POINTER)).tolist()
            out.update(zip(missed, found))
        return out

    def delta_heads(self, trie_keys: Iterable[Any]) -> dict[Any, int]:
        """The heads the delta holds for any of ``trie_keys``, in their order
        (none unless it was written). Read it before :attr:`base`."""
        if not self.delta_writes:
            return {}
        lookup = self.delta.lookup
        found = ((key, lookup(key, NULL_POINTER)) for key in trie_keys)
        return {key: head for key, head in found if head != NULL_POINTER}

    def items(self) -> Iterator[tuple[Any, int]]:
        """Every ``(trie key, head)``, each key once (the delta wins)."""
        delta = dict(self.delta.items()) if self.delta_writes else {}
        keys, heads, _ = self.base
        yield from delta.items()
        for key, pointer in zip(keys.tolist(), heads.tolist()):
            if key not in delta:
                yield key, pointer

    # -- writes --------------------------------------------------------------------------

    def publish(self, heads: dict[Any, int], new_keys: list, runs: bool = False) -> None:
        """Make one batch visible: its new chain head per trie key written,
        and the key values no earlier row carried. The first batch into an
        empty index seals whatever its size: a bulk build is arrays at once —
        a :class:`KeyOrderedBase` when the batch says its rows were placed in
        key order from the first record on (``runs``)."""
        empty = not self.delta_writes and not len(self.base.keys)
        if self.seal_threshold and (empty or self.delta_writes + len(heads) >= self.seal_threshold):
            self._seal(heads, new_keys, KeyOrderedBase if runs and empty else SealedBase)
            return
        insert = self.delta.insert
        for key, pointer in heads.items():
            insert(key, pointer)
        self.delta_writes += len(heads)
        if new_keys:
            self._add_fresh(new_keys)

    def _add_fresh(self, new_keys: list) -> None:
        """Merge key values no earlier row carried into a new ``fresh``
        (the delta holds fewer than the seal threshold's keys, so this is a
        small sort; at threshold 0 a merge of two sorted runs)."""
        keys = [key for key in new_keys if key is not None]
        if len(keys) < len(new_keys):
            self.null_key = True
        if keys:
            fresh = self.fresh
            self.fresh = _frozen(_merged(fresh, np.sort(np.fromiter(keys, fresh.dtype, len(keys)))))

    def _seal(self, heads: dict[Any, int], new_keys: list, kind: type = SealedBase) -> None:
        """Fold delta and batch into a new base: ``concatenate`` with the
        updates first, then ``unique`` — a stable sort that keeps the first of
        equal keys, so the newest head replaces the base entry under it.

        A NULL key has no place in a sorted array: it stays in the new delta
        (a hashed index's NULL only leaves ``ordered``: its trie key is a
        hash), counted by ``null_key``, which every range read skips."""
        base = self.base
        updates = dict(self.delta.items()) if self.delta_writes else {}
        updates.update(heads)
        null_head = NULL_POINTER if self.hashed else updates.pop(None, NULL_POINTER)
        n = len(updates)
        keys = np.concatenate([np.fromiter(updates, base.keys.dtype, n), base.keys])
        ptrs = np.concatenate([np.fromiter(updates.values(), np.uint64, n), base.heads])
        keys, first = np.unique(keys, return_index=True)
        _frozen(keys)
        if self.hashed:
            added = [key for key in new_keys if key is not None]  # none is in base.ordered
            null = self.null_key or len(added) < len(new_keys)
            added = np.fromiter(added, object, len(added))
            ordered = np.concatenate([self.fresh, added, base.ordered])
            ordered = _frozen(np.sort(ordered, kind="stable"))
        else:
            null = null_head != NULL_POINTER
            ordered = keys
        self.base = kind(keys, _frozen(ptrs[first]), ordered)  # base first
        self.delta = WriteBuffer({} if null_head == NULL_POINTER else {None: null_head})
        self.delta_writes = int(null_head != NULL_POINTER)
        self.fresh = _empty(ordered.dtype)
        self.null_key = null

    # -- ordered reads -----------------------------------------------------------------

    def range_keys(self, krange: KeyRange) -> list:
        """Distinct key values inside ``krange``, ascending: the base's
        :meth:`SealedBase.span` merged with ``fresh``'s, O(log n + k)."""
        if krange.is_empty():
            return []
        fresh = self.fresh
        base = self.base
        keys = base.ordered[slice(*base.span(krange))]
        return _merged(keys, fresh[slice(*_span(fresh, krange))]).tolist()

    def range_heads(
        self, krange: KeyRange, hash_key: "Callable[[Any], Any] | None" = None
    ) -> "tuple[list, list[int]]":
        """The key values inside ``krange``, ascending, and the chain head
        each is read from (``NULL_POINTER`` for a key of a batch not yet
        published): one seek into each sorted tier, O(log n + k), whatever
        the delta holds. The base's keys take their heads by position, the
        delta's heads overlay the keys it shadows, and the ``fresh`` keys are
        merged in by ``searchsorted``. A hashed index's keys take theirs from
        one :meth:`heads` of their trie keys, ``hash_key`` of each."""
        if krange.is_empty():
            return [], []
        fresh = self.fresh  # fresh and delta before the base, as every reader reads
        lookup = self.delta.lookup if self.delta_writes else None
        base = self.base
        i, j = base.span(krange)
        keys = base.ordered[i:j]
        added = fresh[slice(*_span(fresh, krange))]
        if self.hashed:
            keys = _merged(keys, added).tolist()
            trie_keys = list(map(hash_key, keys))
            found = self.heads(trie_keys)
            return keys, list(map(found.__getitem__, trie_keys))
        pointers = base.heads[i:j]
        if len(added):
            at = keys.searchsorted(added)
            keys, pointers = np.insert(keys, at, added), np.insert(pointers, at, NULL_POINTER)
        keys = keys.tolist()
        pointers = pointers.tolist()
        if lookup is not None:  # the delta wins: the base keys it shadows, and every fresh key
            pointers = list(map(lookup, keys, pointers))
        return keys, pointers

    def min_key(self) -> Any:
        ends = [*self.base.ordered[:1].tolist(), *self.fresh[:1].tolist()]
        return min(ends) if ends else None

    def max_key(self) -> Any:
        ends = [*self.base.ordered[-1:].tolist(), *self.fresh[-1:].tolist()]
        return max(ends) if ends else None

    # -- MVCC --------------------------------------------------------------------------

    def snapshot(self) -> "OrderedIndex":
        """A child: shares base and ``fresh`` (immutable arrays), snapshots the delta."""
        child = copy.copy(self)
        child.delta = self.delta.snapshot()
        return child
