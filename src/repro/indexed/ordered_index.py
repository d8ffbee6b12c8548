"""A partition version's index: a sealed array base under a cTrie delta
(DESIGN.md §15), and the :class:`KeyRange` predicate its ordered reads take.

* ``base`` — an immutable :class:`SealedBase`: parallel numpy arrays ``keys``
  (sorted *trie* keys — the key value, or ``hash32`` of a hashed string,
  because backward-pointer chains are threaded by trie key), ``heads`` (the
  packed pointer of each key's newest row) and ``ordered`` (the sorted key
  *values* a range scan enumerates: ``keys`` itself unless those are hashes,
  which destroy order), all ``writeable=False``. A seal builds **new**
  arrays, never in place, so MVCC snapshots holding the old ones are unaffected.
  A first build placed in key order seals a :class:`KeyOrderedBase`, whose
  keys' rows are runs of records (DESIGN.md §15, Runs).
* ``delta`` — the paper's cTrie, holding only the heads written since the
  last seal; ``fresh`` is the persistent (cons-cell) list of the key values
  first written since then, so an ordered read need not walk the trie.

A batch is published once: the first into an empty index, and any that
brings the delta to ``seal_threshold`` distinct keys, straight into a new
base; the rest into the delta (0 never seals: the paper's cTrie-only index).
:meth:`OrderedIndex.snapshot` is O(1).

Concurrency: published versions are immutable, so the only concurrent pair
is an in-flight build and an eager reader of the same version. A seal
installs the new base *before* the empty delta and readers read ``delta`` /
``fresh`` *before* ``base`` (plain assignments), so a reader sees every key
published before it started — through the old delta, the new base, or both.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, Iterator, NamedTuple

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
        by key for object (string) keys and for a probe without the keys'
        dtype (None, mixed or foreign types, which numpy would compare as text)."""
        keys = self.keys
        if not len(keys):
            return np.full(len(trie_keys), -1, np.intp)
        wanted = None if keys.dtype == object else np.asarray(trie_keys)
        if wanted is None or wanted.dtype != keys.dtype or wanted.ndim != 1:
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


class KeyOrderedBase(SealedBase):
    """The base a first build placed in key order seals: the rows of
    ``keys[i]`` are the records after ``heads[i - 1]``'s, up to and including
    ``heads[i]``'s (DESIGN.md §15, Runs). The type is the flag: not a byte
    more than a :class:`SealedBase`."""

    __slots__ = ()
    runs = True


class OrderedIndex:
    """trie key -> newest-row pointer, and the distinct key values in order."""

    __slots__ = ("base", "delta", "delta_writes", "fresh", "fresh_len", "hashed", "seal_threshold")

    def __init__(self, key_dtype: Any = np.int64, hashed: bool = False, seal_threshold: int = 512):
        self.hashed = hashed
        self.seal_threshold = seal_threshold
        keys = _frozen(np.empty(0, np.int64 if hashed else key_dtype))
        ordered = _frozen(np.empty(0, object)) if hashed else keys
        self.base = SealedBase(keys, _frozen(np.empty(0, np.uint64)), ordered)
        self.delta = CTrie()
        #: Distinct keys written per batch since the last seal, summed: an
        #: upper bound on ``len(delta)`` that costs no trie walk.
        self.delta_writes = 0
        self.fresh: "tuple | None" = None
        self.fresh_len = 0

    def __len__(self) -> int:
        """Distinct key values, O(1)."""
        return len(self.base.ordered) + self.fresh_len

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
            self.fresh = (new_keys, self.fresh)
            self.fresh_len += len(new_keys)

    def _seal(self, heads: dict[Any, int], new_keys: list, kind: type = SealedBase) -> None:
        """Fold delta and batch into a new base: ``concatenate`` with the
        updates first, then ``unique`` — a stable sort that keeps the first of
        equal keys, so the newest head replaces the base entry under it.

        A NULL key has no place in a sorted array: it stays in the new delta
        (a hashed index's NULL only leaves ``ordered``: its trie key is a
        hash), and in ``fresh``, which every range read skips it in."""
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
            fresh = [*self._fresh_keys(), *new_keys]  # none is in base.ordered, none repeats
            null = None in fresh
            if null:
                fresh.remove(None)
            ordered = np.concatenate([np.fromiter(fresh, object, len(fresh)), base.ordered])
            ordered = _frozen(np.sort(ordered, kind="stable"))
        else:
            null = null_head != NULL_POINTER
            ordered = keys
        delta = CTrie()
        if null_head != NULL_POINTER:
            delta.insert(None, null_head)
        self.base = kind(keys, _frozen(ptrs[first]), ordered)  # base first
        self.delta = delta
        self.delta_writes = int(null_head != NULL_POINTER)
        self.fresh = ([None], None) if null else None
        self.fresh_len = int(null)

    def _fresh_keys(self) -> Iterator[Any]:
        node = self.fresh
        while node is not None:
            chunk, node = node
            yield from chunk

    # -- ordered reads -----------------------------------------------------------------

    def range_keys(self, krange: KeyRange) -> list:
        """Distinct key values inside ``krange``, ascending: the base between
        two ``searchsorted`` bounds (a prefix walks forward from its seek —
        prefix-sharing keys are contiguous) overlaid with the ``fresh`` keys."""
        if krange.is_empty():
            return []
        extra = [key for key in self._fresh_keys() if key is not None and krange.matches(key)]
        ordered = self.base.ordered
        lo, hi = krange.lo, krange.hi
        if ordered.dtype != object and not all(
            isinstance(bound, (int, float)) for bound in (lo, hi) if bound is not None
        ):  # numpy would compare them as text
            raise TypeError(f"range {krange.describe()} does not compare with {ordered.dtype} keys")
        i = j = 0 if lo is None else ordered.searchsorted(lo, "left" if krange.lo_inclusive else "right")
        if krange.prefix is not None:
            while j < len(ordered) and krange.matches(ordered[j]):
                j += 1
        elif hi is None:
            j = len(ordered)
        else:
            j = ordered.searchsorted(hi, "right" if krange.hi_inclusive else "left")
        out = ordered[i:j].tolist()
        if extra:
            out.extend(extra)
            out.sort()
        return out

    def min_key(self) -> Any:
        keys = self.range_keys(KeyRange())
        return keys[0] if keys else None

    def max_key(self) -> Any:
        keys = self.range_keys(KeyRange())
        return keys[-1] if keys else None

    # -- MVCC --------------------------------------------------------------------------

    def snapshot(self) -> "OrderedIndex":
        """O(1) child: shares base and ``fresh``, snapshots the delta."""
        child = copy.copy(self)
        child.delta = self.delta.snapshot()
        return child
