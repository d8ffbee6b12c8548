"""The CTrie itself: insert / lookup / remove / snapshot.

Algorithm structure follows the PPoPP'12 paper: recursive ``iinsert`` /
``ilookup`` / ``iremove`` that restart (``_RESTART``) when a CAS loses a
race or when a generation mismatch forces path renewal; snapshots swap the
root with an RDCSS (restricted double-compare single-swap) so the root swap
is atomic with respect to the root's *content* read.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.ctrie.nodes import (
    _NO_VALUE,
    CNode,
    Gen,
    INode,
    LNode,
    MainNode,
    SNode,
    TNode,
    W,
    iterate_main,
)
from repro.utils.atomic import AtomicReference
from repro.utils.hashing import hash32


class _Restart(Exception):
    """Internal control flow: retry the operation from the root."""


_RESTART = _Restart()


class _RDCSSDescriptor:
    __slots__ = ("committed", "expected_main", "new_value", "old_value")

    def __init__(self, old_value: INode, expected_main: MainNode, new_value: INode):
        self.old_value = old_value
        self.expected_main = expected_main
        self.new_value = new_value
        self.committed = False


class CTrie:
    """A concurrent hash trie map with O(1) snapshots.

    Examples
    --------
    >>> t = CTrie()
    >>> t.insert("a", 1)
    >>> t.lookup("a")
    1
    >>> snap = t.snapshot()
    >>> t.insert("a", 2)
    >>> snap.lookup("a")   # snapshot unaffected by later writes
    1
    """

    def __init__(self, *, _root: INode | None = None, _read_only: bool = False) -> None:
        if _root is None:
            gen = Gen()
            _root = INode(CNode(0, (), gen), gen)
        self._root: AtomicReference[Any] = AtomicReference(_root)
        self.read_only = _read_only

    # ------------------------------------------------------------------ RDCSS

    def rdcss_read_root(self, abort: bool = False) -> INode:
        r = self._root.get()
        if isinstance(r, _RDCSSDescriptor):
            return self._rdcss_complete(abort)
        return r

    def _rdcss_complete(self, abort: bool) -> INode:
        while True:
            r = self._root.get()
            if isinstance(r, INode):
                return r
            desc = r
            ov, exp, nv = desc.old_value, desc.expected_main, desc.new_value
            if abort:
                if self._root.compare_and_set(desc, ov):
                    return ov
                continue
            old_main = ov.gcas_read(self)
            if old_main is exp:
                if self._root.compare_and_set(desc, nv):
                    desc.committed = True
                    return nv
            else:
                if self._root.compare_and_set(desc, ov):
                    return ov

    def _rdcss_root(self, ov: INode, expected_main: MainNode, nv: INode) -> bool:
        desc = _RDCSSDescriptor(ov, expected_main, nv)
        if self._root.compare_and_set(ov, desc):
            self._rdcss_complete(abort=False)
            return desc.committed
        return False

    # ------------------------------------------------------------------ public API

    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key`` (thread-safe)."""
        self._ensure_writable()
        h = hash32(key)
        while True:
            root = self.rdcss_read_root()
            try:
                self._iinsert(root, key, value, h, 0, None, root.gen)
                return
            except _Restart:
                continue

    def lookup(self, key: Any, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default``."""
        h = hash32(key)
        while True:
            root = self.rdcss_read_root()
            try:
                res = self._ilookup(root, key, h, 0, None, root.gen)
            except _Restart:
                continue
            return default if res is _NO_VALUE else res

    def contains(self, key: Any) -> bool:
        return self.lookup(key, _NO_VALUE) is not _NO_VALUE

    def remove(self, key: Any) -> Any:
        """Remove ``key``; returns the removed value or ``None`` if absent."""
        self._ensure_writable()
        h = hash32(key)
        while True:
            root = self.rdcss_read_root()
            try:
                res = self._iremove(root, key, h, 0, None, root.gen)
            except _Restart:
                continue
            return None if res is _NO_VALUE else res

    def snapshot(self) -> "CTrie":
        """O(1) writable snapshot sharing all state with this trie.

        Both the snapshot and the original receive fresh generations, so
        whichever side writes first copies only the path it touches
        (copy-on-write at node granularity). This is exactly the mechanism
        the Indexed DataFrame's append/MVCC relies on (paper Section III-E).
        """
        while True:
            root = self.rdcss_read_root()
            expected = root.gcas_read(self)
            if self._rdcss_root(root, expected, root.copy_to_gen(Gen(), self)):
                return CTrie(_root=INode(expected, Gen()))

    def read_only_snapshot(self) -> "CTrie":
        """O(1) read-only snapshot: supports lookup/iterate but not writes."""
        while True:
            root = self.rdcss_read_root()
            expected = root.gcas_read(self)
            if self._rdcss_root(root, expected, root.copy_to_gen(Gen(), self)):
                return CTrie(_root=INode(expected, Gen()), _read_only=True)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Iterate (key, value) pairs over a consistent read-only snapshot."""
        src = self if self.read_only else self.read_only_snapshot()
        root = src.rdcss_read_root()
        yield from iterate_main(root.gcas_read(src), src)

    def keys(self) -> Iterator[Any]:
        for k, _ in self.items():
            yield k

    def values(self) -> Iterator[Any]:
        for _, v in self.items():
            yield v

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def __contains__(self, key: Any) -> bool:
        return self.contains(key)

    def __getitem__(self, key: Any) -> Any:
        res = self.lookup(key, _NO_VALUE)
        if res is _NO_VALUE:
            raise KeyError(key)
        return res

    def __setitem__(self, key: Any, value: Any) -> None:
        self.insert(key, value)

    def __iter__(self) -> Iterator[Any]:
        return self.keys()

    def to_dict(self) -> dict:
        return dict(self.items())

    # ------------------------------------------------------------------ internals

    def _ensure_writable(self) -> None:
        if self.read_only:
            raise RuntimeError("cannot modify a read-only cTrie snapshot")

    def _iinsert(
        self,
        inode: INode,
        key: Any,
        value: Any,
        h: int,
        lev: int,
        parent: INode | None,
        startgen: Gen,
    ) -> None:
        main = inode.gcas_read(self)
        if isinstance(main, CNode):
            idx = (h >> lev) & 0x1F
            flag = 1 << idx
            bmp = main.bitmap
            pos = bin(bmp & (flag - 1)).count("1")
            if bmp & flag == 0:
                # Empty slot: extend the CNode with a new leaf.
                renewed = main if inode.gen is startgen else main.renewed(startgen, self)
                updated = renewed.inserted_at(pos, flag, SNode(key, value, h))
                if not inode.gcas(main, updated, self):
                    raise _RESTART
                return
            branch = main.array[pos]
            if isinstance(branch, INode):
                if branch.gen is startgen:
                    self._iinsert(branch, key, value, h, lev + W, inode, startgen)
                    return
                # Stale generation: renew this CNode's children then retry.
                if inode.gcas(main, main.renewed(startgen, self), self):
                    self._iinsert(inode, key, value, h, lev, parent, startgen)
                    return
                raise _RESTART
            # branch is an SNode
            sn = branch
            if sn.hash == h and sn.key == key:
                renewed = main if inode.gen is startgen else main.renewed(startgen, self)
                if not inode.gcas(main, renewed.updated_at(pos, SNode(key, value, h)), self):
                    raise _RESTART
                return
            renewed = main if inode.gen is startgen else main.renewed(startgen, self)
            nn = INode(
                CNode.dual(sn, sn.hash, SNode(key, value, h), h, lev + W, startgen),
                startgen,
            )
            if not inode.gcas(main, renewed.updated_at(pos, nn), self):
                raise _RESTART
            return
        if isinstance(main, TNode):
            self._clean(parent, lev - W)
            raise _RESTART
        if isinstance(main, LNode):
            if not inode.gcas(main, main.inserted(key, value), self):
                raise _RESTART
            return
        raise AssertionError(f"unexpected main node {main!r}")  # pragma: no cover

    def _ilookup(
        self,
        inode: INode,
        key: Any,
        h: int,
        lev: int,
        parent: INode | None,
        startgen: Gen,
    ) -> Any:
        main = inode.gcas_read(self)
        if isinstance(main, CNode):
            idx = (h >> lev) & 0x1F
            flag = 1 << idx
            bmp = main.bitmap
            if bmp & flag == 0:
                return _NO_VALUE
            pos = bin(bmp & (flag - 1)).count("1")
            branch = main.array[pos]
            if isinstance(branch, INode):
                if self.read_only or branch.gen is startgen:
                    return self._ilookup(branch, key, h, lev + W, inode, startgen)
                if inode.gcas(main, main.renewed(startgen, self), self):
                    return self._ilookup(inode, key, h, lev, parent, startgen)
                raise _RESTART
            sn = branch
            if sn.hash == h and sn.key == key:
                return sn.value
            return _NO_VALUE
        if isinstance(main, TNode):
            if self.read_only:
                if main.hash == h and main.key == key:
                    return main.value
                return _NO_VALUE
            self._clean(parent, lev - W)
            raise _RESTART
        if isinstance(main, LNode):
            return main.get(key)
        raise AssertionError(f"unexpected main node {main!r}")  # pragma: no cover

    def _iremove(
        self,
        inode: INode,
        key: Any,
        h: int,
        lev: int,
        parent: INode | None,
        startgen: Gen,
    ) -> Any:
        main = inode.gcas_read(self)
        if isinstance(main, CNode):
            idx = (h >> lev) & 0x1F
            flag = 1 << idx
            bmp = main.bitmap
            if bmp & flag == 0:
                return _NO_VALUE
            pos = bin(bmp & (flag - 1)).count("1")
            branch = main.array[pos]
            if isinstance(branch, INode):
                if branch.gen is startgen:
                    res = self._iremove(branch, key, h, lev + W, inode, startgen)
                else:
                    if inode.gcas(main, main.renewed(startgen, self), self):
                        res = self._iremove(inode, key, h, lev, parent, startgen)
                    else:
                        raise _RESTART
            else:
                sn = branch
                if sn.hash == h and sn.key == key:
                    renewed = main if inode.gen is startgen else main.renewed(startgen, self)
                    ncn = self._to_contracted(renewed.removed_at(pos, flag), lev)
                    if inode.gcas(main, ncn, self):
                        res = sn.value
                    else:
                        raise _RESTART
                else:
                    return _NO_VALUE
            if res is _NO_VALUE:
                return res
            # Contraction: if removal left a tomb, compress the path upward.
            if parent is not None:
                m = inode.gcas_read(self)
                if isinstance(m, TNode):
                    self._clean_parent(parent, inode, h, lev - W, startgen)
            return res
        if isinstance(main, TNode):
            self._clean(parent, lev - W)
            raise _RESTART
        if isinstance(main, LNode):
            value = main.get(key)
            if value is _NO_VALUE:
                return _NO_VALUE
            nn: MainNode = main.removed(key)
            if len(nn) == 1:
                (k, v) = nn.entries[0]
                nn = TNode(k, v, hash32(k))
            if inode.gcas(main, nn, self):
                return value
            raise _RESTART
        raise AssertionError(f"unexpected main node {main!r}")  # pragma: no cover

    # -- path compression helpers -------------------------------------------

    def _to_contracted(self, cn: CNode, lev: int) -> MainNode:
        if lev > 0 and len(cn.array) == 1:
            branch = cn.array[0]
            if isinstance(branch, SNode):
                return branch.copy_tombed()
        return cn

    def _to_compressed(self, cn: CNode, lev: int) -> MainNode:
        new_array = []
        for branch in cn.array:
            if isinstance(branch, INode):
                inner = branch.gcas_read(self)
                if isinstance(inner, TNode):
                    new_array.append(inner.copy_untombed())
                    continue
            new_array.append(branch)
        return self._to_contracted(CNode(cn.bitmap, tuple(new_array)), lev)

    def _clean(self, inode: INode | None, lev: int) -> None:
        if inode is None:
            return
        main = inode.gcas_read(self)
        if isinstance(main, CNode):
            inode.gcas(main, self._to_compressed(main, lev), self)

    def _clean_parent(self, parent: INode, inode: INode, h: int, lev: int, startgen: Gen) -> None:
        while True:
            pmain = parent.gcas_read(self)
            if not isinstance(pmain, CNode):
                return
            idx = (h >> lev) & 0x1F
            flag = 1 << idx
            if pmain.bitmap & flag == 0:
                return
            pos = bin(pmain.bitmap & (flag - 1)).count("1")
            if pmain.array[pos] is not inode:
                return
            main = inode.gcas_read(self)
            if isinstance(main, TNode):
                ncn = pmain.updated_at(pos, main.copy_untombed())
                root = self.rdcss_read_root()
                if parent.gcas(pmain, self._to_contracted(ncn, lev), self):
                    return
                if root.gen is not startgen:
                    return
                continue
            return
