"""cTrie: model-based correctness, snapshots, collisions, concurrency.

The index's correctness requirements (Section III-C/III-E): thread-safe
insert/lookup/remove, O(1) snapshots isolated from later writes, and
read-only snapshots for consistent iteration.
"""

import random
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ctrie import CTrie


class TestBasicOperations:
    def test_insert_lookup(self):
        t = CTrie()
        t.insert("a", 1)
        assert t.lookup("a") == 1

    def test_lookup_missing_returns_default(self):
        t = CTrie()
        assert t.lookup("missing") is None
        assert t.lookup("missing", -1) == -1

    def test_overwrite(self):
        t = CTrie()
        t.insert("k", 1)
        t.insert("k", 2)
        assert t.lookup("k") == 2
        assert len(t) == 1

    def test_remove(self):
        t = CTrie()
        t.insert("k", 1)
        assert t.remove("k") == 1
        assert t.lookup("k") is None
        assert t.remove("k") is None

    def test_none_value_distinct_from_absent(self):
        t = CTrie()
        t.insert("k", None)
        assert t.contains("k")
        assert "k" in t
        assert "other" not in t

    def test_getitem_raises_keyerror(self):
        t = CTrie()
        with pytest.raises(KeyError):
            _ = t["nope"]

    def test_setitem_getitem(self):
        t = CTrie()
        t["a"] = 5
        assert t["a"] == 5

    def test_mixed_key_types(self):
        t = CTrie()
        t.insert(1, "int")
        t.insert("1", "str")
        t.insert(1.5, "float")
        assert t.lookup(1) == "int"
        assert t.lookup("1") == "str"
        assert t.lookup(1.5) == "float"

    def test_many_keys_roundtrip(self):
        t = CTrie()
        for i in range(5000):
            t.insert(i, i * 2)
        assert len(t) == 5000
        for i in range(0, 5000, 97):
            assert t.lookup(i) == i * 2

    def test_items_match_dict(self):
        t = CTrie()
        ref = {}
        for i in range(300):
            t.insert(f"k{i}", i)
            ref[f"k{i}"] = i
        assert t.to_dict() == ref
        assert sorted(t.keys()) == sorted(ref.keys())
        assert sorted(t.values()) == sorted(ref.values())

    def test_deep_removal_contracts_paths(self):
        # Insert then remove everything: the trie must still work and be empty.
        t = CTrie()
        for i in range(2000):
            t.insert(i, i)
        for i in range(2000):
            assert t.remove(i) == i
        assert len(t) == 0
        t.insert(5, "back")
        assert t.lookup(5) == "back"


class TestRandomizedAgainstDict:
    def test_random_ops_match_model(self):
        rng = random.Random(1234)
        t = CTrie()
        ref: dict = {}
        for step in range(30000):
            op = rng.random()
            k = rng.randrange(2500)
            if op < 0.55:
                t.insert(k, step)
                ref[k] = step
            elif op < 0.8:
                assert t.lookup(k) == ref.get(k)
            else:
                assert t.remove(k) == ref.pop(k, None)
        assert t.to_dict() == ref


class TestSnapshots:
    def test_snapshot_isolated_from_parent_writes(self):
        t = CTrie()
        for i in range(500):
            t.insert(i, i)
        snap = t.snapshot()
        for i in range(500):
            t.insert(i, -i)
        t.insert("extra", 1)
        assert snap.to_dict() == {i: i for i in range(500)}

    def test_parent_isolated_from_snapshot_writes(self):
        t = CTrie()
        t.insert("a", 1)
        snap = t.snapshot()
        snap.insert("b", 2)
        snap.insert("a", 99)
        assert t.lookup("a") == 1
        assert t.lookup("b") is None

    def test_chained_snapshots(self):
        t = CTrie()
        states = []
        for gen in range(5):
            for i in range(50):
                t.insert((gen, i), gen)
            states.append((t.snapshot(), dict(t.items())))
        for snap, expected in states:
            assert snap.to_dict() == expected

    def test_read_only_snapshot_rejects_writes(self):
        t = CTrie()
        t.insert("a", 1)
        ro = t.read_only_snapshot()
        with pytest.raises(RuntimeError):
            ro.insert("b", 2)
        with pytest.raises(RuntimeError):
            ro.remove("a")
        assert ro.lookup("a") == 1

    def test_snapshot_then_remove_in_child(self):
        t = CTrie()
        for i in range(100):
            t.insert(i, i)
        snap = t.snapshot()
        for i in range(50):
            snap.remove(i)
        assert len(snap) == 50
        assert len(t) == 100

    def test_iteration_is_stable_under_concurrent_writes(self):
        # items() takes a read-only snapshot: concurrent inserts must not
        # appear mid-iteration.
        t = CTrie()
        for i in range(1000):
            t.insert(i, i)
        it = t.items()
        first = next(it)
        t.insert("new", 1)
        rest = list(it)
        seen = dict([first] + rest)
        assert "new" not in seen
        assert len(seen) == 1000


class TestHashCollisions:
    def test_colliding_keys_coexist(self):
        # Force full 32-bit collisions via a wrapper with a fixed hash.
        t = CTrie()

        class FixedHash(str):
            __slots__ = ()

        # hash32 of equal strings collide only if equal; instead craft via
        # tuple keys that collide at trie level rarely - use direct check:
        # insert many keys; correctness already covered. Here, verify LNode
        # behavior through keys engineered to share hash32.
        from repro.utils.hashing import hash32

        # Find two distinct ints with colliding 32-bit hashes by birthday
        # search over a bounded set (fast: ~90k tries for 32-bit would be
        # too slow, so synthesize collisions at the *bucket* level instead).
        buckets: dict = {}
        pair = None
        for i in range(200_000):
            h = hash32(i)
            if h in buckets:
                pair = (buckets[h], i)
                break
            buckets[h] = i
        if pair is None:
            pytest.skip("no 32-bit collision found in range (unlikely)")
        a, b = pair
        t.insert(a, "a")
        t.insert(b, "b")
        assert t.lookup(a) == "a"
        assert t.lookup(b) == "b"
        assert t.remove(a) == "a"
        assert t.lookup(b) == "b"


class TestConcurrency:
    def test_parallel_inserts_disjoint_keys(self):
        t = CTrie()

        def writer(tid: int) -> None:
            for i in range(2000):
                t.insert((tid, i), tid)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(t) == 12000
        for tid in range(6):
            assert t.lookup((tid, 1999)) == tid

    def test_parallel_inserts_same_keys_last_write_wins(self):
        t = CTrie()
        barrier = threading.Barrier(4)

        def writer(tid: int) -> None:
            barrier.wait()
            for i in range(1000):
                t.insert(i, tid)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(t) == 1000
        for i in range(1000):
            assert t.lookup(i) in range(4)

    def test_snapshot_during_concurrent_writes_sees_consistent_state(self):
        t = CTrie()
        for i in range(500):
            t.insert(i, 0)
        stop = threading.Event()

        def writer() -> None:
            v = 1
            while not stop.is_set():
                for i in range(500):
                    t.insert(i, v)
                v += 1

        th = threading.Thread(target=writer)
        th.start()
        try:
            for _ in range(20):
                snap = t.read_only_snapshot()
                d = snap.to_dict()
                assert len(d) == 500  # never a torn size
        finally:
            stop.set()
            th.join()

    def test_concurrent_mixed_ops_no_exceptions(self):
        t = CTrie()
        errors: list = []

        def worker(tid: int) -> None:
            rng = random.Random(tid)
            try:
                for i in range(3000):
                    op = rng.random()
                    k = rng.randrange(300)
                    if op < 0.5:
                        t.insert(k, (tid, i))
                    elif op < 0.8:
                        t.lookup(k)
                    else:
                        t.remove(k)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert errors == []
        # All surviving entries must be readable.
        for k, v in t.items():
            assert t.lookup(k) is not None or v is None


class CTrieMachine(RuleBasedStateMachine):
    """Stateful property test: CTrie tracks a dict model, snapshots freeze."""

    def __init__(self) -> None:
        super().__init__()
        self.trie = CTrie()
        self.model: dict = {}
        self.snapshots: list[tuple[CTrie, dict]] = []

    keys = st.one_of(st.integers(min_value=0, max_value=200), st.text(max_size=6))

    @rule(k=keys, v=st.integers())
    def insert(self, k, v):
        self.trie.insert(k, v)
        self.model[k] = v

    @rule(k=keys)
    def remove(self, k):
        assert self.trie.remove(k) == self.model.pop(k, None)

    @rule(k=keys)
    def lookup(self, k):
        assert self.trie.lookup(k) == self.model.get(k)

    @rule()
    def snapshot(self):
        if len(self.snapshots) < 5:
            self.snapshots.append((self.trie.snapshot(), dict(self.model)))

    @invariant()
    def snapshots_frozen(self):
        for snap, frozen in self.snapshots:
            assert snap.to_dict() == frozen

    @invariant()
    def size_matches(self):
        assert len(self.trie) == len(self.model)


TestCTrieStateful = CTrieMachine.TestCase
TestCTrieStateful.settings = settings(max_examples=25, stateful_step_count=40, deadline=None)
