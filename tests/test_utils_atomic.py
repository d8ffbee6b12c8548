"""AtomicReference: CAS semantics and thread safety."""

import threading

from repro.utils.atomic import AtomicReference


class TestAtomicReference:
    def test_get_set(self):
        ref = AtomicReference(1)
        assert ref.get() == 1
        ref.set(2)
        assert ref.get() == 2

    def test_initial_none(self):
        assert AtomicReference().get() is None

    def test_cas_succeeds_on_identity(self):
        sentinel = object()
        ref = AtomicReference(sentinel)
        assert ref.compare_and_set(sentinel, "new")
        assert ref.get() == "new"

    def test_cas_fails_on_wrong_expect(self):
        ref = AtomicReference("a")
        assert not ref.compare_and_set("b", "c")
        assert ref.get() == "a"

    def test_cas_uses_identity_not_equality(self):
        # Two equal-but-distinct objects must NOT satisfy the CAS: the cTrie
        # relies on identity semantics.
        ref = AtomicReference([1, 2])
        assert not ref.compare_and_set([1, 2], "new")

    def test_get_and_set(self):
        ref = AtomicReference("old")
        assert ref.get_and_set("new") == "old"
        assert ref.get() == "new"

    def test_concurrent_cas_exactly_one_winner(self):
        start = object()
        ref = AtomicReference(start)
        wins = []
        barrier = threading.Barrier(8)

        def racer(i: int) -> None:
            barrier.wait()
            if ref.compare_and_set(start, i):
                wins.append(i)

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert ref.get() == wins[0]
