"""deep_sizeof: cycle safety, shared-structure counting, snapshot deltas."""

import numpy as np

from repro.utils.memory import deep_sizeof


class TestDeepSizeof:
    def test_scalar(self):
        assert deep_sizeof(42) > 0

    def test_list_bigger_than_element(self):
        assert deep_sizeof([1, 2, 3]) > deep_sizeof(1)

    def test_cycle_terminates(self):
        a: list = [1]
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_shared_object_counted_once(self):
        shared = "x" * 10_000
        single = deep_sizeof([shared])
        double = deep_sizeof([shared, shared])
        # The second reference adds only pointer overhead, not 10KB.
        assert double < single + 1000

    def test_dict_counts_keys_and_values(self):
        d = {"k" * 100: "v" * 100}
        assert deep_sizeof(d) > 200

    def test_numpy_array(self):
        arr = np.zeros(10_000, dtype=np.int64)
        assert deep_sizeof(arr) >= arr.nbytes

    def test_slots_objects(self):
        class Slotted:
            __slots__ = ("a", "b")

            def __init__(self):
                self.a = "x" * 1000
                self.b = 1

        class Derived(Slotted):
            __slots__ = "c"  # one name, not three letters

        assert deep_sizeof(Slotted()) > 1000
        derived = Derived()  # ``c`` left unset: skipped, not an error
        assert deep_sizeof(derived) > 1000  # the base class's slots are walked
        derived.c = "z" * 3000
        assert deep_sizeof(derived) > 4000

    def test_seen_parameter_measures_delta(self):
        base = ["x" * 5000]
        seen: set = set()
        deep_sizeof(base, seen=seen)
        extended = [base, "y" * 100]
        delta = deep_sizeof(extended, seen=seen)
        # The 5KB string is already seen: only the new parts count.
        assert delta < 1000

    def test_seen_collects_every_reachable_id(self):
        inner = [1, 2]
        outer = {"a": inner}
        ids: set = set()
        deep_sizeof(outer, seen=ids)
        assert id(outer) in ids
        assert id(inner) in ids
