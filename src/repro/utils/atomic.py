"""The atomic reference the cTrie is built on.

CPython has no user-level CAS, so :class:`AtomicReference` emulates
``compareAndSet`` with a per-reference lock. The *semantics* are identical to
a hardware CAS (linearizable read / compare-and-swap), which is what the
cTrie algorithm (Prokopec et al., PPoPP'12) requires; only the progress
guarantee differs (blocking instead of lock-free), which is invisible to
correctness and to our simulated performance model.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

T = TypeVar("T")


class AtomicReference(Generic[T]):
    """A mutable cell supporting linearizable ``get``/``set``/``compare_and_set``."""

    __slots__ = ("_lock", "_value")

    def __init__(self, value: T | None = None) -> None:
        self._value = value
        self._lock = threading.Lock()

    def get(self) -> T | None:
        """Return the current value (volatile read)."""
        return self._value

    def set(self, value: T) -> None:
        """Unconditionally store ``value``."""
        with self._lock:
            self._value = value

    def compare_and_set(self, expect: T | None, update: T) -> bool:
        """Atomically set to ``update`` iff the current value *is* ``expect``.

        Identity comparison (``is``) matches the JVM/Scala CAS the cTrie
        paper assumes; value equality would wrongly succeed on equal-but-
        distinct nodes.
        """
        with self._lock:
            if self._value is expect:
                self._value = update
                return True
            return False

    def get_and_set(self, update: T) -> T | None:
        """Atomically swap in ``update`` and return the previous value."""
        with self._lock:
            prev = self._value
            self._value = update
            return prev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicReference({self._value!r})"
