"""Pure-Python oracles: what every timed operation must return.

Dict and sorted-list answers for point, range and join (compared as row
multisets), exact counts plus column sums for scans and aggregates (integer
sums exact, float sums to 1e-9 relative), and per-version expected rows for
serve_mixed. Nothing here imports the program under test.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

REL_TOL = 1e-9


def summarize(rows: "Sequence[tuple]") -> tuple:
    """(count, per-column sum) — strings contribute their length."""
    if not rows:
        return (0,)
    out: list[Any] = [len(rows)]
    for col in zip(*rows):
        out.append(sum(map(len, col)) if isinstance(col[0], str) else sum(col))
    return tuple(out)


def close(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    return a == b


def same_summary(rows: "Sequence[tuple]", expected: tuple) -> bool:
    got = summarize(rows)
    return len(got) == len(expected) and all(close(g, e) for g, e in zip(got, expected))


def same_rows(rows: "Sequence[tuple]", expected_sorted: "list[tuple]") -> bool:
    """Row-multiset equality against a pre-sorted expectation."""
    return len(rows) == len(expected_sorted) and sorted(rows) == expected_sorted


class TableOracle:
    """Answers over one immutable table, keyed on column ``key_ordinal``."""

    def __init__(self, rows: "list[tuple]", key_ordinal: int = 0) -> None:
        self.rows = rows
        self.key_ordinal = key_ordinal
        by_key: dict[Any, list[tuple]] = {}
        for row in rows:
            by_key.setdefault(row[key_ordinal], []).append(row)
        for chain in by_key.values():
            chain.sort()
        self.by_key = by_key

    def point(self, key: Any) -> "list[tuple]":
        return self.by_key.get(key, [])

    def range(self, lo: int, hi: int) -> "list[tuple]":
        out: list[tuple] = []
        for key in range(lo, hi + 1):
            out.extend(self.by_key.get(key, ()))
        out.sort()
        return out

    def join(self, probe_keys: "Sequence[Any]") -> "list[tuple]":
        """Inner join of a one-column probe side (k) with the table: rows
        ``(k, *table_row)``, sorted."""
        out = [(k, *row) for k in probe_keys for row in self.by_key.get(k, ())]
        out.sort()
        return out

    def project(self, ordinals: "Sequence[int]") -> tuple:
        return summarize([tuple(row[i] for i in ordinals) for row in self.rows])

    def where_gt(self, ordinal: int, threshold: float) -> tuple:
        return summarize([row for row in self.rows if row[ordinal] > threshold])

    def avg(self, ordinal: int) -> float:
        return sum(row[ordinal] for row in self.rows) / len(self.rows)

    def count_by_mod(self, ordinal: int, modulus: int) -> dict[int, int]:
        counts: dict[int, int] = {}
        for row in self.rows:
            bucket = row[ordinal] % modulus
            counts[bucket] = counts.get(bucket, 0) + 1
        return counts


class VersionedUsers:
    """serve_mixed's table: ``base`` rows at version 0 plus append batches.

    Batch ``b`` (0-based) holds uids ``base + b*batch_rows ..`` and becomes
    visible at version ``b + 1``; its rows carry that version, so the answer
    at any ``snapshot_version`` is arithmetic — no state shared with the
    writer thread.
    """

    def __init__(self, rows: "list[tuple]", batch_rows: int, make_row) -> None:
        self.base = len(rows)
        self.by_uid = sorted(rows)
        if [r[0] for r in self.by_uid] != list(range(self.base)):
            raise ValueError("users oracle expects uids 0..n-1 exactly once")
        self.batch_rows = batch_rows
        self.make_row = make_row

    def batch(self, version: int) -> "list[tuple]":
        first = self.base + (version - 1) * self.batch_rows
        return [self.make_row(uid, version) for uid in range(first, first + self.batch_rows)]

    def version_of(self, uid: int) -> int:
        return 0 if uid < self.base else (uid - self.base) // self.batch_rows + 1

    def point(self, uid: int, snapshot_version: int) -> "list[tuple]":
        if uid < self.base:
            return [self.by_uid[uid]]
        version = self.version_of(uid)
        return [self.make_row(uid, version)] if version <= snapshot_version else []

    def range(self, lo: int, hi: int, snapshot_version: int) -> "list[tuple]":
        out = self.by_uid[lo : min(hi, self.base - 1) + 1] if lo < self.base else []
        for uid in range(max(lo, self.base), hi + 1):
            version = self.version_of(uid)
            if version <= snapshot_version:
                out.append(self.make_row(uid, version))
        return out
