"""Seeded input generators for the end-to-end benchmark.

Everything the program under test receives comes from here, and every
generator is a pure function of ``--seed``. Aggregate shape (row counts,
the multiset of chain lengths, request-mix proportions) is the same for
every seed, so a metric's spread across seeds measures the machine and the
program, not the draw; the seed moves the row order, the column values, the
probe pools and the request order.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

#: Longest per-key chain in ``edges`` (the issue's "chains of 1-1000 rows").
MAX_CHAIN = 1000
#: Power-law exponent of the chain-length distribution.
CHAIN_EXPONENT = 0.8
#: Zipf exponent of serve_mixed's point-read keys.
ZIPF_S = 1.1


@dataclass(frozen=True)
class Sizes:
    """Row counts and mix sizes; ``SMOKE`` runs the same code on tiny ones."""

    edges_rows: int
    edges_keys: int
    edges_partitions: int
    users_rows: int
    users_partitions: int
    join_probe_sets: int  # probe-side size = edges_keys / join_probe_sets
    point_pool: int
    range_pool: int
    points_per_cycle: int
    ranges_per_cycle: int
    serve_range_keys: int
    append_rows: int
    append_period_s: float
    bounded_rows: int
    bounded_keys: int
    bounded_budget_bytes: int


FULL = Sizes(
    edges_rows=100_000,
    edges_keys=10_000,
    edges_partitions=8,
    users_rows=50_000,
    users_partitions=4,
    join_probe_sets=10,
    point_pool=200,
    range_pool=20,
    points_per_cycle=50,
    ranges_per_cycle=5,
    serve_range_keys=200,
    append_rows=200,
    append_period_s=0.5,
    bounded_rows=30_000,
    bounded_keys=3_000,
    bounded_budget_bytes=600_000,
)

SMOKE = Sizes(
    edges_rows=4_000,
    edges_keys=400,
    edges_partitions=8,
    users_rows=2_000,
    users_partitions=4,
    join_probe_sets=10,
    point_pool=40,
    range_pool=8,
    points_per_cycle=10,
    ranges_per_cycle=2,
    serve_range_keys=50,
    append_rows=20,
    append_period_s=0.1,
    bounded_rows=1_500,
    bounded_keys=150,
    bounded_budget_bytes=40_000,
)


def chain_lengths(rows: int, keys: int) -> list[int]:
    """The fixed multiset of per-key chain lengths: ``rank ** -CHAIN_EXPONENT``
    scaled to ``rows`` in total, every key at least 1 and at most MAX_CHAIN.
    Deterministic — no seed — so every seed indexes the same shape."""
    cap = min(MAX_CHAIN, rows)
    weights = [r ** -CHAIN_EXPONENT for r in range(1, keys + 1)]
    lengths = [1] * keys
    spare = rows - keys
    # Hand the spare rows out by weight; what the cap cuts off the head is
    # re-offered to the uncapped keys until it is all placed.
    open_ranks = list(range(keys))
    while spare > 0 and open_ranks:
        total = sum(weights[r] for r in open_ranks)
        placed = 0
        still_open = []
        for r in open_ranks:
            want = int(spare * weights[r] / total)
            take = min(want, cap - lengths[r])
            lengths[r] += take
            placed += take
            if lengths[r] < cap:
                still_open.append(r)
        if placed == 0:  # rounding crumbs: one row each, heaviest first
            for r in still_open[:spare]:
                lengths[r] += 1
                placed += 1
        spare -= placed
        open_ranks = [r for r in still_open if lengths[r] < cap]
    return lengths


@dataclass
class Edges:
    rows: list[tuple]  # (edge_source, edge_dest, creation_date, weight)
    keys_by_rank: list[int]  # key id holding the rank-th longest chain


def make_edges(seed: int, rows: int, keys: int) -> Edges:
    """The seed draws column values and row order. Which key holds which chain
    is one fixed shuffle: it decides the partitions' byte sizes, and
    bounded_memory's spill-or-fit regime must not change with the seed."""
    rng = random.Random(f"edges:{seed}")
    lengths = chain_lengths(rows, keys)
    keys_by_rank = list(range(keys))
    random.Random(f"edge-layout:{keys}").shuffle(keys_by_rank)
    out: list[tuple] = []
    for rank, key in enumerate(keys_by_rank):
        for _ in range(lengths[rank]):
            out.append(
                (
                    key,
                    rng.randrange(keys),
                    1_500_000_000 + rng.randrange(100_000_000),
                    rng.random(),
                )
            )
    rng.shuffle(out)
    return Edges(out, keys_by_rank)


def make_users(seed: int, rows: int) -> list[tuple]:
    """(uid unique, name STRING of 4-24 chars, score DOUBLE), shuffled."""
    rng = random.Random(f"users:{seed}")
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    out = [
        (
            uid,
            "".join(rng.choices(alphabet, k=4 + (uid * 7 + seed) % 21)),
            rng.random() * 100.0,
        )
        for uid in range(rows)
    ]
    rng.shuffle(out)
    return out


def appended_user(uid: int, version: int) -> tuple:
    """The row serve_mixed's writer appends for ``uid`` at ``version``; the
    version rides in both payload columns so any answer can be dated."""
    return (uid, f"v{version}", float(version))


def join_probe_sets(edges: Edges, sets: int) -> list[list[int]]:
    """Split the keys into ``sets`` probe sides by systematic sampling over
    chain-length rank, so every probe side matches nearly the same number of
    rows and together they probe every key exactly once."""
    return [edges.keys_by_rank[offset::sets] for offset in range(sets)]


def uniform_keys(seed: int, label: str, domain: int, n: int) -> list[int]:
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(domain) for _ in range(n)]


def key_ranges(seed: int, label: str, domain: int, width: int, n: int) -> list[tuple[int, int]]:
    """``n`` inclusive [lo, hi] ranges, each ``width`` keys wide."""
    rng = random.Random(f"{label}:{seed}")
    width = max(1, min(width, domain))
    return [(lo, lo + width - 1) for lo in (rng.randrange(domain - width + 1) for _ in range(n))]


class Zipf:
    """Zipf(s) over ``n`` ranks, mapped through a seeded permutation so the
    hot keys are spread over the partitions."""

    def __init__(self, seed: int, n: int, s: float = ZIPF_S) -> None:
        cum = []
        total = 0.0
        for r in range(1, n + 1):
            total += r**-s
            cum.append(total)
        self._cum = cum
        self._total = total
        self._perm = list(range(n))
        random.Random(f"zipf-perm:{seed}").shuffle(self._perm)

    def draw(self, rng: random.Random) -> int:
        return self._perm[bisect.bisect_left(self._cum, rng.random() * self._total)]
