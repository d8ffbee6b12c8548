"""US DoT on-time flights dataset shape + queries Q1-Q7 (Fig. 15).

Two tables (Table II): a large ``flights`` fact table (120 GB in the paper;
scaled here) and a tiny ``planes`` table (420 KB). Queries:

====  ========================================================  ==========
id    description                                               index key
====  ========================================================  ==========
Q1    join flights with planes ON tail_num                      string
Q2    SELECT * WHERE tail_num = x                               string
Q3    join flights with selected flights (flight_num < 200)     integer
Q4    join flights with selected flights (flight_num < 400)     integer
Q5    point query, ~10 matches                                  integer
Q6    point query, ~100 matches                                 integer
Q7    point query, ~1000 matches                                integer
====  ========================================================  ==========

Match counts for Q5-Q7 are *constructed*: flight numbers ``10``, ``100``
and ``1000`` are planted exactly 10/100/1000 times. String keys exercise
the hash-before-index path (hash32 + verify), which is why the paper's
string speedups (5x) trail the integer ones (20x).
"""

from __future__ import annotations

import numpy as np

from repro.sql.types import LONG, STRING, Schema

FLIGHTS_SCHEMA = Schema.of(
    ("flight_num", LONG),
    ("tail_num", STRING),
    ("origin", STRING),
    ("dest", STRING),
    ("dep_delay", LONG),
    ("arr_delay", LONG),
    ("distance", LONG),
    ("year", LONG),
    ("month", LONG),
)

PLANES_SCHEMA = Schema.of(
    ("tail_num", STRING),
    ("model", STRING),
    ("manufacturer", STRING),
    ("plane_year", LONG),
)

_AIRPORTS = ("JFK", "LAX", "ORD", "ATL", "DFW", "SFO", "SEA", "MIA", "DEN", "BOS")
_MODELS = ("737-800", "A320", "757-200", "E175", "CRJ900", "A321", "787-9")
_MAKERS = ("Boeing", "Airbus", "Embraer", "Bombardier")

#: Flight numbers with planted match counts (Q5, Q6, Q7).
PLANTED_MATCHES = {10: 10, 100: 100, 1000: 1000}


def num_planes(num_flights: int) -> int:
    return max(10, num_flights // 200)


def generate_planes(num_flights: int, seed: int = 31) -> list[tuple]:
    rng = np.random.default_rng(seed)
    n = num_planes(num_flights)
    years = rng.integers(1990, 2020, size=n)
    return [
        (
            f"N{10000 + i}",
            _MODELS[i % len(_MODELS)],
            _MAKERS[i % len(_MAKERS)],
            int(years[i]),
        )
        for i in range(n)
    ]


def generate_flights(num_flights: int, seed: int = 37) -> list[tuple]:
    """Flight rows; flight_num is skew-free except the planted keys."""
    rng = np.random.default_rng(seed)
    planted_total = sum(PLANTED_MATCHES.values())
    if num_flights <= planted_total:
        raise ValueError(f"need more than {planted_total} flights to plant Q5-Q7 keys")
    n_regular = num_flights - planted_total
    n_planes = num_planes(num_flights)

    # Regular flight numbers cover 1..8000 but avoid the planted values
    # (collisions are remapped far away so planted counts stay exact).
    fn = rng.integers(1, 8000, size=n_regular)
    for key in PLANTED_MATCHES:
        fn[fn == key] = key + 20000
    tails = rng.integers(0, n_planes, size=num_flights)
    orig = rng.integers(0, len(_AIRPORTS), size=num_flights)
    dest = rng.integers(0, len(_AIRPORTS), size=num_flights)
    dep = rng.integers(-10, 180, size=num_flights)
    arr = dep + rng.integers(-20, 60, size=num_flights)
    dist = rng.integers(100, 3000, size=num_flights)
    years = rng.integers(2006, 2009, size=num_flights)
    months = rng.integers(1, 13, size=num_flights)

    flight_nums = fn.tolist()
    for key, count in PLANTED_MATCHES.items():
        flight_nums.extend([key] * count)
    rng.shuffle(flight_nums)

    return [
        (
            int(flight_nums[i]),
            f"N{10000 + int(tails[i])}",
            _AIRPORTS[orig[i]],
            _AIRPORTS[dest[i]],
            int(dep[i]),
            int(arr[i]),
            int(dist[i]),
            int(years[i]),
            int(months[i]),
        )
        for i in range(num_flights)
    ]


def select_flights(flights: list[tuple], max_flight_num: int) -> list[tuple]:
    """The paper's "selected flights table": a pre-materialized selection
    (``flight_num < N``) used as the probe side of Q3/Q4."""
    return [r for r in flights if r[0] < max_flight_num]


def queries(flights_view: str = "flights"):
    """Q1-Q7 as builders ``fn(session) -> DataFrame`` over registered views:
    ``flights_view``, ``planes``, ``flights_sel200`` and ``flights_sel400``.

    Q1 joins on the string key; Q3/Q4 join the flights table against the
    pre-selected probe tables on the integer key; Q5-Q7 are point queries
    with planted match counts. The views may be backed by the columnar
    cache (vanilla) or by an IndexedRelation (indexed) — same builders.
    """

    def q1(s):
        # Small planes table probes the flights side (keyed on tail_num).
        planes = s.table("planes")
        flights = s.table(flights_view)
        return planes.join(flights, on="tail_num").select(
            "model", "manufacturer", "origin", "dest"
        )

    def q2(s):
        from repro.sql.functions import col

        return s.table(flights_view).where(col("tail_num") == "N10003")

    def _self_join(s, probe_view):
        probe = s.table(probe_view).select("flight_num")
        flights = s.table(flights_view)
        return probe.join(flights, on="flight_num").select("flight_num", "origin", "dest")

    def q3(s):
        return _self_join(s, "flights_sel200")

    def q4(s):
        return _self_join(s, "flights_sel400")

    def point(key):
        def q(s):
            from repro.sql.functions import col

            return s.table(flights_view).where(col("flight_num") == key)

        return q

    return {
        "Q1": q1,
        "Q2": q2,
        "Q3": q3,
        "Q4": q4,
        "Q5": point(10),
        "Q6": point(100),
        "Q7": point(1000),
    }
