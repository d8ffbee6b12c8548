"""Real-time social network monitoring (paper Section II use case).

An SNB-shaped social graph grows continuously (new "knows" edges); a
dashboard needs interactive friend lookups, friends-of-friends traversals,
and join-heavy queries. Compares the Indexed DataFrame against the vanilla
columnar cache on the same queries.

Run::

    python examples/social_network.py
"""

import time

from repro import Session, count
from repro.workloads import snb

session = Session()

SF = 20  # ~20K edges, ~2K persons
edges = snb.generate_snb_edges(SF)
persons = snb.generate_snb_persons(SF)
print(f"social graph: {len(edges):,} edges, {len(persons):,} persons")

edges_df = session.create_dataframe(edges, snb.EDGE_SCHEMA, "edges")
persons_df = session.create_dataframe(persons, snb.PERSON_SCHEMA, "persons")
persons_df.cache().create_or_replace_temp_view("persons")

# Both representations of the edge table:
vanilla = edges_df.cache()                                  # columnar cache
indexed = edges_df.create_index("edge_source").cache_index()  # Indexed DataFrame

# Pick a typical user (median out-degree) for the interactive queries: a
# profile page view touches one person's neighborhood, not the whole graph.
from collections import Counter

degrees = Counter(r[0] for r in edges)
celebrity = sorted(degrees, key=degrees.__getitem__)[len(degrees) // 2]
print(f"profile under view: person {celebrity} ({degrees[celebrity]} friends)")


def timed(label: str, fn) -> None:
    t0 = time.perf_counter()
    result = fn()
    print(f"  {label:<28} {(time.perf_counter() - t0) * 1000:8.2f} ms  ({result} rows)")


# ---------------------------------------------------------------------------
# 1. Friend list (point lookup + join with profiles) — SQ3 shape
# ---------------------------------------------------------------------------

print("\nfriend-list query (lookup + profile join):")
for name, view in (("vanilla cache", vanilla), ("indexed", None)):
    if view is not None:
        view.create_or_replace_temp_view("edges")
    else:
        indexed.create_or_replace_temp_view("edges")
    timed(name, lambda: len(session.sql(
        f"SELECT first_name, last_name, creation_date FROM edges "
        f"JOIN persons ON edge_dest = person_id WHERE edge_source = {celebrity}"
    ).collect_tuples()))

# ---------------------------------------------------------------------------
# 2. Friends-of-friends (indexed self-join) — SQ7 shape
# ---------------------------------------------------------------------------

print("\nfriends-of-friends (self-join on the index):")
for name, view in (("vanilla cache", vanilla), ("indexed", None)):
    if view is not None:
        view.create_or_replace_temp_view("edges")
    else:
        indexed.create_or_replace_temp_view("edges")
    timed(name, lambda: len(session.sql(
        f"SELECT edge_dest_r AS fof FROM edges a JOIN edges b "
        f"ON a.edge_dest = b.edge_source WHERE a.edge_source = {celebrity}"
    ).collect_tuples()))

# ---------------------------------------------------------------------------
# 3. The graph grows: follow events append to the index (MVCC versions);
#    the dashboard keeps querying the fresh state with no reload.
# ---------------------------------------------------------------------------

print("\nlive updates:")
live = indexed
new_follower = max(r[0] for r in edges) + 1
for event in range(3):
    live = live.append_rows([(new_follower, celebrity, 99_000_000 + event, 1.0)])
    t0 = time.perf_counter()
    followers = len(live.lookup_tuples(new_follower))
    print(
        f"  follow event {event}: version {live.version}, "
        f"{followers} edge(s) from new user (lookup "
        f"{(time.perf_counter() - t0) * 1000:.2f} ms)"
    )

# The original index version is untouched (MVCC):
print(f"  original version still has {len(indexed.lookup_tuples(new_follower))} edges for the new user")

# ---------------------------------------------------------------------------
# 4. Dashboard tiles: aggregate queries fall back to full scans — this is
#    where the columnar cache is the better representation (Fig. 8/13).
# ---------------------------------------------------------------------------

print("\ndashboard aggregate (full scan; columnar wins here, as in the paper):")
for name, df in (("vanilla cache", vanilla), ("indexed", live.to_df())):
    timed(name, lambda d=df: len(
        d.group_by("edge_source").agg(count().alias("deg"))
        .order_by("deg", ascending=False).limit(10).collect_tuples()
    ))
