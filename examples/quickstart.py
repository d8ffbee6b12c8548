"""Quickstart: create an Indexed DataFrame, look up, join, append.

This walks the paper's Listing 1 API end to end on a small social graph::

    python examples/quickstart.py
"""

from repro import LONG, DOUBLE, Schema, Session

# ---------------------------------------------------------------------------
# 1. A session and some data (an edge table, as in the SNB workloads)
# ---------------------------------------------------------------------------

session = Session()
edge_schema = Schema.of(("src", LONG), ("dst", LONG), ("weight", DOUBLE))
edges = [
    (1, 2, 0.5), (1, 3, 0.9), (2, 3, 0.4),
    (3, 1, 0.7), (3, 4, 0.1), (4, 1, 0.8), (1, 4, 0.2),
]
df = session.create_dataframe(edges, edge_schema, "edges")

# ---------------------------------------------------------------------------
# 2. createIndex + cacheIndex (paper Listing 1)
#
# The only change a program needs: index the dataframe on a column. The
# data is hash-partitioned on `src`, each partition building a cTrie over
# binary row batches, and cached in the executors' block managers.
# ---------------------------------------------------------------------------

idf = df.create_index("src").cache_index()
print(f"indexed: {idf}")

# ---------------------------------------------------------------------------
# 3. Point lookups — getRows(key) returns a small regular DataFrame
# ---------------------------------------------------------------------------

print("\nedges out of node 1:")
idf.get_rows(1).show()

# ---------------------------------------------------------------------------
# 4. Indexed joins happen automatically: any join whose key matches the
#    index column is planned as an IndexedJoin (the index is the pre-built
#    build side; the probe side is shuffled or broadcast to it).
# ---------------------------------------------------------------------------

hot_schema = Schema.of(("node", LONG),)
hot = session.create_dataframe([(1,), (3,)], hot_schema, "hot_nodes")
joined = hot.join(idf.to_df(), on=("node", "src"))
print("explain:")
print(joined.explain())
print("join result:")
joined.show()

# ---------------------------------------------------------------------------
# 5. Appends are MVCC: append_rows returns a NEW IndexedDataFrame (a new
#    version); the parent stays queryable, divergent children coexist.
# ---------------------------------------------------------------------------

idf_v1 = idf.append_rows([(1, 99, 1.0)])
print(f"\nparent  v{idf.version}:  node 1 has {len(idf.lookup_tuples(1))} edges")
print(f"child   v{idf_v1.version}:  node 1 has {len(idf_v1.lookup_tuples(1))} edges")

# ---------------------------------------------------------------------------
# 6. SQL works against indexed views, with automatic indexed execution for
#    key-equality predicates, and transparent fallback otherwise.
# ---------------------------------------------------------------------------

idf_v1.create_or_replace_temp_view("edges")
print("\nSQL point query (uses the index):")
session.sql("SELECT dst, weight FROM edges WHERE src = 1 ORDER BY weight DESC").show()
print("SQL range query (falls back to a full indexed scan):")
session.sql("SELECT count(*) AS heavy FROM edges WHERE weight > 0.5").show()
