"""Serving demo: publish an index, serve point lookups, ingest live.

Walks the serving layer (DESIGN.md §11) end to end::

    python examples/serving_demo.py

The flow: build an Indexed DataFrame, publish it to a QueryServer, serve
queries three ways (ad-hoc SQL on the fast path, prepared statements, a
general-pipeline aggregate), then run a live ingest loop and watch readers
follow the published versions.
"""

from repro import (
    DOUBLE,
    IngestLoop,
    LONG,
    QueryServer,
    STRING,
    Schema,
    ServeConfig,
    ServeRejected,
    Session,
)

# ---------------------------------------------------------------------------
# 1. A session, a table, an index — the paper's Listing 1 setup
# ---------------------------------------------------------------------------

session = Session()
user_schema = Schema.of(("uid", LONG), ("name", STRING), ("score", DOUBLE))
users = [(i, f"user{i % 13}", float(i % 100)) for i in range(1000)]
df = session.create_dataframe(users, user_schema, "users")
idf = df.create_index("uid")

# ---------------------------------------------------------------------------
# 2. Publish: pin the version's partitions in-process and register the view
# ---------------------------------------------------------------------------

server = QueryServer(session, ServeConfig(num_workers=4))
server.publish("users", idf)
print(f"serving {server.views()} at version {server.pinned('users').version}")

# ---------------------------------------------------------------------------
# 3. Point lookups ride the fast path: no job, no stages — the worker
#    thread hashes the key into the pinned cTrie snapshot directly.
# ---------------------------------------------------------------------------

result = server.query("SELECT * FROM users WHERE uid = 42")
print(f"\nuid=42 via {result.path} (snapshot v{result.snapshot_version}): {result.rows}")

# Prepared statements skip parsing too — bind per call:
for uid in (7, 8, 9):
    r = server.query("SELECT name, score FROM users WHERE uid = ?", params=[uid])
    print(f"uid={uid} -> {r.rows} [{r.path}]")

# Anything non-point falls back to the full (plan-cached) pipeline:
agg = server.query("SELECT name, COUNT(*) AS n FROM users GROUP BY name")
print(f"\naggregate via {agg.path}: {len(agg.rows)} groups")

# ---------------------------------------------------------------------------
# 4. Live ingest: MVCC appends published under the readers' feet. Each
#    publish pins the new version and atomically swaps it in; each
#    version's append holds its rows, so lineage can rebuild it.
# ---------------------------------------------------------------------------

batches = [[(10_000 + b * 5 + j, f"live{b}", 1.0) for j in range(5)] for b in range(4)]
ingest = IngestLoop(server, "users", batches)
ingest.start()
ingest.join()

final = server.pinned("users")
print(f"\nafter ingest: version {final.version}, {ingest.rows_appended} rows appended")
fresh = server.query("SELECT * FROM users WHERE uid = ?", params=[10_015])
print(f"freshly ingested row: {fresh.rows} [snapshot v{fresh.snapshot_version}]")

# ---------------------------------------------------------------------------
# 5. Load shedding: the server rejects (retryably) rather than degrade.
# ---------------------------------------------------------------------------

shedding = QueryServer(
    session, ServeConfig(num_workers=1, pressure_probe=lambda: 0.99)
)
try:
    shedding.query("SELECT * FROM users WHERE uid = 1")
except ServeRejected as exc:
    print(f"\nunder pressure the server sheds: {exc} (retryable={exc.retryable})")
shedding.shutdown()

server.shutdown()
print("\nserve metrics:",
      {k: v for k, v in session.context.registry.snapshot()["counters"].items()
       if k.startswith("serve_")})
