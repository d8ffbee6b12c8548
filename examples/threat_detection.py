"""Online threat detection and response (paper Section II use case).

Network connection records (Zeek/Bro ``conn`` log shape) stream in as
fine-grained appends; an analyst interactively investigates suspicious
hosts with point lookups and joins against a watchlist — the workload the
Indexed DataFrame was designed for: vanilla Spark would reload the dataset
from external storage after every write.

Run::

    python examples/threat_detection.py
"""

import time

from repro import LONG, Schema, Session, count, sum_
from repro.workloads import broconn

session = Session()

# ---------------------------------------------------------------------------
# 1. Bootstrap: index the existing connection log on the source host
# ---------------------------------------------------------------------------

history = broconn.generate_broconn(20_000, num_hosts=400, seed=7)
conn_df = session.create_dataframe(history, broconn.CONN_SCHEMA, "conn")

t0 = time.perf_counter()
live = conn_df.create_index("orig_h").cache_index()
print(f"indexed {len(history):,} historical connections in {time.perf_counter() - t0:.2f}s "
      f"across {live.num_partitions} partitions")

# ---------------------------------------------------------------------------
# 2. A watchlist of known-bad hosts (tiny table, joined against the index)
# ---------------------------------------------------------------------------

watchlist_schema = Schema.of(("bad_host", LONG),)
bad_hosts = [(r[0],) for r in broconn.sample_probe(history, fraction=0.0005, seed=1)]
watchlist = session.create_dataframe(bad_hosts, watchlist_schema, "watchlist")
print(f"watchlist: {len(bad_hosts)} hosts")

# ---------------------------------------------------------------------------
# 3. The monitoring loop: every "minute", a batch of new connections lands
#    (append -> new MVCC version); alerts = watchlist JOIN live traffic.
# ---------------------------------------------------------------------------

stream = broconn.generate_broconn(5_000, num_hosts=400, seed=99)
batch_size = 1_000
for minute in range(5):
    batch = stream[minute * batch_size : (minute + 1) * batch_size]
    t0 = time.perf_counter()
    live = live.append_rows(batch)  # fine-grained, in-place-equivalent append
    append_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    alerts = watchlist.join(live.to_df(), on=("bad_host", "orig_h"))
    n_alerts = len(alerts.collect_tuples())
    query_s = time.perf_counter() - t0
    print(
        f"minute {minute}: +{len(batch)} connections "
        f"(append {append_s * 1000:.1f} ms) -> {n_alerts} watchlist hits "
        f"(query {query_s * 1000:.1f} ms, version {live.version})"
    )

# ---------------------------------------------------------------------------
# 4. Drill-down: the analyst picks the noisiest bad host and pulls its
#    connections interactively (point lookup on the cTrie).
# ---------------------------------------------------------------------------

suspect = bad_hosts[0][0]
t0 = time.perf_counter()
connections = live.get_rows(suspect)
bytes_out = connections.agg(
    count().alias("flows"), sum_("orig_bytes").alias("bytes_out")
).collect()[0]
print(
    f"\nsuspect host {suspect}: {bytes_out.flows} flows, "
    f"{bytes_out.bytes_out:,} bytes exfiltrated "
    f"(lookup+agg in {(time.perf_counter() - t0) * 1000:.1f} ms)"
)

# Top destination ports for the suspect, via SQL on the lookup result:
connections.create_or_replace_temp_view("suspect_conns")
print("top destination ports:")
session.sql(
    "SELECT resp_p, count(*) AS flows FROM suspect_conns "
    "GROUP BY resp_p ORDER BY flows DESC LIMIT 3"
).show()
