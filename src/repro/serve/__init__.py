"""Query-serving subsystem (DESIGN.md §11, §14).

Everything below this package turns the engine from a batch driver into a
multi-tenant query *service*, with one read path behind two front ends:

* :class:`~repro.serve.router.ShardRouter` — the read path: N
  :class:`~repro.serve.shard.ShardServer` instances each pinning only the
  partitions they own (DESIGN.md §14). A query is planned by the session
  (a prepared statement planned once, bound per call); when its leaf reads
  a served view — a point lookup, a range seek or a scan — the router runs
  the plan's direct read over its shards on the caller's thread, and fails
  over on shard death;
* :class:`~repro.serve.server.QueryServer` — admission control in front of
  a one-shard router it owns: load shedding (retryable rejections), per-query
  deadlines, and at most ``num_workers`` queries answering at once — on the
  caller's thread when a slot is free, else on a worker;
* :class:`~repro.serve.snapshot.PinnedSnapshot` — a pinned MVCC version of
  an Indexed DataFrame whose partitions are held in-process; what
  ``pinned(view)`` returns on either front end;
* :class:`~repro.serve.ingest.IngestLoop` — concurrent MVCC appends while
  readers keep serving from pinned versions, with atomic publish.
"""

from repro.serve.ingest import IngestLoop
from repro.serve.router import QueryResult, RouterConfig, ShardRouter
from repro.serve.server import QueryServer, ServeConfig
from repro.serve.shard import (
    PartitionNotOwned,
    RoutingTable,
    ServeRejected,
    ShardConfig,
    ShardDown,
    ShardServer,
)
from repro.serve.snapshot import PinnedSnapshot, SnapshotValidationError

__all__ = [
    "IngestLoop",
    "PartitionNotOwned",
    "PinnedSnapshot",
    "QueryResult",
    "QueryServer",
    "RouterConfig",
    "RoutingTable",
    "ServeConfig",
    "ServeRejected",
    "ShardConfig",
    "ShardDown",
    "ShardRouter",
    "ShardServer",
    "SnapshotValidationError",
]
