"""Query-serving subsystem (DESIGN.md §11, §14).

Everything below this package turns the engine from a batch driver into a
multi-tenant query *service*, with one read path behind two front ends:

* :class:`~repro.serve.router.ShardRouter` — the read path: N
  :class:`~repro.serve.shard.ShardServer` instances each pinning only the
  partitions they own (DESIGN.md §14); routes point lookups, fans out
  ranges and scans on the caller's thread, and fails over on shard death;
* :class:`~repro.serve.server.QueryServer` — admission control in front of
  a one-shard router it owns: bounded worker pool, admission queue,
  per-query deadlines, and load shedding (retryable rejections when the
  queue or the memory manager is under pressure);
* :class:`~repro.serve.snapshot.PinnedSnapshot` — a pinned MVCC version of
  an Indexed DataFrame whose partitions are held in-process; what
  ``pinned(view)`` returns on either front end;
* :mod:`~repro.serve.fastpath` — the one recogniser: compiles a point,
  range or scan read of an indexed view — classified by the planner's own
  rule (``repro.indexed.rules.index_claim``) — into a
  :class:`~repro.serve.fastpath.ServeTemplate` answered from pinned
  partitions;
* :class:`~repro.serve.ingest.IngestLoop` — concurrent MVCC appends through
  the ReplayLog while readers keep serving from pinned versions, with
  atomic publish and replay-log truncation behind a retention window.
"""

from repro.serve.fastpath import ServeTemplate, recognize
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
    "ServeTemplate",
    "ShardConfig",
    "ShardDown",
    "ShardRouter",
    "ShardServer",
    "SnapshotValidationError",
    "recognize",
]
