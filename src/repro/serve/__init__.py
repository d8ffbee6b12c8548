"""Query-serving subsystem (DESIGN.md §11, §14).

Everything below this package turns the engine from a batch driver into a
multi-tenant query *service*:

* :class:`~repro.serve.server.QueryServer` — bounded worker pool, admission
  queue, per-query deadlines, and load shedding (retryable rejections when
  the queue or the memory manager is under pressure);
* :class:`~repro.serve.snapshot.PinnedSnapshot` — a pinned MVCC version of
  an Indexed DataFrame whose partitions are held in-process, so point
  lookups can be served on the server thread without scheduling a job;
* :mod:`~repro.serve.fastpath` — the one recogniser both front ends share:
  compiles a point, range or scan read of an indexed view — classified by
  the planner's own rule (``repro.indexed.rules.index_claim``) — into a
  :class:`~repro.serve.fastpath.ServeTemplate` answered from pinned
  partitions;
* :class:`~repro.serve.ingest.IngestLoop` — concurrent MVCC appends through
  the ReplayLog while readers keep serving from pinned versions, with
  atomic publish and replay-log truncation behind a retention window;
* :mod:`~repro.serve.shard` / :mod:`~repro.serve.router` — the sharded,
  replicated tier (DESIGN.md §14): N :class:`~repro.serve.shard.ShardServer`
  instances each pinning only the partitions they own, behind a
  :class:`~repro.serve.router.ShardRouter` that routes point lookups,
  fans out ranges and scans, and fails over on shard death.
"""

from repro.serve.fastpath import ServeTemplate, recognize
from repro.serve.ingest import IngestLoop
from repro.serve.router import RouterConfig, RouterResult, ShardRouter
from repro.serve.server import (
    QueryResult,
    QueryServer,
    ServeConfig,
    ServeRejected,
)
from repro.serve.shard import (
    PartitionNotOwned,
    RoutingTable,
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
    "RouterResult",
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
