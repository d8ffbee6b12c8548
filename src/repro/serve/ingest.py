"""Concurrent ingest: MVCC appends published under live readers.

:class:`IngestLoop` is the write side of the serving story (Section III-E
made operational): a background thread that repeatedly

1. appends a batch of rows to the served Indexed DataFrame — the new
   version's :class:`~repro.indexed.batch_rdd.AppendRDD` holds the rows as
   its source, so lineage can replay the append after failures;
2. publishes the new version through the front end's ``publish``
   (:class:`~repro.serve.server.QueryServer` or
   :class:`~repro.serve.router.ShardRouter`) — pin the new version's
   partitions (one job), then atomically swap the catalog registration and
   the served pin.

Readers block on ingest only for the publish barrier's swap, never for the
pin job: pinned-path queries keep serving from the pin they observe (an
immutable version), and the atomic swap means each client sees a
monotonically non-decreasing snapshot version.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.router import ShardRouter
    from repro.serve.server import QueryServer
    from repro.serve.stream_join import StreamWindowJoin


class IngestLoop(threading.Thread):
    """Background appender for one served view.

    Parameters
    ----------
    server / view:
        Where to publish; the view must already be published once.
    batches:
        Iterable of row batches (each a sequence of tuples). The loop
        appends one batch per iteration and exits when exhausted (or when
        :meth:`stop` is called).
    interval:
        Seconds to sleep between batches (0 = as fast as possible).
    stream_joins:
        :class:`~repro.serve.stream_join.StreamWindowJoin` instances whose
        :meth:`~repro.serve.stream_join.StreamWindowJoin.probe` runs after
        every publish, so joins emit against each new version as it lands.
    """

    def __init__(
        self,
        server: "QueryServer | ShardRouter",
        view: str,
        batches: Iterable[Sequence[tuple]],
        interval: float = 0.0,
        stream_joins: "Sequence[StreamWindowJoin] | None" = None,
    ) -> None:
        super().__init__(name=f"ingest-{view}", daemon=True)
        self.server = server
        self.view = view
        self.batches = batches
        self.interval = interval
        self.stream_joins = list(stream_joins or ())
        self.published_versions: list[int] = []
        self.rows_appended = 0
        self.error: "BaseException | None" = None
        # Not named _stop: that would shadow threading.Thread's internal
        # _stop() method, which join() calls.
        self._stop_requested = threading.Event()

    def stop(self) -> None:
        """Ask the loop to exit after the batch in flight."""
        self._stop_requested.set()

    def run(self) -> None:
        registry = self.server.registry
        try:
            for batch in self.batches:
                if self._stop_requested.is_set():
                    break
                rows = [tuple(r) for r in batch]
                idf = self.server.pinned(self.view).idf
                child = idf.append_rows(rows)
                self.server.publish(self.view, child)
                self.published_versions.append(child.version)
                self.rows_appended += len(rows)
                registry.inc("serve_ingest_rows_total", len(rows), view=self.view)
                for join in self.stream_joins:
                    join.probe()
                if self.interval:
                    time.sleep(self.interval)
        except BaseException as exc:  # surfaced via .error; never silently lost
            self.error = exc
