"""Concurrent ingest: MVCC appends published under live readers.

:class:`IngestLoop` is the write side of the serving story (Section III-E
made operational): a background thread that repeatedly

1. appends a batch of rows to the served Indexed DataFrame — through the
   session's :class:`~repro.engine.replay.ReplayLog`, so lineage can
   replay the append after failures;
2. publishes the new version through the front end's ``publish``
   (:class:`~repro.serve.server.QueryServer` or
   :class:`~repro.serve.router.ShardRouter`) — pin the new version's
   partitions (one job), then atomically swap the catalog registration and
   the served pin;
3. truncates the replay log below the retention window
   (:meth:`~repro.engine.replay.ReplayLog.truncate_through`), bounding
   driver memory over an unbounded ingest stream.

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
    from repro.indexed.indexed_dataframe import IndexedDataFrame
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
    retain_versions:
        Replay-log retention window: records for versions older than
        ``published - retain_versions`` are truncated. Must cover every
        version still being served; the served pin is always the newest,
        so any value >= 1 is safe here.
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
        retain_versions: int = 2,
        stream_joins: "Sequence[StreamWindowJoin] | None" = None,
    ) -> None:
        super().__init__(name=f"ingest-{view}", daemon=True)
        if retain_versions < 1:
            raise ValueError("retain_versions must be >= 1")
        self.server = server
        self.view = view
        self.batches = batches
        self.interval = interval
        self.retain_versions = retain_versions
        self.stream_joins = list(stream_joins or ())
        self.published_versions: list[int] = []
        self.rows_appended = 0
        self.rows_truncated = 0
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
                self.rows_truncated += self._truncate(child)
                if self.interval:
                    time.sleep(self.interval)
        except BaseException as exc:  # surfaced via .error; never silently lost
            self.error = exc

    def _truncate(self, idf: "IndexedDataFrame") -> int:
        """Drop replay records below the retention window; returns rows freed."""
        cutoff_version = idf.version - self.retain_versions
        log = idf.replay_log
        last_droppable = -1
        for record in log.records():
            if record.version <= cutoff_version:
                last_droppable = max(last_droppable, record.record_id)
        if last_droppable < 0:
            return 0
        freed = log.truncate_through(last_droppable)
        if freed:
            self.server.registry.inc(
                "serve_replay_rows_truncated_total", freed, view=self.view
            )
        return freed
