"""Shuffle manager: map-output registry and reduce-side fetch.

Map tasks bucket their partition's records by the target partitioner and
register the buckets here, tagged with the executor that produced them.
Reduce tasks fetch every map's bucket for their partition; fetches from a
different machine count as remote bytes (fed into the network model), and a
missing map output (its executor died) raises :class:`FetchFailedError`,
which the DAG scheduler turns into a parent-stage recomputation — Spark's
exact recovery protocol, exercised by the Fig. 12 experiment.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.engine.dependencies import ShuffleDependency
from repro.engine.partition import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext

class FetchFailedError(Exception):
    """A reduce task could not fetch a map output (producer executor lost)."""

    def __init__(self, shuffle_id: int, map_id: int) -> None:
        super().__init__(f"fetch failed: shuffle {shuffle_id}, map output {map_id}")
        self.shuffle_id = shuffle_id
        self.map_id = map_id


@dataclass
class MapOutput:
    """One map task's buckets: reduce partition -> records, plus byte sizes."""

    executor_id: str
    buckets: dict[int, tuple[Any, ...]]
    sizes: dict[int, int]


def estimate_size(records: "list[Any] | tuple[Any, ...]", sample: int = 32) -> int:
    """Cheap byte-size estimate of a record list via a pickled sample.

    Serialized size is what the wire would carry in a real shuffle, so this
    feeds the network model directly; sampling keeps the estimator O(1)-ish
    per bucket (guide: don't let instrumentation dominate the measured code).
    """
    n = len(records)
    if n == 0:
        return 0
    try:
        # Pickled as a list whatever the sequence: a tuple bucket sizes as a list would.
        head = len(pickle.dumps(list(records[:sample]), protocol=pickle.HIGHEST_PROTOCOL))
        return head if n <= sample else int(head / sample * n)
    except (TypeError, AttributeError, pickle.PicklingError):
        # Unpicklable payloads (e.g. an IndexedPartition with its locks):
        # prefer a self-reported size, else a conservative fallback.
        total = 0
        for rec in records[:sample]:
            total += getattr(rec, "nbytes", 256)
        return int(total / min(n, sample) * n)


class ShuffleManager:
    """Registry of shuffle map outputs, keyed by shuffle id."""

    def __init__(self, context: "EngineContext") -> None:
        self._context = context
        self._lock = threading.Lock()
        #: shuffle_id -> list of MapOutput slots (None = not yet / lost)
        self._outputs: dict[int, list[MapOutput | None]] = {}
        #: Ids of shuffles whose dependency edge has been collected. The
        #: finalizer can fire inside any allocation — including one made
        #: while ``_lock`` is held — so it only appends here;
        #: :meth:`_drop_released` does the unregistering under the lock.
        self._released: deque[int] = deque()

    # -- registration ------------------------------------------------------------

    def release_with(self, dep: ShuffleDependency) -> None:
        """Tie ``dep``'s map outputs to its lifetime: once the RDD graph
        holding the edge is collected nothing can fetch them again, so they
        are dropped. An index's build shuffle thus lives as long as its
        cached RDD; a finished query's shuffle dies with its plan."""
        weakref.finalize(dep, self._released.append, dep.shuffle_id)

    def _drop_released(self) -> None:
        while self._released:
            self._outputs.pop(self._released.popleft(), None)

    def registered_shuffles(self) -> list[int]:
        """Ids of the shuffles whose map outputs are currently held."""
        with self._lock:
            self._drop_released()
            return list(self._outputs)

    def register_shuffle(self, shuffle_id: int, num_maps: int) -> None:
        with self._lock:
            self._drop_released()
            if shuffle_id not in self._outputs:
                self._outputs[shuffle_id] = [None] * num_maps

    def is_registered(self, shuffle_id: int) -> bool:
        with self._lock:
            return shuffle_id in self._outputs

    def missing_maps(self, shuffle_id: int) -> list[int]:
        with self._lock:
            slots = self._outputs.get(shuffle_id)
            if slots is None:
                raise KeyError(f"shuffle {shuffle_id} not registered")
            return [i for i, s in enumerate(slots) if s is None]

    # -- map side ------------------------------------------------------------------

    def write_map_output(
        self, dep: ShuffleDependency, map_id: int, records: Iterator[Any], ctx: TaskContext
    ) -> None:
        """Bucket ``records`` by the dependency's partitioner and register them:
        one ``partition_array`` over the task's keys, then one stable
        ``argsort`` (each bucket keeps arrival order) or the combiner's merge.
        Buckets are tuples, which the collector untracks once their records are."""
        key_func = dep.key_func
        records = tuple(records)
        keys = [key_func(rec) for rec in records]
        parts = dep.partitioner.partition_array(keys)
        if dep.combiner is not None:
            # Map-side combining: one accumulator per (reduce, key).
            combiner = dep.combiner
            maps: dict[int, dict[Any, Any]] = {}
            for rec, k, p in zip(records, keys, parts.tolist()):
                v = combiner.value_func(rec)
                acc = maps.setdefault(p, {})
                acc[k] = combiner.merge_value(acc[k], v) if k in acc else combiner.create(v)
            buckets = {p: tuple(acc.items()) for p, acc in maps.items()}
        else:
            order = np.argsort(parts, kind="stable")
            ranked = np.fromiter(records, object, len(records))[order].tolist()
            counts = np.bincount(parts).tolist()
            ends = np.cumsum(counts).tolist()
            buckets = {p: tuple(ranked[end - n : end]) for p, (n, end) in enumerate(zip(counts, ends)) if n}
        sizes = {p: estimate_size(rows) for p, rows in buckets.items()}
        ctx.shuffle_bytes_written += sum(sizes.values())
        output = MapOutput(executor_id=ctx.executor_id, buckets=buckets, sizes=sizes)
        with self._lock:
            slots = self._outputs.get(dep.shuffle_id)
            if slots is not None:
                slots[map_id] = output
            # else: the shuffle was unregistered while this map task ran;
            # drop the output — readers will see a missing map and the DAG
            # scheduler recomputes after re-registration.

    # -- reduce side ----------------------------------------------------------------

    def fetch(self, shuffle_id: int, reduce_id: int, ctx: TaskContext) -> Iterator[Any]:
        """Stream all map outputs for ``reduce_id``, accounting transfer bytes."""
        with self._lock:
            registered = self._outputs.get(shuffle_id)
            slots = None if registered is None else list(registered)
        if slots is None:
            # Wholly unregistered: the DAG scheduler re-registers and
            # recomputes every map on retry.
            self._record_fetch_failure(shuffle_id, -1, ctx, "unregistered")
            raise FetchFailedError(shuffle_id, -1)
        if not slots:
            # A registered shuffle with zero maps legitimately has nothing
            # to fetch (empty source RDD) — not a failure. Raising here
            # used to burn all stage attempts into a JobFailedError.
            return iter(())
        if self._context.faults.on_fetch(shuffle_id, reduce_id):
            # Chaos: flaky fetch with the map output intact. Reported as
            # map 0; the DAG scheduler's retry finds nothing missing and
            # simply re-runs the reduce stage (the cheap recovery path).
            self._context.metrics.record_recovery(
                "chaos_fetch_failure",
                job_index=ctx.job_index,
                stage_id=ctx.stage_id,
                partition=ctx.partition_index,
                executor_id=ctx.executor_id,
                detail=f"shuffle={shuffle_id} reduce={reduce_id}",
            )
            raise FetchFailedError(shuffle_id, 0)
        topology = self._context.topology
        chunks: list[list[Any]] = []
        for map_id, output in enumerate(slots):
            if output is None:
                self._record_fetch_failure(shuffle_id, map_id, ctx, "map output lost")
                raise FetchFailedError(shuffle_id, map_id)
            bucket = output.buckets.get(reduce_id)
            if not bucket:
                continue
            nbytes = output.sizes.get(reduce_id, 0)
            if output.executor_id == ctx.executor_id:
                pass  # in-process: free
            elif topology.same_machine(output.executor_id, ctx.executor_id):
                ctx.shuffle_bytes_read_local += nbytes
            else:
                ctx.shuffle_bytes_read_remote += nbytes
            chunks.append(bucket)
        self._context.registry.inc("shuffle_fetches_total")
        return itertools.chain.from_iterable(chunks)

    # -- failure handling ---------------------------------------------------------

    def _record_fetch_failure(
        self, shuffle_id: int, map_id: int, ctx: TaskContext, why: str
    ) -> None:
        self._context.metrics.record_recovery(
            "fetch_failed",
            job_index=ctx.job_index,
            stage_id=ctx.stage_id,
            partition=ctx.partition_index,
            executor_id=ctx.executor_id,
            detail=f"shuffle={shuffle_id} map={map_id}: {why}",
        )

    def on_executor_lost(self, executor_id: str) -> list[int]:
        """Drop map outputs produced by a dead executor; return affected shuffles."""
        affected: list[int] = []
        with self._lock:
            for shuffle_id, slots in self._outputs.items():
                for i, output in enumerate(slots):
                    if output is not None and output.executor_id == executor_id:
                        slots[i] = None
                        if shuffle_id not in affected:
                            affected.append(shuffle_id)
        return affected

    def unregister_shuffle(self, shuffle_id: int) -> None:
        with self._lock:
            self._outputs.pop(shuffle_id, None)
