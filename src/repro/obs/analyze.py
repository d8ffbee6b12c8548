"""EXPLAIN ANALYZE machinery: per-operator actual row counts and timings.

The :class:`ExecutionMeter` is installed on a session for the duration of
one instrumented execution. Every physical operator's output RDD gets a
metering pass-through partition (``PhysicalPlan.execute`` consults
``session.exec_meter``), which times each ``next()`` on the operator's
output iterator and counts the rows flowing out. Timings are therefore
*inclusive of the operator's subtree* (like Spark's EXPLAIN ANALYZE
cumulative times) and exclude downstream consumption.

Counts are recorded per (operator, partition) and a re-run of a partition
(a task retry) *overwrites* its slot rather than adding, so chaos-era
double execution cannot inflate the reported row counts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD
    from repro.sql.physical import PhysicalPlan


@dataclass
class NodeStats:
    """Measured output of one physical operator, split by partition."""

    node_id: int
    label: str
    #: partition -> (rows out, seconds spent pulling them); overwritten on
    #: re-execution of the same partition (retries).
    splits: dict[int, tuple[int, float]] = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return sum(n for n, _ in self.splits.values())

    @property
    def seconds(self) -> float:
        return sum(t for _, t in self.splits.values())

    @property
    def rows_per_second(self) -> float:
        secs = self.seconds
        return self.rows / secs if secs > 0 else 0.0


class ExecutionMeter:
    """Collects :class:`NodeStats` for every operator of one execution."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: dict[int, NodeStats] = {}

    def stats_for(self, plan: "PhysicalPlan") -> NodeStats:
        node_id = id(plan)
        with self._lock:
            stats = self._stats.get(node_id)
            if stats is None:
                stats = self._stats[node_id] = NodeStats(node_id, repr(plan))
            return stats

    def get(self, plan: "PhysicalPlan") -> NodeStats | None:
        return self._stats.get(id(plan))

    def instrument(self, plan: "PhysicalPlan", rdd: "RDD", batches: bool = False) -> "RDD":
        """Wrap ``rdd`` with a counting/timing pass-through partition.
        With ``batches`` the elements are column batches and each counts as
        the rows it holds."""
        from repro.engine.rdd import MapPartitionsRDD

        stats = self.stats_for(plan)

        def meter(it: Iterator[Any], split: int, _ctx: Any) -> Iterator[Any]:
            def gen() -> Iterator[Any]:
                n = 0
                total = 0.0
                source = iter(it)
                try:
                    while True:
                        t0 = time.perf_counter()
                        try:
                            row = next(source)
                        except StopIteration:
                            total += time.perf_counter() - t0
                            break
                        total += time.perf_counter() - t0
                        n += len(row) if batches else 1
                        yield row
                finally:
                    # Runs on exhaustion AND on early close (e.g. under a
                    # Limit): the recorded count is the rows actually produced.
                    with self._lock:
                        stats.splits[split] = (n, total)

            return gen()

        # preserves_partitioning: the metered RDD must be a transparent
        # shim — downstream shuffle-skipping decisions may not change.
        return MapPartitionsRDD(rdd, meter, preserves_partitioning=True)


@dataclass
class ExplainAnalysis:
    """Result of one ``explain(analyze=True)`` run: the physical plan, the
    collected rows, and per-operator actuals."""

    physical: "PhysicalPlan"
    rows: list[tuple]
    meter: ExecutionMeter
    wall_seconds: float

    def node_stats(self, plan: "PhysicalPlan") -> NodeStats | None:
        return self.meter.get(plan)

    def nodes(self) -> list[tuple["PhysicalPlan", NodeStats | None]]:
        """(operator, stats) pairs in pre-order over the physical tree."""
        out: list[tuple[Any, NodeStats | None]] = []

        def walk(node: "PhysicalPlan") -> None:
            out.append((node, self.meter.get(node)))
            for child in node.children():
                walk(child)

        walk(self.physical)
        return out

    def text(self) -> str:
        """The annotated physical plan tree (the EXPLAIN ANALYZE output)."""
        lines = [
            f"== Physical Plan (analyzed: {len(self.rows)} rows, "
            f"{self.wall_seconds * 1e3:.2f} ms) =="
        ]

        def walk(node: "PhysicalPlan", indent: int) -> None:
            stats = self.meter.get(node)
            note = ""
            if stats is not None:
                note = (
                    f"  [rows={stats.rows}, time={stats.seconds * 1e3:.2f} ms, "
                    f"rows/s={stats.rows_per_second:,.0f}]"
                )
            lines.append("  " * indent + repr(node) + note)
            for child in node.children():
                walk(child, indent + 1)

        walk(self.physical, 0)
        return "\n".join(lines)
