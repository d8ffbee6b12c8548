"""Baseline join physical operators: broadcast-hash, shuffle-hash, sort-merge.

These are the operators vanilla Spark would pick (Section II): either data
is sorted and merged (sort-merge join) or a hash table is built from one
side and probed (broadcast / shuffle hash join). Their defining
inefficiency for repeated queries — rebuilding the hash table and
re-shuffling *both* sides on every execution — is what Fig. 1 and Fig. 7
measure the Indexed DataFrame against, so the build/probe phases here are
timed explicitly into ``join_phase_seconds_total{phase}`` in the registry.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import RDD
from repro.engine.shuffle import estimate_size
from repro.sql.expressions import Expression
from repro.sql.physical import PhysicalPlan
from repro.sql.types import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext
    from repro.sql.session import Session


def make_key_func(keys: list[Expression]) -> Callable[[tuple], Any]:
    """Row -> join key (scalar for single-column keys, tuple otherwise)."""
    if len(keys) == 1:
        expr = keys[0]
        return expr.eval
    return lambda row: tuple(e.eval(row) for e in keys)


def record_broadcast(context: "EngineContext", rows: list) -> None:
    """Count shipping ``rows`` to every machine: the modeled seconds as the
    ``broadcast`` join phase, the bytes sent across machines (payload x
    peers) in ``broadcast_bytes_total``."""
    nbytes = estimate_size(rows)
    machines = context.topology.num_machines
    registry = context.registry
    registry.inc(
        "join_phase_seconds_total", context.network.broadcast_time(nbytes, machines),
        phase="broadcast",
    )
    registry.inc("broadcast_bytes_total", nbytes * max(0, machines - 1))


class JoinExec(PhysicalPlan):
    """Common state of all join operators."""

    def __init__(
        self,
        session: "Session",
        left: PhysicalPlan,
        right: PhysicalPlan,
        left_keys: list[Expression],
        right_keys: list[Expression],
        how: str,
        residual: Expression | None,
        schema: Schema,
    ) -> None:
        super().__init__(session, schema)
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.how = how
        self.residual = residual

    def children(self) -> list[PhysicalPlan]:
        return [self.left, self.right]

    def estimated_rows(self) -> int:
        return max(self.left.estimated_rows(), self.right.estimated_rows())

    def _null_right(self) -> tuple:
        return (None,) * len(self.right.schema)


class BroadcastHashJoinExec(JoinExec):
    """Collect the build side to the driver, broadcast, probe locally.

    Spark broadcasts the smaller side when its estimated size is below the
    broadcast threshold. The hash-table build happens *per query execution*
    — that repeated cost is the vanilla half of Fig. 1.
    """

    def __init__(self, *args: Any, build_side: str = "right", **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if build_side not in ("left", "right"):
            raise ValueError(build_side)
        self.build_side = build_side

    def do_execute(self) -> RDD:
        context = self.session.context
        build_left = self.build_side == "left"
        build_plan = self.left if build_left else self.right
        probe_plan = self.right if build_left else self.left
        build_key = make_key_func(self.left_keys if build_left else self.right_keys)
        probe_key = make_key_func(self.right_keys if build_left else self.left_keys)

        # --- build phase (driver): collect + hash table ---------------------
        t0 = time.perf_counter()
        build_rows = build_plan.execute().collect()
        table: dict[Any, list[tuple]] = {}
        for row in build_rows:
            table.setdefault(build_key(row), []).append(row)
        context.registry.inc(
            "join_phase_seconds_total", time.perf_counter() - t0, phase="build_hash_table"
        )
        record_broadcast(context, build_rows)  # modeled

        residual = self.residual
        how = self.how
        null_right = self._null_right()

        def probe(rows: Iterator[tuple], ctx: Any) -> Iterator[tuple]:
            out: list[tuple] = []
            with ctx.span("probe"):
                for row in rows:
                    matches = table.get(probe_key(row))
                    if matches:
                        emitted = False
                        for match in matches:
                            joined = (match + row) if build_left else (row + match)
                            if residual is None or residual.eval(joined):
                                out.append(joined)
                                emitted = True
                        if how == "left" and not build_left and not emitted:
                            out.append(row + null_right)
                    elif how == "left" and not build_left:
                        out.append(row + null_right)
            return iter(out)

        return probe_plan.execute().map_partitions_with_context(probe)

    def __repr__(self) -> str:
        return f"BroadcastHashJoin(build={self.build_side})"


class ShuffleHashJoinExec(JoinExec):
    """Shuffle both sides on the key; build a hash table per partition.

    Both sides cross the network on *every* execution — the cost the
    indexed join avoids for the large (indexed) side.
    """

    def __init__(self, *args: Any, build_side: str = "right", num_partitions: int | None = None, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.build_side = build_side
        self.num_partitions = num_partitions

    def do_execute(self) -> RDD:
        n = self.num_partitions or self.session.context.config.shuffle_partitions
        part = HashPartitioner(n)
        left_key = make_key_func(self.left_keys)
        right_key = make_key_func(self.right_keys)
        left_rdd = self.left.execute().partition_by(part, key_func=left_key)
        right_rdd = self.right.execute().partition_by(part, key_func=right_key)
        build_left = self.build_side == "left"
        residual = self.residual
        how = self.how
        null_right = self._null_right()
        registry = self.session.context.registry

        def joiner(_split: int, left_it: Iterator[tuple], right_it: Iterator[tuple]) -> Iterator[tuple]:
            # Build on the chosen side, probe with the other.
            t0 = time.perf_counter()
            table: dict[Any, list[tuple]] = {}
            if build_left:
                for row in left_it:
                    table.setdefault(left_key(row), []).append(row)
                probe_it, probe_key_fn = right_it, right_key
            else:
                for row in right_it:
                    table.setdefault(right_key(row), []).append(row)
                probe_it, probe_key_fn = left_it, left_key
            build_seconds = time.perf_counter() - t0

            t1 = time.perf_counter()
            out: list[tuple] = []
            for row in probe_it:
                matches = table.get(probe_key_fn(row))
                if matches:
                    emitted = False
                    for match in matches:
                        joined = (match + row) if build_left else (row + match)
                        if residual is None or residual.eval(joined):
                            out.append(joined)
                            emitted = True
                    if how == "left" and not build_left and not emitted:
                        out.append(row + null_right)
                elif how == "left" and not build_left:
                    out.append(row + null_right)
            probe_seconds = time.perf_counter() - t1
            yield from out
            registry.inc("join_phase_seconds_total", build_seconds, phase="build_hash_table")
            registry.inc("join_phase_seconds_total", probe_seconds, phase="probe")

        joined = left_rdd.zip_partitions(right_rdd, joiner)
        joined.partitioner = part
        return joined

    def __repr__(self) -> str:
        return f"ShuffleHashJoin(build={self.build_side})"


class SortMergeJoinExec(JoinExec):
    """Spark's default for large joins: hash exchange + per-partition sort +
    merge ("notoriously slow" per Section IV-E)."""

    def __init__(self, *args: Any, num_partitions: int | None = None, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.num_partitions = num_partitions

    def do_execute(self) -> RDD:
        n = self.num_partitions or self.session.context.config.shuffle_partitions
        part = HashPartitioner(n)
        left_key = make_key_func(self.left_keys)
        right_key = make_key_func(self.right_keys)
        left_rdd = self.left.execute().partition_by(part, key_func=left_key)
        right_rdd = self.right.execute().partition_by(part, key_func=right_key)
        residual = self.residual
        how = self.how
        null_right = self._null_right()
        registry = self.session.context.registry

        def merge(_split: int, left_it: Iterator[tuple], right_it: Iterator[tuple]) -> Iterator[tuple]:
            t0 = time.perf_counter()
            # Keys may be heterogeneous; sort by hashable sort key.
            left_rows = sorted(((left_key(r), r) for r in left_it), key=lambda kv: _orderable(kv[0]))
            right_rows = sorted(((right_key(r), r) for r in right_it), key=lambda kv: _orderable(kv[0]))
            registry.inc("join_phase_seconds_total", time.perf_counter() - t0, phase="sort")
            t1 = time.perf_counter()
            out: list[tuple] = []
            i = j = 0
            nl, nr = len(left_rows), len(right_rows)
            while i < nl:
                k = left_rows[i][0]
                ok = _orderable(k)
                while j < nr and _orderable(right_rows[j][0]) < ok:
                    j += 1
                # Gather the right-side group with equal key.
                j2 = j
                group: list[tuple] = []
                while j2 < nr and right_rows[j2][0] == k:
                    group.append(right_rows[j2][1])
                    j2 += 1
                emitted = False
                for match in group:
                    joined = left_rows[i][1] + match
                    if residual is None or residual.eval(joined):
                        out.append(joined)
                        emitted = True
                if how == "left" and not emitted:
                    out.append(left_rows[i][1] + null_right)
                i += 1
            registry.inc("join_phase_seconds_total", time.perf_counter() - t1, phase="merge")
            return iter(out)

        joined = left_rdd.zip_partitions(right_rdd, merge)
        joined.partitioner = part
        return joined

    def __repr__(self) -> str:
        return "SortMergeJoin"


def _orderable(key: Any) -> Any:
    """Make mixed-type keys comparable (type name first, then value)."""
    return (type(key).__name__, key)
