"""One driver per evaluation figure: regenerates the paper's tables/series.

Sizes are laptop-Python scaled (the paper's 1B-row tables become 10^5-ish)
but every *ratio* the figures depend on is preserved: probe:build ratios
(Table III), append-to-read interleaving (Fig. 9), scale-factor sweeps
(Fig. 14), match counts (Fig. 15 / Q5-Q7). Each driver returns a
:class:`FigureResult` with the measured rows plus explicit shape checks
("indexed wins joins", "SQ5/SQ6 do not improve", ...) that encode the
paper's qualitative findings. A check that compares configurations times
them in alternating rounds (:func:`~repro.bench.harness.time_rounds`).
``ablation_joins`` does the same for Section IV-E's join-strategy remark.

Run everything; the exit status is 1 if any check fails::

    python -m repro.bench.experiments            # all figures, text report
    python -m repro.bench.experiments --markdown # EXPERIMENTS.md body
    python -m repro.bench.experiments --fig 7    # a single figure (or --fig joins)
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from repro.bench.harness import FigureResult, Timing, build_pair, gc_paused, time_rounds
from repro.cluster.topology import ClusterTopology, make_executors, private_cluster
from repro.config import KB, MB, Config
from repro.engine.context import EngineContext
from repro.sql.analysis import resolve_expression
from repro.sql.functions import col
from repro.sql.joins import BroadcastHashJoinExec, ShuffleHashJoinExec, SortMergeJoinExec
from repro.sql.physical import ColumnarScanExec
from repro.sql.session import Session
from repro.sql.types import LONG, Schema
from repro.workloads import broconn, flights, snb, tpcds

PROBE_SCHEMA = Schema.of(("k", LONG))


#: The paper's Indexed DataFrame: every row decoded and handled one at a time
#: (no column kernels, DESIGN.md §18) over a cTrie-only index that never seals
#: into arrays (DESIGN.md §15). Figs. 9, 10 and 11 are built on it; Figs. 8 and
#: 13 time both settings of the kernels.
PAPER_FAITHFUL = dict(indexed_column_kernels=False, ordered_index_compact_threshold=0)


def _fresh_config(**kw) -> Config:
    # The broadcast threshold is scaled with the data, exactly as the
    # paper's 10 MB threshold relates to its 1B-row tables: small probes
    # broadcast, large probes force the two-sided shuffle join vanilla
    # Spark would run at scale.
    defaults = dict(
        default_parallelism=8, shuffle_partitions=8, row_batch_size=256 * KB,
        broadcast_threshold=4 * KB,
    )
    return Config(**{**defaults, **kw})


def _vanilla_vs_indexed(session: Session, vanilla: Callable, indexed: Callable, reps: int) -> list:
    """Time ``vanilla``, ``indexed`` on the paper-faithful row-only Indexed
    DataFrame (``indexed_column_kernels=False``, what a figure's shape checks
    are about) and ``indexed`` with the column kernels on, in alternating
    rounds. Returns the cells vanilla_s, indexed_s, speedup, kernels_s,
    kernels_speedup."""
    config = session.context.config

    def row_only():
        config.indexed_column_kernels = PAPER_FAITHFUL["indexed_column_kernels"]
        try:
            indexed()
        finally:
            config.indexed_column_kernels = True

    timed = time_rounds(
        {"vanilla": vanilla, "indexed": row_only, "kernels": indexed},
        rounds=reps, settle=_release_shuffles(session),
    )
    t_v, t_i, t_k = (timed[c].median for c in ("vanilla", "indexed", "kernels"))
    return [timed["vanilla"], timed["indexed"], t_v / t_i, timed["kernels"], t_v / t_k]


def _release_shuffles(session: Session) -> Callable[[], object]:
    """A ``settle`` for :func:`time_rounds`: asking the shuffle manager what it
    holds drops the outputs of the shuffles finished queries released."""
    return session.context.shuffle_manager.registered_shuffles


def _probe_df(session: Session, keys: list[int], name: str = "probe"):
    return session.create_dataframe([(k,) for k in keys], PROBE_SCHEMA, name)


def fig01_amortization(n_rows: int = 40_000, runs: int = 5, seed: int = 1) -> FigureResult:
    """5 consecutive Broconn self-joins: vanilla rebuilds the hash table each
    run; the indexed side pays the index once and only probes after."""
    rows = broconn.generate_broconn(n_rows, seed=seed)
    probe_keys = [r[0] for r in broconn.sample_probe(rows, fraction=0.001, seed=seed)]
    pair = build_pair(rows, broconn.CONN_SCHEMA, "orig_h", config=_fresh_config(), name="conn")
    session = pair.session
    probe = _probe_df(session, probe_keys)

    build_s = []

    registry = session.context.registry

    def build_seconds() -> float:
        return registry.counter_value("join_phase_seconds_total", phase="build_hash_table")

    def vanilla():
        before = build_seconds()
        probe.join(pair.vanilla, on=("k", "orig_h")).collect_tuples()
        build_s.append(build_seconds() - before)

    def indexed():
        probe.join(pair.indexed.to_df(), on=("k", "orig_h")).collect_tuples()

    timed = time_rounds(
        {"vanilla": vanilla, "indexed": indexed}, rounds=runs, warmup=0,
        settle=_release_shuffles(session),
    )
    vanilla_s, indexed_s = timed["vanilla"].samples, timed["indexed"].samples
    result_rows = [list(r) for r in zip(range(1, runs + 1), vanilla_s, build_s, indexed_s)]
    fig = FigureResult(
        "Fig. 1",
        "5 consecutive joins: per-run seconds (vanilla incl. hash build vs indexed)",
        ["run", "vanilla_s", "vanilla_hash_build_s", "indexed_s"],
        result_rows,
        notes=(
            f"index built once upfront in {pair.index_build_seconds:.3f}s "
            f"(amortized over all later runs)"
        ),
    )
    fig.check(
        "every indexed run is faster than every vanilla run",
        max(indexed_s) < min(vanilla_s),
    )
    fig.check(
        "vanilla pays the hash build on every run (no amortization)",
        all(r[2] > 0 for r in result_rows),
    )
    saving_per_run = statistics.fmean(vanilla_s) - statistics.fmean(indexed_s)
    breakeven = (
        pair.index_build_seconds / saving_per_run if saving_per_run > 0 else float("inf")
    )
    fig.check(
        "index build amortizes over a realistic query stream "
        f"(break-even after ~{breakeven:.0f} runs; paper streams run 200 queries)",
        breakeven < 200,
    )
    return fig


def _numa_topology(executors: int, cores: int, pinned: bool, machines: int = 4) -> ClusterTopology:
    base = private_cluster(machines)
    return ClusterTopology(
        machines=base.machines,
        executors=make_executors(base.machines, executors, cores, pinned),
        name=f"{executors}x{cores}{'p' if pinned else 'u'}",
    )


def fig04_numa(n_rows: int = 40_000, reps: int = 7, seed: int = 2) -> FigureResult:
    """Simulated makespan of an XL join under five deployments; the paper's
    finding: finer-grained executors + NUMA pinning win.

    The join's task times are *measured once per repetition* and then
    re-scheduled under every deployment (NUMA penalty factor x slot count),
    so all five configurations see identical task sets — the comparison
    isolates the deployment effect, the way running the same binary under
    different ``numactl`` pinnings does."""
    from repro.cluster.metrics import lpt_makespan
    from repro.cluster.numa import NUMAModel

    rows = snb.generate_snb_edges(n_rows // 1000, seed=seed)
    probe_keys = snb.sample_probe_keys(rows, max(1, len(rows) // 10), seed=seed)
    configs = [
        ("1 exec x 16 cores, unpinned", 1, 16, False),
        ("2 exec x 8 cores, unpinned", 2, 8, False),
        ("2 exec x 8 cores, pinned", 2, 8, True),
        ("4 exec x 4 cores, unpinned", 4, 4, False),
        ("4 exec x 4 cores, pinned", 4, 4, True),
    ]
    # -- measure the task set, reps times ---------------------------------
    ctx = EngineContext(config=_fresh_config(), topology=private_cluster(4))
    session = Session(context=ctx)
    pair = build_pair(rows, snb.EDGE_SCHEMA, "edge_source", session=session, name="edges")
    probe = _probe_df(session, probe_keys)
    joined = probe.join(pair.indexed.to_df(), on=("k", "edge_source"))
    joined.collect_tuples()  # warm
    task_sets: list[dict[int, list[float]]] = []
    for _ in range(reps):
        with ctx.metrics.capture() as tasks:
            joined.collect_tuples()
        task_sets.append(ctx.metrics.stage_task_times(tasks))

    # -- re-schedule under each deployment ----------------------------------
    numa = NUMAModel()
    result_rows = []
    best: dict[str, float] = {}
    for label, ex, cores, pinned in configs:
        topo = _numa_topology(ex, cores, pinned)
        factor = numa.task_time_factor(topo.executors[0], topo)
        makespans = sorted(
            sum(
                lpt_makespan([t * factor for t in times], topo.total_cores)
                for times in stages.values()
            )
            for stages in task_sets
        )
        best[label] = min(makespans)
        result_rows.append(
            [label, min(makespans), statistics.median(makespans), max(makespans)]
        )
    fig = FigureResult(
        "Fig. 4",
        "NUMA deployment sweep: simulated join makespan (s)",
        ["deployment", "min_s", "median_s", "max_s"],
        result_rows,
    )
    fig.check(
        "4x4 pinned (paper's best) beats 1x16 unpinned",
        best["4 exec x 4 cores, pinned"] < best["1 exec x 16 cores, unpinned"],
    )
    fig.check(
        "pinning helps at fixed granularity (2x8)",
        best["2 exec x 8 cores, pinned"] <= best["2 exec x 8 cores, unpinned"],
    )
    fig.check(
        "finer executors help (4x4 pinned <= 2x8 pinned)",
        best["4 exec x 4 cores, pinned"] <= best["2 exec x 8 cores, pinned"] * 1.05,
    )
    return fig


def fig05_batch_size(n_rows: int = 40_000, seed: int = 3) -> FigureResult:
    """Read (join) and write (append) performance across batch sizes,
    normalized to the 4 KB (OS page size) baseline, as in the paper."""
    rows = snb.generate_snb_edges(n_rows // 1000, seed=seed)
    probe_keys = snb.sample_probe_keys(rows, 200, seed=seed)
    append_rows = snb.generate_snb_edges(5, seed=seed + 1)
    sizes = [4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB]
    reads, writes = {}, {}
    for size in sizes:
        pair = build_pair(
            rows, snb.EDGE_SCHEMA, "edge_source",
            config=_fresh_config(row_batch_size=size), name="edges",
        )
        probe = _probe_df(pair.session, probe_keys)
        reads[size] = probe.join(pair.indexed.to_df(), on=("k", "edge_source")).collect_tuples
        writes[size] = lambda idf=pair.indexed: idf.append_rows(append_rows).count()
    read_s = time_rounds(reads, rounds=9)
    write_s = time_rounds(writes, rounds=9)
    result_rows = [
        [f"{size // KB} KB", read_s[size], write_s[size],
         read_s[sizes[0]].median / read_s[size].median,
         write_s[sizes[0]].median / write_s[size].median]
        for size in sizes
    ]
    fig = FigureResult(
        "Fig. 5",
        "Row batch size sweep (normalized to 4 KB batches; higher = better)",
        ["batch", "read_s", "write_s", "read_speedup_vs_4KB", "write_speedup_vs_4KB"],
        result_rows,
        notes=(
            "the paper's sweet spot (4 MB) is driven by OS paging and JVM "
            "allocation; at Python scale the optimum is flatter and sits at "
            "mid sizes, with 4 KB paying batch-allocation churn"
        ),
    )
    best_write = max(result_rows, key=lambda r: r[4])[0]
    fig.check(
        f"a mid-or-large batch size beats 4 KB for writes (>= parity; best: {best_write})",
        max(r[4] for r in result_rows[2:]) >= 0.97,
    )
    fig.check(
        "reads are insensitive to batch size (within 30%)",
        min(r[3] for r in result_rows) > 0.7,
    )
    return fig


def fig06_scalability(n_rows: int = 150_000, reps: int = 7, seed: int = 4) -> FigureResult:
    """Fixed workload (XL join, fixed 256-way partitioning), growing cluster.

    The task set is identical across cluster sizes — only the simulated
    topology changes — so the makespan shape isolates scheduling + network
    effects: dividing fixed work over more slots (speedup) vs a growing
    remote-fetch fraction (the sub-linearity the paper observes).

    Skew is mild (alpha=0.6): at the paper's scale each partition holds
    millions of keys, so per-partition work is smooth; a laptop-scale
    alpha=1.1 graph would put ~10% of all edges behind one key and make
    every cluster size straggler-bound by that single task.
    """
    rows = snb.generate_snb_edges(n_rows // 1000, seed=seed, alpha=0.6)
    probe_keys = snb.sample_probe_keys(rows, max(1, len(rows) // 10), seed=seed)
    partitions = 256

    machines, cores = (2, 4, 8, 16, 32), (1, 2, 4, 8, 16)
    topologies = [private_cluster(m) for m in machines]
    topologies += [_numa_topology(1, c, pinned=False) for c in cores]
    makespans: list[list[float]] = [[] for _ in topologies]

    def one_query(topology: ClusterTopology, out: list[float]) -> Callable[[], None]:
        # A partition holds ~600 rows (~25 KB): 32 KB batches, not the default
        # 256 KB, keep ten clusters' mostly empty batches out of memory.
        config = _fresh_config(shuffle_partitions=partitions, row_batch_size=32 * KB)
        ctx = EngineContext(config=config, topology=topology)
        session = Session(context=ctx)
        df = session.create_dataframe(rows, snb.EDGE_SCHEMA, "edges", num_partitions=partitions)
        idf = df.create_index("edge_source", num_partitions=partitions).cache_index()
        joined = _probe_df(session, probe_keys).join(idf.to_df(), on=("k", "edge_source"))

        def run():
            with ctx.metrics.capture() as tasks:
                joined.collect_tuples()
            out.append(ctx.metrics.job_makespan(tasks))

        return run

    # Every cluster is built first and then their queries take turns, so a
    # slow stretch of the host reaches all of them, not one cluster's repeats.
    time_rounds({i: one_query(t, makespans[i]) for i, t in enumerate(topologies)}, rounds=reps)
    best = [min(ms[1:]) for ms in makespans]  # ms[0]: time_rounds' warm-up round
    horizontal, vertical = best[: len(machines)], best[len(machines) :]
    result_rows = [["horizontal", f"{m} machines", t] for m, t in zip(machines, horizontal)]
    result_rows += [["vertical", f"{c} cores/executor", t] for c, t in zip(cores, vertical)]

    fig = FigureResult(
        "Fig. 6",
        "Scalability of the indexed XL join (simulated makespan, s)",
        ["axis", "configuration", "makespan_s"],
        result_rows,
    )
    fig.check(
        "horizontal: speedup never regresses from 2 to 32 machines",
        all(b < a * 1.10 for a, b in zip(horizontal, horizontal[1:])),
    )
    h_speedup = horizontal[0] / horizontal[-1]
    fig.check(
        f"horizontal: sub-linear speedup (measured {h_speedup:.1f}x for 16x machines)",
        1.5 < h_speedup < 16,
    )
    v_speedup = vertical[0] / vertical[-1]
    fig.check(
        f"vertical: close-to-linear core scaling (measured {v_speedup:.1f}x for 16x cores)",
        v_speedup > 4,
    )
    return fig


#: Table III probe:build ratios — S=10K/1B .. XL=10M/1B.
JOIN_SCALES = (("S", 1e-5), ("M", 1e-4), ("L", 1e-3), ("XL", 1e-2))


def fig07_join_scales(n_rows: int = 100_000, reps: int = 5, seed: int = 5) -> FigureResult:
    """Table III's probe:build ratios against our scaled build side.

    The broadcast threshold is scaled with the data (paper: 10 MB vs a 1B-row
    table; here ~the same relative size), so the planner makes the paper's
    decisions: S/M probes broadcast, L/XL probes force a two-sided shuffle
    join on the vanilla path — the repeated full-table shuffle the Indexed
    DataFrame exists to avoid. The graph has ~100 edges per person so the
    result:build ratios match Table III (S~0.15% .. XL~100%). Expect indexed
    wins at every scale (paper: 3-8x)."""
    rows = snb.generate_snb_edges(
        n_rows // 1000, seed=seed, n_persons=max(100, n_rows // 100)
    )
    config = _fresh_config(broadcast_threshold=4 * KB)
    pair = build_pair(rows, snb.EDGE_SCHEMA, "edge_source", config=config, name="edges")
    session = pair.session
    result_rows = []
    speedups = []

    metrics = session.context.metrics

    def makespan(df) -> float:
        with metrics.capture() as tasks:
            df.collect_tuples()
        return metrics.job_makespan(tasks)

    for label, ratio in JOIN_SCALES:
        n_probe = max(1, int(len(rows) * ratio))
        probe_keys = snb.sample_probe_keys(rows, n_probe, seed=seed + n_probe)
        probe = _probe_df(session, probe_keys, name=f"probe_{label}")
        vanilla_join = probe.join(pair.vanilla, on=("k", "edge_source"))
        indexed_join = probe.join(pair.indexed.to_df(), on=("k", "edge_source"))
        result_size = len(indexed_join.collect_tuples())
        timed = time_rounds(
            {"vanilla": vanilla_join.collect_tuples, "indexed": indexed_join.collect_tuples},
            rounds=reps, settle=_release_shuffles(session),
        )
        speedups.append(timed["vanilla"].median / timed["indexed"].median)
        result_rows.append(
            [label, n_probe, result_size, timed["vanilla"], timed["indexed"], speedups[-1],
             makespan(vanilla_join) / makespan(indexed_join)]
        )
    fig = FigureResult(
        "Fig. 7 / Table III",
        "Join probe-size sweep: vanilla vs indexed (median s)",
        [
            "scale", "probe_rows", "result_rows", "vanilla_s", "indexed_s",
            "speedup", "simulated_cluster_speedup",
        ],
        result_rows,
        notes=(
            "simulated_cluster_speedup additionally accounts the modeled "
            "network cost of the vanilla join's per-query full-table shuffle"
        ),
    )
    fig.check("indexed wins at every scale", all(s > 1 for s in speedups))
    fig.check(
        f"speedups overlap the paper's 3-8x band (measured {min(speedups):.1f}-{max(speedups):.1f}x)",
        max(speedups) >= 3,
    )
    return fig


def fig08_operators(n_rows: int = 80_000, reps: int = 5, seed: int = 6) -> FigureResult:
    """join & equality filter: indexed wins; projection & non-equality
    filter: the row-wise indexed format loses to the columnar cache."""
    rows = snb.generate_snb_edges(n_rows // 1000, seed=seed)
    pair = build_pair(rows, snb.EDGE_SCHEMA, "edge_source", config=_fresh_config(), name="edges")
    session = pair.session
    probe_keys = snb.sample_probe_keys(rows, max(1, n_rows // 1000), seed=seed)
    probe = _probe_df(session, probe_keys)
    hot_key = probe_keys[0]

    # Each operator over either side's DataFrame: the columnar cache or the index.
    operators: dict[str, Callable] = {
        "join (S)": lambda df: probe.join(df, on=("k", "edge_source")).collect_tuples(),
        "filter (key = x)": lambda df: df.where(col("edge_source") == hot_key).collect_tuples(),
        "filter (non-equality)": lambda df: df.where(col("weight") > 0.99).collect_tuples(),
        "projection": lambda df: df.select("edge_dest").collect_tuples(),
        "aggregation": lambda df: df.group_by("edge_source").count().collect_tuples(),
        "scan": lambda df: df.count(),
    }
    result_rows = [
        [name, *_vanilla_vs_indexed(
            session, lambda: op(pair.vanilla), lambda: op(pair.indexed.to_df()), reps
        )]
        for name, op in operators.items()
    ]
    measured = {row[0]: row[3] for row in result_rows}
    fig = FigureResult(
        "Fig. 8",
        "SQL operator microbenchmarks: vanilla vs indexed (median s)",
        ["operator", "vanilla_s", "indexed_s", "speedup", "kernels_s", "kernels_speedup"],
        result_rows,
        notes=(
            "speedup > 1: indexed wins; < 1: columnar baseline wins. indexed_s / speedup: "
            "the paper's row-only Indexed DataFrame (indexed_column_kernels=False), which the "
            "shape checks are about; kernels_s / kernels_speedup: the default configuration, "
            "column kernels over views of the same row batches (DESIGN.md §18)"
        ),
    )
    fig.check("indexed wins joins", measured["join (S)"] > 1)
    fig.check("indexed wins equality filters", measured["filter (key = x)"] > 1)
    fig.check("columnar baseline wins projection", measured["projection"] < 1)
    fig.check("columnar baseline wins non-equality filter", measured["filter (non-equality)"] < 1)
    return fig


def fig09_read_after_write(
    n_rows: int = 40_000, n_queries: int = 40, seed: int = 7
) -> FigureResult:
    """S joins with an append every 5 queries: read latency grows with the
    write size (paper: <=100K-row writes -> ~3x, larger -> ~6x)."""
    rows = snb.generate_snb_edges(n_rows // 1000, seed=seed)
    probe_keys = snb.sample_probe_keys(rows, max(1, int(len(rows) * 1e-3)), seed=seed)
    write_sizes = [0, 100, 1000, 5000]
    versions, probes, batches = {}, {}, {}
    for write_size in write_sizes:
        pair = build_pair(
            rows, snb.EDGE_SCHEMA, "edge_source",
            config=_fresh_config(**PAPER_FAITHFUL), name="edges",
        )
        versions[write_size] = pair.indexed
        probes[write_size] = _probe_df(pair.session, probe_keys)
        batches[write_size] = snb.generate_snb_edges(
            max(1, write_size // 1000), seed=seed + 1
        )[:write_size]
    # Write sizes take turns as in time_rounds, with each append left untimed.
    times: dict[int, list[float]] = {write_size: [] for write_size in write_sizes}
    with gc_paused():
        for q in range(n_queries):
            for w in write_sizes:
                if w and q % 5 == 4:
                    versions[w] = versions[w].append_rows(batches[w])
                t0 = time.perf_counter()
                probes[w].join(versions[w].to_df(), on=("k", "edge_source")).collect_tuples()
                times[w].append(time.perf_counter() - t0)
    # An append is paid by the read after it, so a cycle of 5 reads is the
    # unit; the median cycle keeps one stalled cycle from deciding a check.
    cycles = {
        w: Timing(tuple(statistics.fmean(t[i : i + 5]) for i in range(0, n_queries, 5)))
        for w, t in times.items()
    }
    means = {w: c.median for w, c in cycles.items()}
    result_rows = [[w, cycles[w], m / means[0]] for w, m in means.items()]
    fig = FigureResult(
        "Fig. 9",
        "S-join latency with an append every 5 queries: mean read per 5-query cycle, "
        "median over cycles (factor vs no-append)",
        ["rows_per_append", "cycle_mean_read_s", "slowdown_vs_no_append"],
        result_rows,
    )
    fig.check(
        "read latency increases monotonically with write size",
        means[100] <= means[1000] * 1.1 and means[1000] <= means[5000] * 1.1,
    )
    fig.check("5 000-row appends slow reads more than 100-row ones", means[5000] > means[100])
    return fig


def fig10_write_throughput(n_appends: int = 20, seed: int = 8) -> FigureResult:
    """Cumulative append throughput for different batch sizes; createIndex
    uses the same write path, so its throughput is reported alongside."""
    base = snb.generate_snb_edges(10, seed=seed)
    result_rows = []
    throughputs = {}
    for rows_per_append in (100, 1000, 10_000):
        pair = build_pair(
            base, snb.EDGE_SCHEMA, "edge_source",
            config=_fresh_config(**PAPER_FAITHFUL), name="edges",
        )
        batch = snb.generate_snb_edges(
            max(1, rows_per_append // 1000), seed=seed + 2
        )[:rows_per_append]
        current = pair.indexed
        t0 = time.perf_counter()
        for _ in range(n_appends):
            current = current.append_rows(batch)
            current.count()  # materialize the append
        elapsed = time.perf_counter() - t0
        total = n_appends * len(batch)
        throughputs[rows_per_append] = total / elapsed
        result_rows.append(
            ["append_rows", rows_per_append, total, elapsed, total / elapsed]
        )
    # createIndex throughput (same write mechanism, paper Fig. 10 note)
    for n in (20_000, 100_000):
        rows = snb.generate_snb_edges(n // 1000, seed=seed + 3)
        t0 = time.perf_counter()
        build_pair(
            rows, snb.EDGE_SCHEMA, "edge_source",
            config=_fresh_config(**PAPER_FAITHFUL), name="e",
        )
        elapsed = time.perf_counter() - t0
        result_rows.append(["create_index", n, n, elapsed, n / elapsed])
    fig = FigureResult(
        "Fig. 10",
        "Write throughput (cumulated over appends; create_index = same path)",
        ["operation", "rows_per_write", "total_rows", "total_s", "rows_per_s"],
        result_rows,
    )
    fig.check(
        "larger write batches achieve higher throughput (shuffle/overhead amortized)",
        throughputs[10_000] > throughputs[100],
    )
    return fig


def fig11_memory_overhead(n_rows: int = 100_000, partitions: int = 16, seed: int = 9) -> FigureResult:
    """Index bytes / data bytes per partition. Three readings: the raw Python
    measurement of the paper's cTrie-only index (inflated by CPython object
    headers), the JVM-modeled figure (~48 B per distinct key, what JAMM
    would see for a Scala TrieMap), which is the comparable number for the
    paper's <2% claim — and, measured with no model, the same partitions
    with the index sealed into its array base (16 B per key, DESIGN.md §15).

    Graph shape matches the measured table (SNB SF-1000 edges): ~100 edges
    per person, with mild skew — at the paper's scale each partition holds
    millions of keys, so per-partition degree sums are smooth; we emulate
    that smoothing with a lower Zipf exponent."""
    rows = snb.generate_snb_edges(
        n_rows // 1000, seed=seed, alpha=0.6, n_persons=max(100, n_rows // 100)
    )

    def stats(it, _ctx):
        p = next(iter(it))
        return p.row_count, p.num_keys(), p.index_bytes(), p.storage_bytes()

    def per_partition(**index_config):
        pair = build_pair(
            rows, snb.EDGE_SCHEMA, "edge_source",
            config=_fresh_config(shuffle_partitions=partitions, **index_config),
            name="edges", num_partitions=partitions,
        )
        return pair.session.context.run_job(pair.indexed.rdd, stats)

    # A partition here holds ~60 keys, under the default seal threshold:
    # threshold 1 seals every batch, so the build lands in the array base.
    sealed_bytes = [idx_b for _, _, idx_b, _ in per_partition(ordered_index_compact_threshold=1)]
    result_rows = []
    modeled = []
    sealed = []
    for pid, (rows_n, keys_n, idx_b, data_b) in enumerate(per_partition(**PAPER_FAITHFUL)):
        jvm_idx = keys_n * 48
        modeled.append(jvm_idx / max(1, data_b))
        sealed.append(sealed_bytes[pid] / max(1, data_b))
        result_rows.append(
            [pid, rows_n, keys_n, idx_b, data_b, idx_b / max(1, data_b), modeled[-1],
             sealed_bytes[pid], sealed[-1]]
        )
    fig = FigureResult(
        "Fig. 11",
        "Per-partition index memory overhead",
        [
            "partition", "rows", "keys", "python_index_B", "data_B",
            "python_overhead", "jvm_modeled_overhead", "sealed_index_B", "sealed_overhead",
        ],
        result_rows,
        notes=(
            "paper reports <2% with JAMM on the JVM; the jvm_modeled column is "
            "the comparable metric (48 B/key), python_overhead is the cTrie-only "
            "index (ordered_index_compact_threshold=0) inflated by CPython object "
            "headers; sealed_overhead is measured, not modeled: index_bytes() of "
            f"the same partitions sealed into the array base (max {max(sealed):.3%})"
        ),
    )
    fig.check(
        f"JVM-modeled overhead under 2% on all partitions, as the paper "
        f"reports (max {max(modeled):.3%})",
        max(modeled) < 0.02,
    )
    fig.check(
        "overhead roughly uniform across partitions (hash partitioning balances keys)",
        max(modeled) < 3 * min(modeled),
    )
    return fig


def fig12_fault_tolerance(
    n_rows: int = 100_000, n_queries: int = 60, kill_at: int = 20, seed: int = 10
) -> FigureResult:
    """The table is sized so the recovery cost (rebuilding the killed
    executor's indexed partitions from lineage) clearly dominates normal
    inter-query jitter, as the paper's 13s-vs-1s spike does.

    Each query is timed in alternation with the same query on a twin
    cluster that is never killed (``time_rounds``: collector paused, shuffle
    outputs released untimed). The host's speed drifts in phases of up to
    ~1.8x that can fall between the queries before the kill and those after
    it; the twin's own before/after ratio measures that drift, and the
    recovery check is judged net of it."""
    rows = snb.generate_snb_edges(n_rows // 1000, seed=seed)
    probe_keys = snb.sample_probe_keys(rows, max(1, int(len(rows) * 1e-3)), seed=seed)
    pairs = [
        build_pair(rows, snb.EDGE_SCHEMA, "edge_source", config=_fresh_config(), name="edges")
        for _ in range(2)  # the run under test, then its never-killed twin
    ]
    joined, twin = (
        _probe_df(p.session, probe_keys).join(p.indexed.to_df(), on=("k", "edge_source"))
        for p in pairs
    )
    expected = sorted(joined.collect_tuples())
    twin.collect_tuples()
    ctx = pairs[0].session.context

    # One user-visible query may run several engine jobs (e.g. a broadcast
    # collect + the result job); calibrate so the kill lands on query
    # `kill_at`, matching the paper's "killed during the 20th query".
    jobs_before = ctx.job_index
    joined.collect_tuples()
    jobs_per_query = max(1, ctx.job_index - jobs_before)
    victim = ctx.alive_executor_ids()[0]
    ctx.faults.fail_executor_at_job(
        victim, ctx.job_index + (kill_at - 1) * jobs_per_query + 1
    )
    answers: list[list[tuple]] = []
    releases = [_release_shuffles(p.session) for p in pairs]
    timed = time_rounds(
        {"killed": lambda: answers.append(joined.collect_tuples()), "twin": twin.collect_tuples},
        rounds=n_queries, warmup=0, settle=lambda: [release() for release in releases],
    )
    latencies, twin_s = timed["killed"].samples, timed["twin"].samples
    wrong = sum(sorted(got) != expected for got in answers)
    spike_index = max(range(len(latencies)), key=latencies.__getitem__)
    before, after_recovery = slice(None, kill_at // 2), slice(spike_index + 1, None)
    normal = statistics.median(latencies[before])
    after = statistics.median(latencies[after_recovery])
    drift = statistics.median(twin_s[after_recovery]) / statistics.median(twin_s[before])
    result_rows = [
        ["median before failure (s)", normal],
        [f"spike (query {spike_index + 1}) (s)", latencies[spike_index]],
        ["median after recovery (s)", after],
        ["spike factor", latencies[spike_index] / normal],
        ["never-killed twin, after / before", drift],
    ]
    fig = FigureResult(
        "Fig. 12",
        f"Executor killed during query ~{kill_at} of {n_queries}; per-query latency",
        ["metric", "value"],
        result_rows,
    )
    fig.check(
        f"the executor died and every query still returned the pre-failure answer "
        f"(index rebuilt via lineage; {wrong} wrong)",
        victim not in ctx.alive_executor_ids() and wrong == 0,
    )
    fig.check(
        "failure query pays a visible recovery spike (>2x normal)",
        latencies[spike_index] > 2 * normal,
    )
    fig.check(
        "latency returns to normal after recovery (within 50%, net of the twin's drift)",
        after / normal < 1.5 * drift,
    )
    fig.check(
        "spike occurs at (or right after) the kill point",
        abs((spike_index + 1) - kill_at) <= 3,
    )
    return fig


def fig13_snb_queries(scale_factor: int = 30, reps: int = 5, seed: int = 11) -> FigureResult:
    edges = snb.generate_snb_edges(scale_factor, seed=seed)
    persons = snb.generate_snb_persons(scale_factor, seed=seed)
    config = _fresh_config()
    session = Session(config=config)
    edges_df = session.create_dataframe(edges, snb.EDGE_SCHEMA, "edges")
    persons_df = session.create_dataframe(persons, snb.PERSON_SCHEMA, "persons")
    persons_df.cache().create_or_replace_temp_view("persons")
    pid = snb.sample_probe_keys(edges, 1, seed=seed)[0]

    edges_df.cache().create_or_replace_temp_view("edges")
    edges_df.create_index("edge_source").cache_index().create_or_replace_temp_view("edges_idx")

    result_rows = [
        [q.name, q.uses_index, *_vanilla_vs_indexed(
            session,
            lambda: session.sql(q.sql(pid)).collect_tuples(),
            lambda: session.sql(q_idx.sql(pid)).collect_tuples(),
            reps,
        )]
        for q, q_idx in zip(snb.short_queries(), snb.short_queries("edges_idx"))
    ]
    speedups = {row[0]: row[4] for row in result_rows}
    fig = FigureResult(
        "Fig. 13",
        f"SNB short reads (SF {scale_factor}): vanilla vs indexed (median s)",
        ["query", "uses_index", "vanilla_s", "indexed_s", "speedup", "kernels_s", "kernels_speedup"],
        result_rows,
        notes=(
            "indexed_s / speedup: row-only Indexed DataFrame (indexed_column_kernels=False, "
            "the paper's prototype); kernels_s / kernels_speedup: column kernels on"
        ),
    )
    indexable = [q.name for q in snb.short_queries() if q.uses_index]
    fig.check(
        "all index-friendly queries speed up",
        all(speedups[n] > 1 for n in indexable),
    )
    fig.check(
        "SQ5 and SQ6 (projection/scan-heavy) do NOT speed up",
        speedups["SQ5"] < 1.2 and speedups["SQ6"] < 1.2,
    )
    return fig


def fig14_tpcds(scale_factors: tuple[int, ...] = (1, 10, 100), reps: int = 5, seed: int = 12) -> FigureResult:
    dim = tpcds.generate_date_dim()
    result_rows = []
    speedups = []
    for sf in scale_factors:
        sales = tpcds.generate_store_sales(sf, seed=seed)
        pair = build_pair(
            sales, tpcds.STORE_SALES_SCHEMA, "ss_sold_date_sk",
            config=_fresh_config(), name="store_sales",
        )
        session = pair.session
        session.create_dataframe(dim, tpcds.DATE_DIM_SCHEMA, "date_dim").cache() \
            .create_or_replace_temp_view("date_dim")
        pair.vanilla.create_or_replace_temp_view("store_sales")
        pair.indexed.create_or_replace_temp_view("store_sales_idx")
        vanilla_sql, indexed_sql = tpcds.join_sql(), tpcds.join_sql("store_sales_idx")
        timed = time_rounds(
            {"vanilla": lambda: session.sql(vanilla_sql).collect_tuples(),
             "indexed": lambda: session.sql(indexed_sql).collect_tuples()},
            rounds=reps, settle=_release_shuffles(session),
        )
        speedups.append(timed["vanilla"].median / timed["indexed"].median)
        result_rows.append([sf, len(sales), timed["vanilla"], timed["indexed"], speedups[-1]])
    fig = FigureResult(
        "Fig. 14",
        "TPC-DS store_sales JOIN date_dim across scale factors (median s)",
        ["scale_factor", "fact_rows", "vanilla_s", "indexed_s", "speedup"],
        result_rows,
    )
    fig.check("indexed wins at the largest scale factor", speedups[-1] > 1)
    fig.check(
        f"speedup grows with dataset size ({speedups[0]:.1f}x -> {speedups[-1]:.1f}x)",
        speedups[-1] > speedups[0],
    )
    return fig


def fig15_flights(n_flights: int = 150_000, reps: int = 5, seed: int = 13) -> FigureResult:
    """Q1-Q7 over a large flights table, vanilla vs indexed.

    The flights table must dwarf the per-query fixed costs for the paper's
    5-20x gaps to show (theirs is 120 GB); the planted Q5-Q7 keys keep the
    match counts (10/100/1000) identical to the paper's."""
    fl = flights.generate_flights(n_flights, seed=seed)
    pl = flights.generate_planes(n_flights, seed=seed)
    session = Session(config=_fresh_config())
    fl_df = session.create_dataframe(fl, flights.FLIGHTS_SCHEMA, "flights")
    session.create_dataframe(pl, flights.PLANES_SCHEMA, "planes").cache() \
        .create_or_replace_temp_view("planes")
    for view, sel in (
        ("flights_sel200", flights.select_flights(fl, 200)),
        ("flights_sel400", flights.select_flights(fl, 400)),
    ):
        session.create_dataframe(sel, flights.FLIGHTS_SCHEMA, view) \
            .create_or_replace_temp_view(view)
    fl_df.cache().create_or_replace_temp_view("flights")
    fl_df.create_index("flight_num").cache_index().create_or_replace_temp_view("flights_int")
    fl_df.create_index("tail_num").cache_index().create_or_replace_temp_view("flights_str")
    string_keyed = ("Q1", "Q2")
    indexed = flights.queries("flights_int")
    indexed.update((name, flights.queries("flights_str")[name]) for name in string_keyed)
    queries = {"vanilla": flights.queries(), "indexed": indexed}
    settle = _release_shuffles(session)

    def rounds(runs: dict) -> dict:
        runs = {name: lambda q=q: q(session).collect_tuples() for name, q in runs.items()}
        return time_rounds(runs, rounds=reps, settle=settle)

    result_rows = []
    speedups = {}
    for name in queries["vanilla"]:
        timed = rounds({side: qs[name] for side, qs in queries.items()})
        speedups[name] = timed["vanilla"].median / timed["indexed"].median
        key_type = "string" if name in string_keyed else "integer"
        result_rows.append([name, key_type, timed["vanilla"], timed["indexed"], speedups[name]])
    # The last check compares two indexed queries: they take turns with each other.
    points = {name: t.median for name, t in rounds({q: indexed[q] for q in ("Q5", "Q2")}).items()}
    fig = FigureResult(
        "Fig. 15",
        f"US Flights Q1-Q7 ({n_flights} flights): vanilla vs indexed (median s)",
        ["query", "key_type", "vanilla_s", "indexed_s", "speedup"],
        result_rows,
        notes=(
            "Q1 (full-result string join) is decode-bound at Python scale: the "
            "columnar baseline's vectorized scan is relatively cheaper here "
            "than Spark's scan was at 120 GB — the same row-vs-columnar "
            "asymmetry the paper reports for SQ5/SQ6"
        ),
    )
    fig.check(
        "point queries with small match counts (Q2, Q5, Q6) all speed up",
        min(speedups[q] for q in ("Q2", "Q5", "Q6")) > 1,
    )
    fig.check(
        "Q7 (1000 matches) stays within the decode-floor band (>= 0.6x); at "
        "the paper's 120 GB the scanned:matched ratio is ~10^5 so the index "
        "wins 20x, while our scaled table sits near the row-decode crossover",
        speedups["Q7"] >= 0.6,
    )
    fig.check(
        "join-on-selection queries (Q3, Q4) speed up",
        min(speedups["Q3"], speedups["Q4"]) > 1,
    )
    fig.check(
        "on the indexed side, integer point lookups are faster than "
        f"string ones (hash-then-verify cost: Q5 {points['Q5'] * 1e3:.2f} ms "
        f"vs Q2 {points['Q2'] * 1e3:.2f} ms)",
        points["Q5"] < points["Q2"],
    )
    return fig


def ablation_joins(n_rows: int = 60_000, reps: int = 5, seed: int = 14) -> FigureResult:
    """Section IV-E runs its benchmark on BroadcastHashJoin, "faster than the
    notoriously slow SortMerge Join". One M-scale join (a probe key per 1 000
    edges) under all four operators: the three vanilla joins, built directly
    over the columnar cache (the planner never picks sort-merge), and the
    indexed join."""
    rows = snb.generate_snb_edges(n_rows // 1000, seed=seed)
    pair = build_pair(rows, snb.EDGE_SCHEMA, "edge_source", config=_fresh_config(), name="edges")
    session = pair.session
    probe = _probe_df(session, snb.sample_probe_keys(rows, max(1, n_rows // 1000), seed=seed))
    left = session.plan_physical(probe.plan)
    right = ColumnarScanExec(session, pair.vanilla.plan.cached, relation_name="edges")
    keys = (
        [resolve_expression(col("k"), left.schema)],
        [resolve_expression(col("edge_source"), right.schema)],
    )
    schema = left.schema.concat(right.schema)

    def vanilla(cls, **kw) -> Callable[[], list]:
        join = cls(session, left, right, *keys, "inner", None, schema, **kw)
        return lambda: join.execute().collect()

    joins = {
        "indexed": probe.join(pair.indexed.to_df(), on=("k", "edge_source")).collect_tuples,
        "broadcast-hash": vanilla(BroadcastHashJoinExec, build_side="left"),
        "shuffle-hash": vanilla(ShuffleHashJoinExec, build_side="left"),
        "sort-merge": vanilla(SortMergeJoinExec),
    }
    want = sorted(joins["indexed"]())
    wrong = [name for name, run in joins.items() if sorted(run()) != want]
    timed = time_rounds(joins, rounds=reps, settle=_release_shuffles(session))
    fig = FigureResult(
        "Ablation: joins",
        "One M-scale join under each physical operator (median s)",
        ["operator", "seconds", "vs_indexed"],
        [[name, t, t.median / timed["indexed"].median] for name, t in timed.items()],
    )
    fig.check(f"all four operators return the same rows (differ: {wrong or 'none'})", not wrong)
    medians = [t.median for t in timed.values()]
    fig.check(
        "indexed < broadcast-hash < shuffle-hash < sort-merge", medians == sorted(medians)
    )
    return fig


ALL_EXPERIMENTS: dict[str, Callable[[], FigureResult]] = {
    "1": fig01_amortization,
    "4": fig04_numa,
    "5": fig05_batch_size,
    "6": fig06_scalability,
    "7": fig07_join_scales,
    "8": fig08_operators,
    "9": fig09_read_after_write,
    "10": fig10_write_throughput,
    "11": fig11_memory_overhead,
    "12": fig12_fault_tolerance,
    "13": fig13_snb_queries,
    "14": fig14_tpcds,
    "15": fig15_flights,
    "joins": ablation_joins,
}


def _commit() -> str:
    git = ["git", "rev-parse", "--short", "HEAD"]
    done = subprocess.run(git, cwd=Path(__file__).parent, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fig", action="append", help="figure number(s) to run (default: all)")
    parser.add_argument("--markdown", action="store_true", help="emit EXPERIMENTS.md body")
    args = parser.parse_args(argv)
    figures = args.fig or list(ALL_EXPERIMENTS)
    unknown = [f for f in figures if f not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown figure {unknown[0]!r}; known: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.markdown:
        print(
            f"Generated by `python -m repro.bench.experiments --markdown` at commit "
            f"`{_commit()}`. A timed cell reads `median [q1–q3]` seconds over the "
            f"rounds of `harness.time_rounds`.\n"
        )
    checks = []
    for fig_id in figures:
        t0 = time.perf_counter()
        result = ALL_EXPERIMENTS[fig_id]()
        elapsed = time.perf_counter() - t0
        print(result.to_markdown() if args.markdown else result.to_text())
        print(f"{'' if args.markdown else '  '}({elapsed:.1f}s)\n")
        checks += [ok for _, ok in result.shape_checks]
    print(f"{sum(checks)}/{len(checks)} shape checks hold")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
