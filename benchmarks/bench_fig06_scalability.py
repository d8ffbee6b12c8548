"""Fig. 6 — horizontal (machines) and vertical (cores) scalability.

Wall time measures the real in-process work; the figure's series — the
simulated cluster makespan under each topology — is attached as extra_info
and asserted to scale in the paper's direction (sub-linear horizontally,
near-linear vertically).

Setup matches the experiment driver: a *fixed* 256-way-partitioned task set
over a mildly-skewed graph (see fig06_scalability's docstring for why), so
only the simulated topology varies between points.
"""

import pytest

from benchmarks.conftest import bench_config, probe_df
from repro.bench.harness import build_pair
from repro.cluster.topology import ClusterTopology, make_executors, private_cluster
from repro.engine.context import EngineContext
from repro.sql.session import Session
from repro.workloads import snb

ROWS = 60_000
PARTITIONS = 256
MACHINES = [2, 8, 32]
CORES = [1, 4, 16]

_h_results: dict[int, float] = {}
_v_results: dict[int, float] = {}


def _setup(topology: ClusterTopology):
    ctx = EngineContext(
        config=bench_config(shuffle_partitions=PARTITIONS), topology=topology
    )
    session = Session(context=ctx)
    rows = snb.generate_snb_edges(ROWS // 1000, alpha=0.6)
    pair = build_pair(
        rows, snb.EDGE_SCHEMA, "edge_source", session=session,
        num_partitions=PARTITIONS, name="edges",
    )
    keys = snb.sample_probe_keys(rows, len(rows) // 10)
    joined = probe_df(session, keys).join(pair.indexed.to_df(), on=("k", "edge_source"))
    joined.collect_tuples()  # warm
    return ctx, joined


def _measure(benchmark, ctx, joined) -> float:
    makespans = []

    def run():
        with ctx.metrics.capture() as tasks:
            joined.collect_tuples()
        makespans.append(ctx.metrics.job_makespan(tasks))
        return makespans[-1]

    benchmark.pedantic(run, rounds=4, iterations=1)
    return min(makespans)


@pytest.mark.parametrize("machines", MACHINES)
def test_fig06_horizontal(benchmark, machines):
    ctx, joined = _setup(private_cluster(machines))
    makespan = _measure(benchmark, ctx, joined)
    _h_results[machines] = makespan
    benchmark.extra_info["simulated_makespan_s"] = makespan
    if len(_h_results) == len(MACHINES):
        assert _h_results[2] > _h_results[32], "no horizontal speedup"
        assert _h_results[2] / _h_results[32] < 16, "speedup should be sub-linear"


@pytest.mark.parametrize("cores", CORES)
def test_fig06_vertical(benchmark, cores):
    base = private_cluster(4)
    topo = ClusterTopology(
        machines=base.machines,
        executors=make_executors(base.machines, 1, cores, numa_pinned=False),
        name=f"v{cores}",
    )
    ctx, joined = _setup(topo)
    makespan = _measure(benchmark, ctx, joined)
    _v_results[cores] = makespan
    benchmark.extra_info["simulated_makespan_s"] = makespan
    if len(_v_results) == len(CORES):
        assert _v_results[1] / _v_results[16] > 3, "vertical scaling too weak"
