"""Fig. 4 — deployment sweep: executors x cores x NUMA pinning.

As in the experiment driver, one measured task set is re-scheduled under
every deployment's NUMA-penalty factor and slot count (the way ``numactl``
reruns of one binary isolate the deployment effect); pytest-benchmark times
the real join whose tasks feed the model, and the per-deployment simulated
makespans are attached as extra_info and asserted for the paper's ordering.
"""

import pytest

from benchmarks.conftest import bench_config, probe_df
from repro.bench.harness import build_pair
from repro.cluster.metrics import lpt_makespan
from repro.cluster.numa import NUMAModel
from repro.cluster.topology import ClusterTopology, make_executors, private_cluster
from repro.engine.context import EngineContext
from repro.sql.session import Session
from repro.workloads import snb

ROWS = 30_000

DEPLOYMENTS = {
    "1x16_unpinned": (1, 16, False),
    "2x8_unpinned": (2, 8, False),
    "2x8_pinned": (2, 8, True),
    "4x4_unpinned": (4, 4, False),
    "4x4_pinned": (4, 4, True),
}


def _topology(executors: int, cores: int, pinned: bool) -> ClusterTopology:
    base = private_cluster(4)
    return ClusterTopology(
        machines=base.machines,
        executors=make_executors(base.machines, executors, cores, pinned),
        name=f"{executors}x{cores}",
    )


@pytest.fixture(scope="module")
def measured_join():
    ctx = EngineContext(config=bench_config(), topology=private_cluster(4))
    session = Session(context=ctx)
    rows = snb.generate_snb_edges(ROWS // 1000)
    pair = build_pair(rows, snb.EDGE_SCHEMA, "edge_source", session=session, name="edges")
    keys = snb.sample_probe_keys(rows, len(rows) // 10)
    joined = probe_df(session, keys).join(pair.indexed.to_df(), on=("k", "edge_source"))
    joined.collect_tuples()  # warm
    return ctx, joined


def _simulate(task_sets, deployment: str) -> float:
    executors, cores, pinned = DEPLOYMENTS[deployment]
    topo = _topology(executors, cores, pinned)
    factor = NUMAModel().task_time_factor(topo.executors[0], topo)
    return min(
        sum(
            lpt_makespan([t * factor for t in times], topo.total_cores)
            for times in stages.values()
        )
        for stages in task_sets
    )


@pytest.mark.parametrize("deployment", list(DEPLOYMENTS))
def test_fig04_deployment(benchmark, measured_join, deployment):
    ctx, joined = measured_join
    task_sets = []

    def run():
        with ctx.metrics.capture() as tasks:
            joined.collect_tuples()
        task_sets.append(ctx.metrics.stage_task_times(tasks))

    benchmark.pedantic(run, rounds=5, iterations=1)
    makespan = _simulate(task_sets, deployment)
    benchmark.extra_info["simulated_makespan_s"] = makespan


def test_fig04_shape_pinned_fine_grained_wins(measured_join):
    """The Fig. 4 ordering over one shared measured task set."""
    ctx, joined = measured_join
    task_sets = []
    for _ in range(5):
        with ctx.metrics.capture() as tasks:
            joined.collect_tuples()
        task_sets.append(ctx.metrics.stage_task_times(tasks))
    makespans = {d: _simulate(task_sets, d) for d in DEPLOYMENTS}
    assert makespans["4x4_pinned"] < makespans["1x16_unpinned"]
    assert makespans["2x8_pinned"] <= makespans["2x8_unpinned"]
    assert makespans["4x4_pinned"] <= makespans["2x8_pinned"] * 1.01
