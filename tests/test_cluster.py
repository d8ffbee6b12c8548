"""Cluster substrate: topology presets, network/NUMA models, metrics, faults."""

import ast
from pathlib import Path

import pytest

import repro
from repro.cluster.faults import FaultInjector
from repro.cluster.metrics import RECOVERY_EVENT_KINDS, MetricsCollector, TaskMetrics
from repro.cluster.network import NetworkModel, ethernet_10g, infiniband_fdr
from repro.cluster.numa import NUMAModel
from repro.cluster.topology import (
    ClusterTopology,
    ExecutorSpec,
    Machine,
    NUMADomain,
    ec2_i3_8xlarge,
    ec2_i3_xlarge,
    make_executors,
    private_cluster,
)


class TestTopology:
    def test_private_cluster_preset_matches_table1(self):
        topo = private_cluster(num_machines=4)
        assert topo.num_machines == 4
        for m in topo.machines:
            assert m.cores == 16  # dual-socket E5-2630-v3
            assert len(m.numa_domains) == 2
        # Best Fig. 4 deployment: 4 executors x 4 cores, pinned.
        assert len(topo.executors) == 16
        assert all(ex.cores == 4 for ex in topo.executors)
        assert all(ex.pinned_domain is not None for ex in topo.executors)
        assert topo.total_cores == 64

    def test_ec2_presets(self):
        small = ec2_i3_xlarge(4)
        assert all(m.cores == 4 for m in small.machines)
        big = ec2_i3_8xlarge(2)
        assert all(m.cores == 16 for m in big.machines)

    def test_executor_lookup_and_machine_of(self):
        topo = private_cluster(2)
        ex = topo.executors[0]
        assert topo.executor(ex.executor_id) is ex
        assert topo.machine_of(ex.executor_id) == ex.machine_id
        with pytest.raises(KeyError):
            topo.executor("nope")

    def test_same_machine(self):
        topo = private_cluster(2)
        per_machine: dict[int, list[str]] = {}
        for ex in topo.executors:
            per_machine.setdefault(ex.machine_id, []).append(ex.executor_id)
        m0 = per_machine[0]
        m1 = per_machine[1]
        assert topo.same_machine(m0[0], m0[1])
        assert not topo.same_machine(m0[0], m1[0])

    def test_slots_count(self):
        topo = private_cluster(1)
        assert len(list(topo.slots())) == topo.total_cores

    def test_without_executor(self):
        topo = private_cluster(1)
        victim = topo.executors[0].executor_id
        smaller = topo.without_executor(victim)
        assert len(smaller.executors) == len(topo.executors) - 1
        with pytest.raises(KeyError):
            smaller.executor(victim)

    def test_invalid_executor_placement_rejected(self):
        m = Machine(0, (NUMADomain(0, 0, 4),))
        with pytest.raises(ValueError):
            ClusterTopology([m], [ExecutorSpec("e", 99, 4)])
        with pytest.raises(ValueError):
            ClusterTopology([m], [ExecutorSpec("e", 0, 4, pinned_domain=5)])

    def test_make_executors_round_robins_domains(self):
        machines = [Machine(0, (NUMADomain(0, 0, 8), NUMADomain(0, 1, 8)))]
        exes = make_executors(machines, 4, 4, numa_pinned=True)
        assert [e.pinned_domain for e in exes] == [0, 1, 0, 1]


class TestNetworkModel:
    def test_cross_machine_slower_than_local(self):
        net = NetworkModel()
        remote = net.transfer_time(10_000_000, cross_machine=True)
        local = net.transfer_time(10_000_000, cross_machine=False)
        assert remote > local

    def test_latency_dominates_small_transfers(self):
        net = NetworkModel(latency=1e-3)
        t = net.transfer_time(10, cross_machine=True)
        assert t == pytest.approx(1e-3, rel=0.01)

    def test_broadcast_scales_logarithmically(self):
        net = NetworkModel()
        t4 = net.broadcast_time(1_000_000, 4)
        t16 = net.broadcast_time(1_000_000, 16)
        assert t16 < 4 * t4  # tree, not linear
        assert net.broadcast_time(1000, 1) == 0.0

    def test_infiniband_faster_than_ethernet(self):
        ib, eth = infiniband_fdr(), ethernet_10g()
        assert ib.transfer_time(10**8, True) < eth.transfer_time(10**8, True)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-1, True)


class TestNUMAModel:
    def test_pinned_executor_no_remote_accesses(self):
        topo = private_cluster(1, executors_per_machine=4, cores_per_executor=4, numa_pinned=True)
        model = NUMAModel()
        ex = topo.executors[0]
        assert model.remote_fraction(ex, topo) == 0.0

    def test_unpinned_executor_pays_remote_penalty(self):
        topo = private_cluster(1, executors_per_machine=1, cores_per_executor=16, numa_pinned=False)
        model = NUMAModel()
        ex = topo.executors[0]
        assert model.remote_fraction(ex, topo) == pytest.approx(0.5)
        assert model.task_time_factor(ex, topo) > 1.1

    def test_fig4_ordering_fat_unpinned_slowest(self):
        """Fig. 4's qualitative finding: fine-grained pinned executors beat
        one fat unpinned executor."""
        model = NUMAModel()
        fat = private_cluster(1, 1, 16, numa_pinned=False)
        fine = private_cluster(1, 4, 4, numa_pinned=True)
        f_fat = model.task_time_factor(fat.executors[0], fat)
        f_fine = model.task_time_factor(fine.executors[0], fine)
        assert f_fine < f_fat


class TestMetricsCollector:
    def _collector(self):
        return MetricsCollector(private_cluster(1))

    def test_record_and_summary(self):
        mc = self._collector()
        ex = mc.topology.executors[0].executor_id
        outside = TaskMetrics(stage_id=0, partition=9, executor_id=ex, compute_seconds=9.0)
        mc.record(outside)
        with mc.capture() as tasks:
            mc.record(TaskMetrics(stage_id=0, partition=0, executor_id=ex, compute_seconds=0.5))
            mc.record(TaskMetrics(stage_id=0, partition=1, executor_id=ex, compute_seconds=0.3))
        mc.record(outside)
        # Only what ran inside the scope is captured; the registry saw it all.
        s = mc.summary(tasks)
        assert s["tasks"] == 2
        assert s["compute_seconds"] == pytest.approx(0.8)
        assert mc.registry.counter_value("tasks_completed_total") == 4

    def test_stage_makespan_uses_parallelism(self):
        mc = self._collector()
        ex = mc.topology.executors[0].executor_id
        # 16 cores, 16 equal tasks of 1s -> makespan ~1s, not 16s.
        stage = [
            TaskMetrics(stage_id=1, partition=p, executor_id=ex, compute_seconds=1.0)
            for p in range(16)
        ]
        assert mc.stage_makespan(stage) == pytest.approx(1.0, rel=0.1)

    def test_remote_fetch_adds_time(self):
        mc = self._collector()
        ex = mc.topology.executors[0].executor_id
        fast = TaskMetrics(stage_id=0, partition=0, executor_id=ex, compute_seconds=0.1)
        slow = TaskMetrics(
            stage_id=0, partition=1, executor_id=ex, compute_seconds=0.1,
            shuffle_bytes_read_remote=10**9,
        )
        assert mc.simulated_task_seconds(slow) > mc.simulated_task_seconds(fast)

    @pytest.mark.parametrize(
        "remote, local", [(10**6, 0), (0, 10**6), (3 * 10**6, 7 * 10**5)],
        ids=["remote-only", "local-only", "mixed"],
    )
    def test_simulated_task_seconds_is_the_inline_formula(self, remote, local):
        """The modeled task time is compute x NUMA factor, plus latency +
        remote / bandwidth, plus local / local bandwidth: the same floats,
        added in the same order."""
        mc = self._collector()
        ex = mc.topology.executor(mc.topology.executors[0].executor_id)
        task = TaskMetrics(
            stage_id=0, partition=0, executor_id=ex.executor_id, compute_seconds=0.25,
            shuffle_bytes_read_remote=remote, shuffle_bytes_read_local=local,
        )
        net = mc.network
        fetch = 0.0
        if remote:
            fetch = net.latency + remote / net.bandwidth
        if local:
            fetch += local / net.local_bandwidth
        compute = 0.25 * mc.numa.task_time_factor(ex, mc.topology)
        assert mc.simulated_task_seconds(task) == compute + fetch

    def test_job_makespan_sums_stages(self):
        mc = self._collector()
        ex = mc.topology.executors[0].executor_id
        first = TaskMetrics(stage_id=0, partition=0, executor_id=ex, compute_seconds=1.0)
        second = TaskMetrics(stage_id=1, partition=0, executor_id=ex, compute_seconds=2.0)
        assert mc.job_makespan([first, second]) == pytest.approx(
            mc.stage_makespan([first]) + mc.stage_makespan([second])
        )
        assert mc.stage_task_times([first, second]) == {0: [1.0], 1: [2.0]}

    def test_reset(self):
        mc = self._collector()
        ex = mc.topology.executors[0].executor_id
        mc.record(TaskMetrics(stage_id=0, partition=0, executor_id=ex, compute_seconds=1.0))
        mc.record_recovery("task_retry")
        mc.reset()
        assert mc.registry.counter_value("tasks_completed_total") == 0
        assert mc.registry.counter_by_label("recovery_events_total", "kind") == {}

    def test_recovery_kind_taxonomy_is_what_the_code_records(self):
        """``RECOVERY_EVENT_KINDS`` equals the set of string literals ``src/``
        passes to ``record_recovery`` — a kind cannot be added or deleted on
        one side only (the sibling of the ``Config`` honesty test)."""
        recorded: set[str] = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record_recovery"
                ):
                    kind = node.args[0]
                    assert isinstance(kind, ast.Constant), f"{path}:{node.lineno}"
                    recorded.add(kind.value)
        assert len(RECOVERY_EVENT_KINDS) == len(set(RECOVERY_EVENT_KINDS))
        assert recorded == set(RECOVERY_EVENT_KINDS)


class TestFaultInjector:
    def test_fires_once_at_job(self):
        fi = FaultInjector()
        fi.fail_executor_at_job("e1", job_index=5)
        assert fi.check(4) == []
        assert fi.check(5) == ["e1"]
        assert fi.check(6) == []  # one-shot
        assert fi.killed == [(5, "e1")]

    def test_multiple_schedules(self):
        fi = FaultInjector()
        fi.fail_executor_at_job("a", 1)
        fi.fail_executor_at_job("b", 1)
        assert sorted(fi.check(1)) == ["a", "b"]

    def test_custom_predicate_and_reset(self):
        fi = FaultInjector()
        fi.fail_when(lambda j: j % 2 == 0, "e")
        assert fi.check(2) == ["e"]
        fi.reset()
        assert fi.check(2) == []
