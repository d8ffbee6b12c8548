"""Sharded serve tier: routing, replication, failover, chaos.

The tier-wide contract (DESIGN.md §14), enforced here property-style: the
router may *reject* (retryably) and may *degrade* (partial rows, flagged,
only when every replica of a partition is dead) — but it never returns a
wrong answer, under any seed, with shards dying mid-stream.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import Config
from repro.engine.context import EngineContext
from repro.serve import (
    PartitionNotOwned,
    RouterConfig,
    RoutingTable,
    ServeRejected,
    ShardConfig,
    ShardDown,
    ShardRouter,
    ShardServer,
)
from repro.sql.session import Session

from .conftest import MODES, USER_SCHEMA, make_users


def make_sharded(
    num_shards: int = 4,
    router: RouterConfig | None = None,
    config: Config | None = None,
    n_users: int = 120,
):
    config = config or Config(
        default_parallelism=4, shuffle_partitions=4, row_batch_size=4096
    )
    session = Session(context=EngineContext(config=config))
    df = session.create_dataframe(make_users(n_users), USER_SCHEMA, name="users")
    idf = df.create_index("uid")
    r = ShardRouter(session, num_shards, config=router or RouterConfig())
    r.publish("users", idf)
    return session, idf, r


# -- routing table ---------------------------------------------------------------------


class TestRoutingTable:
    def test_primary_and_replica_placement(self):
        t = RoutingTable(num_partitions=6, num_shards=3, replication_factor=2)
        assert t.replicas(0) == [0, 1]
        assert t.replicas(4) == [1, 2]
        assert t.replicas(5) == [2, 0]
        assert sorted(t.splits_owned_by(0)) == [0, 2, 3, 5]

    def test_replication_factor_clamped_to_shards(self):
        t = RoutingTable(num_partitions=2, num_shards=2, replication_factor=5)
        assert t.replication_factor == 2
        assert sorted(t.replicas(0)) == [0, 1]

    def test_scan_assignment_balances_and_reports_missing(self):
        t = RoutingTable(num_partitions=8, num_shards=4, replication_factor=2)
        assignment, missing = t.scan_assignment(range(8), live={0, 1, 2, 3})
        assert missing == []
        covered = sorted(s for splits in assignment.values() for s in splits)
        assert covered == list(range(8))  # each split exactly once
        # Kill everything owning split 0 ({0, 1}): it has no live replica.
        assignment, missing = t.scan_assignment(range(8), live={2, 3})
        assert 0 in missing
        covered = sorted(s for splits in assignment.values() for s in splits)
        assert 0 not in covered


# -- a single shard --------------------------------------------------------------------


class TestShardServer:
    def make_shard(self, **cfg):
        config = Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=4096)
        session = Session(context=EngineContext(config=config))
        df = session.create_dataframe(make_users(60), USER_SCHEMA, name="users")
        idf = df.create_index("uid")
        from repro.serve.snapshot import PinnedSnapshot

        pin = PinnedSnapshot.pin(idf)
        shard = ShardServer(0, session.context, ShardConfig(**cfg))
        owned = {0: pin.partitions[0], 2: pin.partitions[2]}
        shard.install("users", pin.version, owned)
        return session, idf, pin, shard

    def test_lookup_owned_key_and_reject_unowned(self):
        session, idf, pin, shard = self.make_shard()
        owned_key = next(
            k for k in range(60) if idf.partitioner.partition(k) in (0, 2)
        )
        unowned_key = next(
            k for k in range(60) if idf.partitioner.partition(k) not in (0, 2)
        )
        split_of = idf.partitioner.partition
        assert shard.lookup("users", owned_key, split_of(owned_key)) == pin.lookup(owned_key)
        with pytest.raises(PartitionNotOwned):
            shard.lookup("users", unowned_key, split_of(unowned_key))

    def test_scan_only_requested_splits(self):
        session, idf, pin, shard = self.make_shard()
        rows = shard.scan("users", [0])
        assert sorted(rows) == sorted(pin.partitions[0].scan_rows())
        with pytest.raises(PartitionNotOwned):
            shard.scan("users", [0, 1])  # 1 is not installed

    def test_kill_raises_shard_down_and_restore_is_empty(self):
        session, idf, pin, shard = self.make_shard()
        shard.kill()
        assert not shard.alive
        with pytest.raises(ShardDown):
            shard.lookup("users", 0, 0)
        with pytest.raises(ShardDown):
            shard.heartbeat()
        shard.restore()
        assert shard.alive
        # A restart does not resurrect state: the router must re-install.
        with pytest.raises(PartitionNotOwned):
            shard.lookup("users", 0, 0)

    def test_overload_sheds_retryably(self):
        session, idf, pin, shard = self.make_shard(max_inflight=0)
        with pytest.raises(ServeRejected) as exc_info:
            shard.lookup("users", 0, 0)
        assert exc_info.value.reason == "shard_overloaded"
        assert exc_info.value.retryable


# -- the router ------------------------------------------------------------------------


class TestShardRouter:
    def test_point_in_scan_general_match_session(self):
        session, _, router = make_sharded()
        with router:
            cases = [
                ("SELECT * FROM users WHERE uid = 17", "point"),
                ("SELECT name, score FROM users WHERE uid IN (3, 4, 5)", "point"),
                ("SELECT uid FROM users WHERE score > 50", "scan"),
                ("SELECT name, SUM(score) AS s FROM users GROUP BY name", "general"),
            ]
            for text, path in cases:
                result = router.query(text)
                assert result.path == path, text
                assert sorted(result.rows) == sorted(
                    session.sql(text).collect_tuples()
                ), text
                assert not result.degraded

    def test_single_key_routes_to_one_shard_only(self):
        session, idf, router = make_sharded()
        with router:
            router.query("SELECT * FROM users WHERE uid = 9")  # warm template
            reg = session.context.registry
            before = reg.counter_by_label("serve_shard_requests_total", "shard")
            router.query("SELECT * FROM users WHERE uid = 9")
            after = reg.counter_by_label("serve_shard_requests_total", "shard")
            touched = [s for s in after if after[s] > before.get(s, 0)]
            assert len(touched) == 1

    def test_failover_mid_stream_no_client_visible_error(self):
        session, idf, router = make_sharded()
        with router:
            expected = {
                uid: sorted(session.sql(
                    f"SELECT * FROM users WHERE uid = {uid}"
                ).collect_tuples())
                for uid in range(40)
            }
            for uid in range(20):
                assert sorted(
                    router.query("SELECT * FROM users WHERE uid = ?", params=[uid]).rows
                ) == expected[uid]
            router.kill_shard(1)
            # rf=2: every key still has a live replica — zero degraded,
            # zero wrong, zero client-visible errors.
            for uid in range(40):
                result = router.query(
                    "SELECT * FROM users WHERE uid = ?", params=[uid]
                )
                assert not result.degraded
                assert sorted(result.rows) == expected[uid]
            assert router.shard_states()[1] == "dead"

    def test_degraded_only_when_all_replicas_dead(self):
        session, idf, router = make_sharded(
            num_shards=3,
            router=RouterConfig(replication_factor=1, auto_repair=False),
        )
        with router:
            dead = 0
            router.kill_shard(dead)
            table = router.routing_table("users")
            lost = {split for split, owners in table.items() if owners == [dead]}
            assert lost, "rf=1 kill must orphan some splits"
            for uid in range(60):
                split = idf.partitioner.partition(uid)
                result = router.query(
                    "SELECT * FROM users WHERE uid = ?", params=[uid]
                )
                if split in lost:
                    assert result.degraded
                    assert result.rows == []
                    assert split in result.missing_partitions
                else:
                    assert not result.degraded
            scan = router.query("SELECT uid FROM users WHERE score >= 0")
            assert scan.degraded
            assert set(scan.missing_partitions) == lost
            served = {uid for (uid,) in scan.rows}
            assert all(idf.partitioner.partition(u) not in lost for u in served)

    def test_auto_repair_restores_replication_factor(self):
        session, idf, router = make_sharded(num_shards=4)
        with router:
            router.kill_shard(2)
            live = set(router.live_shards())
            table = router.routing_table("users")
            for split, owners in table.items():
                assert sum(1 for s in owners if s in live) >= 2, (split, owners)
            # And the repaired copies actually serve.
            for uid in range(30):
                result = router.query(
                    "SELECT name FROM users WHERE uid = ?", params=[uid]
                )
                assert not result.degraded

    def test_recover_shard_rejoins_and_serves(self):
        session, idf, router = make_sharded()
        with router:
            router.kill_shard(0)
            router.recover_shard(0)
            assert router.shard_states()[0] == "alive"
            assert 0 in router.live_shards()
            snap = router.shards[0].snapshot("users")
            assert snap.version == idf.version
            owned = [s for s, owners in router.routing_table("users").items() if 0 in owners]
            assert sorted(snap.parts) == owned
            pin = router.pinned("users")
            assert all(snap.parts[s] is pin.partitions[s] for s in owned)

    def test_heartbeat_state_machine_alive_suspect_dead(self):
        session, idf, router = make_sharded(
            router=RouterConfig(heartbeat_misses_to_dead=2)
        )
        with router:
            router.shards[3]._alive = False  # fail heartbeats without declaring
            assert router.check_health()[3] == "suspect"
            assert router.check_health()[3] == "dead"
            # Dead shards stay dead until explicitly recovered.
            assert router.check_health()[3] == "dead"
            router.recover_shard(3)
            assert router.check_health()[3] == "alive"

    def test_publish_barrier_keeps_versions_consistent(self):
        session, idf, router = make_sharded(n_users=80)
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                try:
                    result = router.query("SELECT uid FROM users WHERE score >= 0")
                except ServeRejected:
                    continue
                counts = len(result.rows)
                # Every publish appends exactly 1 row: any answer must be
                # one of the published cardinalities, never in between
                # versions (the barrier guarantees it).
                if counts not in allowed:
                    torn.append(counts)

        allowed = {80}
        t = threading.Thread(target=reader)
        t.start()
        try:
            current = idf
            for i in range(5):
                current = current.append_rows([(1000 + i, f"new{i}", 1.0)])
                allowed.add(80 + i + 1)
                router.publish("users", current)
        finally:
            stop.set()
            t.join(timeout=10.0)
        router.shutdown()
        assert torn == []


    @pytest.mark.parametrize("mode", MODES)
    def test_publish_during_failover_returns(self, mode):
        """A publish waits out in-flight queries; a query that finds its
        shard dead needs the admin lock to declare it. Publish used to take
        that lock *before* waiting, and neither thread ever returned."""
        session, idf, router = make_sharded(
            config=Config(
                default_parallelism=4, shuffle_partitions=4, row_batch_size=4096,
                scheduler_mode=mode,
            )
        )
        uid = 5
        text = "SELECT * FROM users WHERE uid = ?"
        expected = router.query(text, params=[uid]).rows
        # The rotation tries the replicas in turn: stall both, so the reader
        # is held inside whichever shard it lands on, and kill that one.
        owners = router.routing_table("users")[idf.partitioner.partition(uid)]
        for owner in owners:
            session.context.faults.delay_shard_once(owner, 0.5)
        child = idf.append_rows([(9000, "late", 1.0)])
        answers: list = []
        reader = threading.Thread(
            target=lambda: answers.append(router.query(text, params=[uid])), daemon=True
        )
        publisher = threading.Thread(target=router.publish, args=("users", child), daemon=True)
        reader.start()
        deadline = time.perf_counter() + 5.0
        held = None
        while held is None and time.perf_counter() < deadline:
            held = next((s for s in owners if router.shards[s].heartbeat()["inflight"]), None)
        assert held is not None, "the reader never reached a shard"
        router.kill_shard(held)
        publisher.start()
        reader.join(timeout=5.0)
        publisher.join(timeout=5.0)
        assert not reader.is_alive() and not publisher.is_alive(), "publish deadlocked"
        (answer,) = answers
        assert answer.rows == expected and not answer.degraded and answer.failovers == 1
        assert router.query(text, params=[9000]).rows == [(9000, "late", 1.0)]
        router.shutdown()


# -- the 200-seed property test --------------------------------------------------------


class TestShardedChaosProperty:
    """Across 200 seeds, the sharded+replicated tier answers identically to
    the general pipeline — including with chaos killing shards
    mid-workload. Zero wrong answers; ``degraded`` may appear only when
    every replica of a partition is dead."""

    N_USERS = 60
    QUERIES = [
        ("SELECT * FROM users WHERE uid = ?", "point"),
        ("SELECT name, score FROM users WHERE uid IN (2, 19, 44)", "point"),
        ("SELECT uid, name FROM users WHERE score > 35", "scan"),
    ]

    @pytest.fixture(scope="class")
    def shared(self):
        config = Config(
            default_parallelism=4, shuffle_partitions=4, row_batch_size=4096
        )
        session = Session(context=EngineContext(config=config))
        df = session.create_dataframe(
            make_users(self.N_USERS), USER_SCHEMA, name="users"
        )
        idf = df.create_index("uid")
        idf.create_or_replace_temp_view("users")
        # Reference answers from the general pipeline (session.execute of
        # the bound plan), which shares no code with the serve tier's read
        # path.
        statement = session.prepare(self.QUERIES[0][0])
        expected: dict[tuple, list] = {}
        for uid in range(self.N_USERS + 5):
            expected[("point?", uid)] = sorted(session.execute(statement.bind([uid])))
        for text, _ in self.QUERIES[1:]:
            expected[(text, None)] = sorted(session.execute(session.sql_logical(text)))
        return session, idf, expected

    def test_200_seeds_zero_wrong_answers(self, shared):
        session, idf, expected = shared
        faults = session.context.faults
        wrong: list[tuple] = []
        degraded_seen = 0
        kills_seen = 0
        for seed in range(200):
            faults.reset()
            faults.configure(seed=seed, shard_kill_prob=0.06)
            router = ShardRouter(
                session,
                num_shards=4,
                config=RouterConfig(replication_factor=2),
            )
            router.publish("users", idf)
            try:
                for i in range(24):
                    uid = (seed * 7 + i * 5) % (self.N_USERS + 5)
                    text, _ = self.QUERIES[i % len(self.QUERIES)]
                    params = [uid] if "?" in text else None
                    key = ("point?", uid) if params else (text, None)
                    try:
                        result = router.query(text, params=params)
                    except ServeRejected as exc:
                        assert exc.retryable, (seed, i, exc.reason)
                        continue
                    if result.degraded:
                        degraded_seen += 1
                        live = set(router.live_shards())
                        table = router.routing_table("users")
                        for split in result.missing_partitions:
                            owners = table[split]
                            assert not (set(owners) & live), (
                                f"seed {seed}: split {split} flagged missing "
                                f"but has live replicas {owners} ∩ {live}"
                            )
                        continue
                    if sorted(result.rows) != expected[key]:
                        wrong.append((seed, i, text, uid))
                dead = [s for s, h in router.shard_states().items() if h == "dead"]
                kills_seen += len(dead)
            finally:
                router.shutdown()
        faults.reset()
        assert wrong == [], f"wrong answers under chaos: {wrong[:5]}"
        assert kills_seen > 0, "chaos never killed a shard across 200 seeds"
        # rf=2 on 4 shards: most kills are absorbed; degradation is the
        # exception (both replicas dead), not the rule.
        assert degraded_seen < kills_seen * 24
