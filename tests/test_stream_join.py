"""Stream-window join over the serving tier: monotone, duplicate-free,
version-consistent output under concurrent ingest.

Satellite (b): N reader threads observing :meth:`StreamWindowJoin.results`
while an :class:`IngestLoop` appends and republishes must see output that
only grows (prefix-consistent), never repeats a (probe, build) pair, and
whose every emission was computed against exactly one MVCC version.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.config import Config
from repro.serve.ingest import IngestLoop
from repro.serve.router import ShardRouter
from repro.serve.server import QueryServer, ServeConfig
from repro.serve.stream_join import StreamWindowJoin, WindowSpec
from repro.sql.session import Session
from repro.sql.types import LONG, Schema

EVENT_SCHEMA = Schema.of(("ts", LONG), ("val", LONG))
DOMAIN = 1000
WINDOW = WindowSpec(before=5, after=5)


def make_server():
    session = Session(config=Config(default_parallelism=4, shuffle_partitions=4))
    return session, QueryServer(session, ServeConfig())


def window_oracle(probes, build_rows):
    pairs = set()
    for pid, probe in enumerate(probes):
        for row in build_rows:
            if probe[0] - WINDOW.before <= row[0] <= probe[0] + WINDOW.after:
                pairs.add((pid, row))
    return pairs


class TestWindowSpec:
    def test_range_is_inclusive_both_sides(self):
        kr = WindowSpec(before=3, after=7).range_for(10)
        assert kr.matches(7) and kr.matches(17)
        assert not kr.matches(6) and not kr.matches(18)

    def test_asymmetric_window(self):
        kr = WindowSpec(before=0, after=2).range_for(5)
        assert not kr.matches(4) and kr.matches(5) and kr.matches(7)


class TestStreamWindowJoin:
    def test_single_pass_matches_oracle(self):
        session, server = make_server()
        rng = random.Random(11)
        rows = [(rng.randrange(DOMAIN), i) for i in range(300)]
        idf = session.create_dataframe(rows, EVENT_SCHEMA).create_index("ts").cache_index()
        server.publish("events", idf)
        join = StreamWindowJoin(server, "events", WINDOW)
        probes = [(rng.randrange(DOMAIN), 10_000 + i) for i in range(20)]
        join.add_probes(probes)
        emission = join.probe()
        got = {(probes.index(p), b) for p, b in emission.pairs}
        assert got == window_oracle(probes, rows)
        assert emission.version == idf.version
        server.shutdown()

    def test_republish_emits_only_the_delta(self):
        session, server = make_server()
        rows = [(i, i) for i in range(0, 100, 10)]
        idf = session.create_dataframe(rows, EVENT_SCHEMA).create_index("ts").cache_index()
        server.publish("events", idf)
        join = StreamWindowJoin(server, "events", WINDOW)
        join.add_probes([(50, 0)])
        first = join.probe()
        assert {b for _, b in first.pairs} == {(50, 50)}
        # Re-probing the same version emits nothing new.
        assert join.probe().pairs == []
        server.publish("events", idf.append_rows([(47, 1), (53, 2), (70, 3)]))
        second = join.probe()
        assert {b for _, b in second.pairs} == {(47, 1), (53, 2)}
        assert len(join.results()) == 3

    def test_concurrent_ingest_monotone_duplicate_free(self):
        """The satellite's headline property, end to end."""
        session, server = make_server()
        rng = random.Random(23)
        base = [(rng.randrange(DOMAIN), i) for i in range(400)]
        idf = session.create_dataframe(base, EVENT_SCHEMA).create_index("ts").cache_index()
        server.publish("events", idf)

        join = StreamWindowJoin(server, "events", WINDOW)
        probes = [(rng.randrange(DOMAIN), 10_000 + i) for i in range(30)]
        join.add_probes(probes)
        join.probe()

        batches = [
            [(rng.randrange(DOMAIN), 1000 + i * 50 + j) for j in range(50)]
            for i in range(6)
        ]
        loop = IngestLoop(server, "events", batches, stream_joins=[join])

        stop = threading.Event()
        violations: list[str] = []

        def reader():
            prev: list[tuple] = []
            while not stop.is_set():
                cur = join.results()
                if cur[: len(prev)] != prev:
                    violations.append("output shrank or reordered")
                    return
                prev = cur

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        loop.start()
        loop.join(timeout=120)
        assert not loop.is_alive() and loop.error is None
        join.probe()  # final pass over the last published version
        stop.set()
        for t in readers:
            t.join()
        assert violations == []

        pairs = join.results()
        assert len(pairs) == len(set(pairs)), "duplicate join results emitted"
        all_rows = base + [r for b in batches for r in b]
        got = {(probes.index(p), b) for p, b in pairs}
        assert got == window_oracle(probes, all_rows)

        emissions = join.emissions()
        versions = [e.version for e in emissions]
        assert versions == sorted(versions), "emission versions regressed"
        # Every emission was computed against exactly one pinned version,
        # and the ingest published versions 1..len(batches).
        assert set(versions) <= set(range(len(batches) + 1))

    def test_same_emissions_over_either_front_end(self):
        """``pinned(view)`` is one type on both front ends, so a join
        driven by an IngestLoop emits the same pairs at the same versions
        through a QueryServer and through a ShardRouter."""
        rng = random.Random(31)
        base = [(rng.randrange(DOMAIN), i) for i in range(200)]
        probes = [(rng.randrange(DOMAIN), 10_000 + i) for i in range(15)]
        batches = [
            [(rng.randrange(DOMAIN), 1000 + i * 20 + j) for j in range(20)] for i in range(4)
        ]
        emitted = []
        for make_front_end in (
            lambda session: QueryServer(session, ServeConfig()),
            lambda session: ShardRouter(session, 3),
        ):
            session = Session(config=Config(default_parallelism=4, shuffle_partitions=4))
            front_end = make_front_end(session)
            idf = session.create_dataframe(base, EVENT_SCHEMA).create_index("ts").cache_index()
            front_end.publish("events", idf)
            join = StreamWindowJoin(front_end, "events", WINDOW)
            join.add_probes(probes)
            join.probe()
            loop = IngestLoop(front_end, "events", batches, stream_joins=[join])
            loop.start()
            loop.join(timeout=120)
            assert not loop.is_alive() and loop.error is None
            front_end.shutdown()
            emitted.append([(e.version, sorted(e.pairs)) for e in join.emissions()])
        assert emitted[0] == emitted[1]
        assert [version for version, _ in emitted[0]] == list(range(len(batches) + 1))
        all_rows = base + [r for b in batches for r in b]
        pairs = [pair for _, found in emitted[0] for pair in found]
        assert {(probes.index(p), b) for p, b in pairs} == window_oracle(probes, all_rows)

    def test_metrics_tick(self):
        session, server = make_server()
        idf = session.create_dataframe([(5, 0)], EVENT_SCHEMA).create_index("ts").cache_index()
        server.publish("events", idf)
        join = StreamWindowJoin(server, "events", WINDOW)
        join.add_probes([(5, 1)])
        join.probe()
        reg = session.context.registry
        assert reg.counter_total("stream_join_probes_total") == 1
        assert reg.counter_total("stream_join_pairs_total") == 1


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-x", "-q"])
