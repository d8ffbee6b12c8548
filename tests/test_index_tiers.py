"""The index's two tiers against an oracle, in every combination (DESIGN.md §15).

One seeded differential drives random interleavings of ``insert_rows``
(batch sizes 1…2 000, keys repeated inside and across batches), new versions
(snapshot or copy-on-write) and *divergent* appends to two children of one
parent, over integer, hashed-string (``hash32`` squeezed to 199 values, so
most chains mix keys) and unhashed-string keys. The same calls are fed to
one partition lineage per seal threshold ``{1, 2, 7, 512, 10**6, 0}``; after
every step each touched version must agree with a dict-of-lists oracle — and
so with the threshold-``0`` (cTrie-only) lineage — and at the end every
ancestor must still answer as it did before its descendants wrote or sealed.
At ``10**6`` only the first build into an empty index seals.

An int-kind first build is placed in key order and read as runs (DESIGN.md
§15, Runs): ``insert`` asserts which seals make a key-ordered base (a first
array build, never a later seal), and ``check`` counts the chains a
``lookup_many`` walks (none for a run, one per key the delta shadows).

Beside it: ``index_bytes()`` counts every index structure (nothing index-like
hides outside it, and the memory manager meters the same arrays), and the
byte layout of the row batches is pinned to what the parent commit wrote.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.indexed import partition as partition_module
from repro.indexed.mvcc import CopyOnWriteVersioning, SnapshotVersioning
from repro.indexed.ordered_index import KeyRange
from repro.indexed.out_of_core import spill_partition
from repro.indexed.partition import IndexedPartition
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema
from repro.utils.memory import deep_sizeof

NEVER_REACHED = 10**6
THRESHOLDS = (1, 2, 7, 512, NEVER_REACHED, 0)
KINDS = ("int", "hashed", "unhashed")
INT_SCHEMA = Schema.of(("k", LONG), ("seq", LONG), ("w", DOUBLE))
STR_SCHEMA = Schema.of(("k", STRING), ("seq", LONG), ("w", DOUBLE))
DOMAIN = 300


def make_key(kind: str, i: int):
    return i if kind == "int" else f"{'ab'[i % 2]}{i:04d}"


def chain_walks(part: IndexedPartition, read) -> int:
    """How many chains ``read()`` walked on ``part``."""
    codec, calls = part.codec, []
    inner = codec.decode_chain
    codec.decode_chain = lambda *args: calls.append(args) or inner(*args)
    try:
        read()
    finally:
        del codec.decode_chain
    return len(calls)


class Version:
    """One MVCC version: the oracle's rows per key (newest first) and the
    same version in one partition per seal threshold."""

    def __init__(self, oracle: dict, parts: dict[int, IndexedPartition]) -> None:
        self.oracle = oracle
        self.parts = parts

    @classmethod
    def root(cls, kind: str) -> "Version":
        schema = INT_SCHEMA if kind == "int" else STR_SCHEMA
        return cls(
            {},
            {
                t: IndexedPartition(
                    schema,
                    "k",
                    batch_size=2048,
                    hash_string_keys=kind == "hashed",
                    ordered_compact_threshold=t,
                )
                for t in THRESHOLDS
            },
        )

    def child(self, strategy) -> "Version":
        return Version(
            {k: list(rows) for k, rows in self.oracle.items()},
            {t: strategy.new_version(p, p.version + 1) for t, p in self.parts.items()},
        )

    def insert(self, rows: list[tuple], one_by_one: bool) -> None:
        for threshold, part in self.parts.items():
            built, base = part.row_count > 0, part.ordered.base
            runs = not (part.batches or one_by_one) and part.codec.encode_records(rows) is not None
            if one_by_one:
                for row in rows:
                    part.insert_row(row)
            else:
                assert part.insert_rows(iter(rows)) == len(rows)
            if threshold == NEVER_REACHED:  # the first build seals, the rest stay in the delta
                assert len(part.ordered.base.keys) > 0
                assert part.ordered.base is base or not built
            if part.ordered.base is not base:  # a seal: key-ordered only from a first array build
                assert part.ordered.base.runs == (runs and threshold > 0)
        for row in rows:
            self.oracle.setdefault(row[0], []).insert(0, row)

    def check(self, kind: str, rng: random.Random) -> None:
        oracle = self.oracle
        keys = sorted(oracle)
        probes = [make_key(kind, rng.randrange(DOMAIN + 20)) for _ in range(12)] + keys[:3]
        a, b = sorted(make_key(kind, rng.randrange(DOMAIN)) for _ in range(2))
        ranges = [
            KeyRange(a, b),
            KeyRange(a, b, lo_inclusive=False, hi_inclusive=False),
            KeyRange(lo=a, lo_inclusive=rng.random() < 0.5),
            KeyRange(hi=b, hi_inclusive=rng.random() < 0.5),
            KeyRange(b, a),  # reversed (or a point): statically empty or one key
            KeyRange(a, a, hi_inclusive=False),
            KeyRange(),
        ]
        if kind != "int":
            ranges += [KeyRange.prefix_of(p) for p in ("a", "b00", a[:4], "zz", "")]
        decoded = rng.sample(ranges, 2)
        all_rows = sorted(r for rows in oracle.values() for r in rows)
        for threshold, part in self.parts.items():
            where = f"threshold={threshold} v={part.version}"
            for key in probes:
                assert part.lookup(key) == oracle.get(key, []), where
                assert part.contains_key(key) == (key in oracle), where
            assert part.lookup_many(probes + probes) == {
                k: oracle.get(k, []) for k in probes
            }, where
            if kind == "int":  # a run is gathered, the keys the delta shadows are walked
                present = [k for k in dict.fromkeys(probes) if k in oracle]
                runs = part.ordered.base.runs
                walked = len(part.ordered.delta_heads(present)) if runs else len(present)
                assert chain_walks(part, lambda: part.lookup_many(probes)) == walked, where
            for krange in ranges:
                wanted = [k for k in keys if krange.matches(k)]
                assert part.ordered.range_keys(krange) == wanted, (where, krange)
                if len(wanted) > 40 and krange not in decoded:
                    continue  # the wide ranges are decoded for a sample only
                rows, scanned = part.range_lookup(krange)
                assert rows == [r for k in wanted for r in oracle[k]], (where, krange)
                assert scanned >= len(rows)
            assert part.num_keys() == len(oracle), where
            assert part.row_count == len(all_rows), where
            assert sorted(part.scan_rows()) == all_rows, where
            assert sorted(part.iter_rows()) == all_rows, where
            assert part.ordered.min_key() == (keys[0] if keys else None)
            assert part.ordered.max_key() == (keys[-1] if keys else None)
            for array in part.ordered.base:
                assert not array.flags.writeable
            if threshold:  # the delta stays small; 0 never seals
                assert part.ordered.delta_writes < threshold, where
                assert len(part.ctrie) <= part.ordered.delta_writes
            else:
                assert len(part.ordered.base.keys) == 0


def run_scenario(seed: int, steps: int) -> None:
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    versions = [Version.root(kind)]
    parents = []
    seq = 0

    def batch() -> list[tuple]:
        nonlocal seq
        size = int(2000 ** rng.random() ** 2)  # 1 … 2 000, mostly small
        spread = rng.choice((3, 40, DOMAIN))  # few hot keys … the whole domain
        rows = []
        for _ in range(size):
            seq += 1
            rows.append((make_key(kind, rng.randrange(spread)), seq, seq / 2))
        return rows

    for _ in range(steps):
        action = rng.random()
        target = rng.choice(versions)
        strategy = rng.choice((SnapshotVersioning(), CopyOnWriteVersioning()))
        if action < 0.45:
            rows = batch()
            target.insert(rows, one_by_one=len(rows) < 20 and rng.random() < 0.5)
            touched = [target]
        elif action < 0.7:
            touched = [target.child(strategy)]
            touched[0].insert(batch(), one_by_one=False)
        else:  # two children of one parent diverge (sharing its tail batch)
            touched = [target.child(strategy), target.child(SnapshotVersioning())]
            for sibling in touched:
                sibling.insert(batch(), one_by_one=False)
        if touched[0] is not target:
            versions += touched
            parents.append(target)
        for version in touched:
            version.check(kind, rng)
    for version in dict.fromkeys(parents):  # every ancestor still answers as it did
        version.check(kind, rng)


@pytest.fixture
def colliding_hash32(monkeypatch):
    """Squeeze the partition's string hash to 199 values: with 300 keys most
    chains mix several keys, so hash-then-verify is always on trial."""
    monkeypatch.setattr(
        partition_module, "hash32", lambda key: zlib.crc32(str(key).encode()) % 199
    )


@pytest.mark.parametrize("seed", range(100))
def test_tiers_agree_with_oracle(seed, colliding_hash32):
    run_scenario(seed, steps=5)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(100, 400))
def test_tiers_agree_with_oracle_long(seed, colliding_hash32):
    run_scenario(seed, steps=14)


def test_sealed_base_rejects_writes():
    part = IndexedPartition(INT_SCHEMA, "k", ordered_compact_threshold=4)
    part.insert_rows([(k, k, 0.0) for k in range(10)])
    base = part.ordered.base
    assert len(base.keys) == 10 and len(part.ctrie) == 0
    for array in base:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    child = part.snapshot(1)
    child.insert_rows([(k, -k, 0.0) for k in range(5, 15)])
    assert part.ordered.base is base  # the child sealed into arrays of its own
    assert child.ordered.base is not base and child.num_keys() == 15
    assert part.num_keys() == 10 and part.lookup(12) == []


def test_a_partition_under_the_threshold_is_sealed_by_its_build():
    """``create_index`` builds each partition with one batch into an empty
    index: arrays at once, even far under 512 keys — and never at 0."""
    rows = [(k % 600, k, 0.5) for k in range(3000)]
    empty = IndexedPartition(INT_SCHEMA, "k").index_bytes()  # an empty trie, empty arrays
    for threshold in (512, 0):
        session = Session(config=Config(ordered_index_compact_threshold=threshold))
        idf = session.create_dataframe(rows, INT_SCHEMA, "t").create_index("k", num_partitions=4)
        parts = session.context.run_job(idf.rdd, lambda it, _ctx: next(iter(it)))
        assert sum(p.num_keys() for p in parts) == 600
        for part in parts:
            assert 0 < part.num_keys() < 512
            if threshold:
                assert len(part.ctrie) == 0 and len(part.ordered.base.keys) == part.num_keys()
                assert part.index_bytes() <= 16 * part.num_keys() + empty
            else:
                assert len(part.ctrie) == part.num_keys() and len(part.ordered.base.keys) == 0


def test_error_part_way_keeps_the_placed_rows_indexed():
    part = IndexedPartition(STR_SCHEMA, "k", max_row_size=64)
    rows = [("a", 1, 0.0), ("b", 2, 0.0), ("x" * 100, 3, 0.0), ("c", 4, 0.0)]
    with pytest.raises(ValueError, match="exceeding"):
        part.insert_rows(rows)
    assert part.row_count == 2 and part.num_keys() == 2
    assert part.lookup("a") == [rows[0]] and part.lookup("c") == []
    assert sorted(part.scan_rows()) == rows[:2]


def test_runs_read_spilled_batches_back(tmp_path):
    part = IndexedPartition(INT_SCHEMA, "k", batch_size=2048)
    rows = [(i % 37, i, i / 2) for i in range(900)]
    part.insert_rows(rows)
    assert part.ordered.base.runs and len(part.batches) > 10
    want = {k: [r for r in reversed(rows) if r[0] == k] for k in range(40)}
    spill_partition(part, spill_dir=str(tmp_path), keep_tail=False)
    assert not any(b.resident for b in part.batches)
    assert part.lookup_many(range(40)) == want
    assert part.spill_faults() == len(part.batches)
    wanted = [r for k in range(5, 10) for r in want[k]]
    assert part.range_lookup(KeyRange(5, 9)) == (wanted, len(wanted))


def test_runs_survive_a_lineage_rebuild_under_a_budget(tmp_path):
    """Evicted partitions are rebuilt by a first build again: key-ordered,
    read as runs, and joined as an unbounded session joins them."""
    rows = [(i % 300, i, i / 4) for i in range(6000)]
    probe = [(k,) for k in range(0, 330, 7)]
    answers = []
    for budget in (None, 30_000):
        memory = {} if budget is None else {"executor_memory_bytes": budget}
        config = Config(default_parallelism=4, shuffle_partitions=4, row_batch_size=8192,
                        spill_dir=str(tmp_path), **memory)
        context = EngineContext(config=config, topology=private_cluster(num_machines=1, executors_per_machine=2))
        session = Session(context=context)
        idf = session.create_dataframe(rows, INT_SCHEMA, "t").create_index("k").cache_index()
        idf.create_or_replace_temp_view("t")
        session.create_dataframe(probe, Schema.of(("pk", LONG)), "p").create_or_replace_temp_view("p")
        query = "SELECT * FROM p JOIN t ON pk = k"
        answers.append([sorted(session.sql(query).collect_tuples()) for _ in range(3)])
        assert all(context.run_job(idf.rdd, lambda it, _ctx: next(iter(it)).ordered.base.runs))
        if budget:
            assert context.metrics.recovery_summary().get("block_recomputed", 0) > 0
    assert answers[0] == answers[1]


# -- index_bytes() is honest -------------------------------------------------------------


def build_for_accounting(
    kind: str, distinct: int, threshold: int = 512, rows: int = 50_000
) -> IndexedPartition:
    """``rows`` equal-sized rows over ``distinct`` keys: storage is the same
    for every ``distinct``, so only the index may differ."""
    part = IndexedPartition(
        INT_SCHEMA if kind == "int" else STR_SCHEMA,
        "k",
        hash_string_keys=kind == "hashed",
        ordered_compact_threshold=threshold,
    )
    part.insert_rows([(make_key(kind, i % distinct), i, 0.5) for i in range(rows)])
    return part


@pytest.mark.parametrize("kind", KINDS)
def test_nothing_index_like_hides_outside_index_bytes(kind):
    residual = []
    for distinct in (1_000, 10_000, 50_000):
        part = build_for_accounting(kind, distinct)
        assert part.num_keys() == distinct
        index = part.index_bytes()
        residual.append(deep_sizeof(part) - index - part.allocated_bytes())
        # The index itself is arrays: 16 B a key, plus the key strings.
        assert index < (16 if kind == "int" else 100) * distinct + 2048
    # What is left is batch objects, watermarks, schema and codec: the same
    # whatever the key count (a few bytes of int objects apart).
    assert max(residual) - min(residual) < 1024, residual


def test_index_bytes_counts_the_delta_and_fresh_keys_too():
    sealed = build_for_accounting("int", 10_000, rows=10_000)
    trie_only = build_for_accounting("int", 10_000, threshold=0, rows=10_000)
    assert len(trie_only.ctrie) == 10_000 and len(sealed.ctrie) == 0
    assert trie_only.index_bytes() > 10 * sealed.index_bytes()
    rest = [deep_sizeof(p) - p.index_bytes() for p in (trie_only, sealed)]
    assert abs(rest[0] - rest[1]) < 1024, rest


def test_memory_manager_meters_the_same_arrays():
    part = build_for_accounting("hashed", 10_000, rows=10_000)
    executor = EngineContext(Config(executor_memory_bytes=64 << 20)).executors["m0e0"]
    executor.block_manager.put((1, 0), [part])  # one budgeted put
    charged = executor.memory_manager.block_sizes()[(1, 0)]
    assert charged >= part.index_bytes() + part.resident_batch_bytes()
    assert charged >= deep_sizeof(part)


# -- byte layout ---------------------------------------------------------------------------


def test_row_batch_bytes_are_pinned():
    """Scans, seal checkpoints and spill files read ``buf[:watermark]``: the
    batched write path must lay rows out exactly as the row-at-a-time one
    did. CRCs recorded at c9dce30 for this input (arrival order, repeated
    keys, string rows, a snapshot child appending to the shared tail). The
    int kind's two were recorded again when a first array build came to be
    placed in key order (DESIGN.md §15, Runs): its parent is that build and
    its child appends in arrival order behind it. The string kinds keep the
    row layout, and their CRCs."""
    rng = random.Random(5)
    crcs = []
    for kind in KINDS:
        schema = INT_SCHEMA if kind == "int" else STR_SCHEMA
        part = IndexedPartition(schema, "k", batch_size=4096, hash_string_keys=kind == "hashed")
        rows = [(make_key(kind, rng.randrange(200)), i, i / 4) for i in range(3000)]
        part.insert_rows(rows[:2000])
        child = part.snapshot(1)
        child.insert_rows(rows[2000:])
        for p in (part, child):
            crc = 0
            for batch, watermark in zip(p.batches, p.visible_watermarks()):
                crc = zlib.crc32(bytes(batch.buf[:watermark]), crc)
            crcs.append((len(p.batches), sum(p.visible_watermarks()), crc))
    assert crcs == [
        (18, 70000, 591984981),  # int: the first build in key order
        (26, 105000, 3601200439),
        (17, 68000, 402595547),
        (25, 102000, 871697708),
        (17, 68000, 843084529),
        (25, 102000, 1607018991),
    ]
