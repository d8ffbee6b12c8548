"""Direct layer probes: time calls into each layer's public functions.

Run after the traced window, on the partitions and session the workload
already built (plus small stand-alone partitions for the write-side and
decode kernels, which need fresh structures). Every number here is a
per-layer metric; none is gated.
"""

from __future__ import annotations

import random
from typing import Any

import datagen
from measure import at_reference_speed, calibrate, host_slowdown, median, now, time_calls
from workloads import EDGE_SCHEMA, USER_SCHEMA, ProbeTarget

from repro.ctrie import CTrie
from repro.indexed.ordered_index import KeyRange
from repro.indexed.partition import IndexedPartition
from repro.integrity import audit_partition, checkpoint_partition
from repro.serve.snapshot import PinnedSnapshot


def probe_all(
    target: ProbeTarget, seed: int, sizes: datagen.Sizes, units: "dict[str, str]"
) -> dict[str, float]:
    """Every probe, at reference host speed (calibrated before each group)."""
    partitions = target.idf.materialize_partitions()
    out: dict[str, float] = {}
    calibrations: list[float] = []
    for probe in (
        lambda: probe_sql_engine(target),
        lambda: probe_indexed_reads(target, partitions),
        lambda: probe_ctrie(target, partitions),
        lambda: probe_serve_snapshot(target),
        lambda: probe_integrity(target, partitions),
        lambda: probe_standalone(seed, max(500, sizes.edges_rows // 5)),
        lambda: probe_append(target, partitions, sizes.append_rows),
    ):
        calibrations += [calibrate() for _ in range(5)]
        out.update(probe())
    return at_reference_speed(out, units, host_slowdown(calibrations))


# -- sql + engine ----------------------------------------------------------------------


def probe_sql_engine(target: ProbeTarget) -> dict[str, float]:
    session = target.session
    context = session.context
    texts = [
        f"SELECT * FROM {target.view} WHERE {target.key_column} = {k}" for k in target.keys[:100]
    ]
    lookup, plan, build, collect = [], [], [], []
    for warm in (True, False):
        for text in texts:
            t0 = now()
            logical = session.sql_logical(text)
            t1 = now()
            physical = session.plan_physical(logical)
            t2 = now()
            rdd = physical.execute()
            t3 = now()
            rdd.collect()
            t4 = now()
            if not warm:
                lookup.append(t1 - t0)
                plan.append(t2 - t1)
                build.append(t3 - t2)
                collect.append(t4 - t3)
    cold = []
    for i in range(30):  # literals never seen before: parse + analyze + optimize + plan
        text = f"SELECT * FROM {target.view} WHERE {target.key_column} = {10**9 + i}"
        t0 = now()
        session.plan_physical(session.sql_logical(text))
        cold.append(now() - t0)

    def collect_seconds(text: str, repeats: int) -> float:
        physical = session.plan_physical(session.sql_logical(text))
        physical.execute().collect()
        return time_calls(lambda: physical.execute().collect(), repeats)

    shuffle_before = context.registry.counter_total("shuffle_bytes_written_total")
    join_s = collect_seconds(target.join_text, 5)
    shuffle_bytes = context.registry.counter_total("shuffle_bytes_written_total") - shuffle_before
    return {
        "sql.lookup_logical_us": median(lookup) * 1e6,
        "sql.plan_physical_us": median(plan) * 1e6,
        "sql.plan_cold_us": median(cold) * 1e6,
        "sql.build_rdd_us": median(build) * 1e6,
        "engine.collect_point_us": median(collect) * 1e6,
        "engine.collect_scan_ms": collect_seconds(target.scan_text, 3) * 1e3,
        "engine.collect_join_ms": join_s * 1e3,
        "engine.shuffle_bytes_per_join": shuffle_bytes / 6,  # 1 warm + 5 timed runs
        "engine.job_floor_us": time_calls(
            lambda: context.parallelize(list(range(8)), 8).collect(), 50
        )
        * 1e6,
    }


# -- indexed (read side) -----------------------------------------------------------------


def probe_indexed_reads(target: ProbeTarget, partitions: "list[Any]") -> dict[str, float]:
    partitioner = target.idf.partitioner
    rows = sum(p.row_count for p in partitions)
    t0 = now()
    scanned = sum(len(p.scan_rows()) for p in partitions)
    scan_s = now() - t0
    if scanned != rows:
        raise AssertionError(f"scan_rows returned {scanned} of {rows} rows")

    lookups, chain = [], 0
    by_partition: dict[int, list] = {}
    for key in target.keys:
        split = partitioner.partition(key)
        by_partition.setdefault(split, []).append(key)
        t0 = now()
        found = partitions[split].lookup(key)
        lookups.append(now() - t0)
        chain += len(found)
    t0 = now()
    for split, keys in by_partition.items():
        partitions[split].lookup_many(keys)
    many_s = now() - t0

    width = max(1, target.key_domain // 200)
    ranges = [
        KeyRange(lo, hi)
        for lo, hi in datagen.key_ranges(0, "layer-ranges", target.key_domain, width, 20)
    ]
    range_s, seek_s, matched, decoded = [], [], 0, 0
    for krange in ranges:
        t0 = now()
        for p in partitions:
            found, n = p.range_lookup(krange)
            matched += len(found)
            decoded += n
        range_s.append(now() - t0)
        for p in partitions:
            t0 = now()
            p.ordered.range_keys(krange)
            seek_s.append(now() - t0)

    storage = sum(p.storage_bytes() for p in partitions)
    index = sum(p.index_bytes() for p in partitions)
    keys = sum(p.num_keys() for p in partitions)
    return {
        "indexed.scan_rows_per_s": rows / scan_s,
        "indexed.lookup_us": median(lookups) * 1e6,
        "indexed.lookup_rows_per_key": chain / len(target.keys),
        "indexed.lookup_many_us_per_key": many_s / len(target.keys) * 1e6,
        "indexed.range_lookup_us": median(range_s) * 1e6,
        "indexed.ordered_seek_us": median(seek_s) * 1e6,
        "indexed.range_scanned_per_matched": decoded / matched if matched else 0.0,
        "indexed.snapshot_us": median(
            [time_calls(lambda p=p: p.snapshot(p.version + 1), 20) for p in partitions]
        )
        * 1e6,
        "indexed.storage_bytes_per_row": storage / rows,
        "indexed.index_bytes_per_key": index / keys,
        "indexed.memory_overhead": index / storage,
    }


# -- ctrie ---------------------------------------------------------------------------------


def probe_ctrie(target: ProbeTarget, partitions: "list[Any]") -> dict[str, float]:
    partitioner = target.idf.partitioner
    pairs = [(partitions[partitioner.partition(k)].ctrie, k) for k in target.keys]

    def lookup_ns(tries_and_keys: list, rounds: int = 20) -> float:
        t0 = now()
        for _ in range(rounds):
            for trie, key in tries_and_keys:
                trie.lookup(key)
        return (now() - t0) / (rounds * len(tries_and_keys)) * 1e9

    before = lookup_ns(pairs)
    snapshot_s = []
    snapshots = {}
    for trie in {id(t): t for t, _ in pairs}.values():
        t0 = now()
        snapshots[id(trie)] = trie.snapshot()
        snapshot_s.append(now() - t0)
    after = lookup_ns([(snapshots[id(t)], k) for t, k in pairs])

    fresh = CTrie()
    keys = list(range(20_000))
    random.Random(0).shuffle(keys)
    t0 = now()
    for k in keys:
        fresh.insert(k, k)
    insert_s = now() - t0
    return {
        "ctrie.lookup_ns": before,
        "ctrie.insert_ns": insert_s / len(keys) * 1e9,
        "ctrie.snapshot_us": median(snapshot_s) * 1e6,
        "ctrie.lookup_after_snapshot_ns": after,
    }


# -- serve (snapshot only; the rest of the serve layer is measured by serve_mixed) ---------


def probe_serve_snapshot(target: ProbeTarget) -> dict[str, float]:
    pins = []
    pin_s = time_calls(lambda: pins.append(PinnedSnapshot.pin(target.idf)), 3)
    pin = pins[-1]
    lookups = []
    for key in target.keys:
        t0 = now()
        pin.lookup(key)
        lookups.append(now() - t0)
    return {"serve.pin_ms": pin_s * 1e3, "serve.snapshot_lookup_us": median(lookups) * 1e6}


# -- integrity -----------------------------------------------------------------------------


def probe_integrity(target: ProbeTarget, partitions: "list[Any]") -> dict[str, float]:
    visible = sum(sum(p.visible_watermarks()) for p in partitions)
    for p in partitions:  # anchor first, so the timed pass verifies every batch
        audit_partition(p, where="bench")
    t0 = now()
    for p in partitions:
        audit_partition(p, where="bench")
    audit_s = now() - t0
    return {
        "integrity.audit_mb_per_s": visible / audit_s / 1e6,
        "integrity.corruption_detected": target.session.context.registry.counter_total(
            "corruption_detected_total"
        ),
    }


# -- write side and decode kernels, on fresh stand-alone partitions -----------------------------


def probe_standalone(seed: int, rows: int) -> dict[str, float]:
    edges = datagen.make_edges(seed, rows, max(1, rows // 10)).rows
    users = datagen.make_users(seed, rows)

    fixed = IndexedPartition(EDGE_SCHEMA, "edge_source")
    t0 = now()
    fixed.insert_rows(edges)
    insert_s = now() - t0
    strings = IndexedPartition(USER_SCHEMA, "uid")
    strings.insert_rows(users)

    encode = fixed.codec.encode
    t0 = now()
    for row in edges:
        encode(row, 0)
    encode_s = now() - t0

    def decode_rows_per_s(partition: IndexedPartition) -> float:
        decode_all = partition.codec.decode_all
        pairs = [(b.buf, w) for b, w in zip(partition.batches, partition.visible_watermarks()) if w]

        def one_pass() -> None:
            for buf, watermark in pairs:
                decode_all(buf, watermark)

        return partition.row_count / time_calls(one_pass, 5)

    visible = sum(fixed.visible_watermarks())
    t0 = now()
    checkpoint_partition(fixed)
    checkpoint_s = now() - t0
    return {
        "indexed.insert_rows_per_s": rows / insert_s,
        "indexed.encode_rows_per_s": rows / encode_s,
        "indexed.decode_rows_per_s_fixed": decode_rows_per_s(fixed),
        "indexed.decode_rows_per_s_string": decode_rows_per_s(strings),
        "integrity.checkpoint_mb_per_s": visible / checkpoint_s / 1e6,
    }


def probe_append(target: ProbeTarget, partitions: "list[Any]", batch_rows: int) -> dict[str, float]:
    """Append one batch of new-key rows to the built table and materialize
    the child version (discarded afterwards: MVCC leaves the parent as is)."""
    key_ordinal = partitions[0].key_ordinal
    template = next(iter(partitions[0].scan_rows()))
    samples = []
    for rep in range(3):
        first = 2 * 10**9 + rep * batch_rows
        rows = [
            template[:key_ordinal] + (first + i,) + template[key_ordinal + 1 :]
            for i in range(batch_rows)
        ]
        t0 = now()
        target.idf.append_rows(rows).materialize_partitions()
        samples.append(now() - t0)
    return {"indexed.append_ms_per_batch": median(samples) * 1e3}
