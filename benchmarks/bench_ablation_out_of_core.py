"""Ablation — in-memory vs out-of-core (spilled) row batches.

Section III-C: the in-memory decision was "to optimize for performance but
without loss of generality; the representation could easily extend to
store data out-of-core... for different tradeoffs". The tradeoff,
measured: cold lookups pay a fault (file read) per touched batch; warm
lookups are identical to the in-memory store.
"""

import pytest

from repro.indexed.out_of_core import spill_partition
from repro.indexed.partition import IndexedPartition
from repro.workloads import snb

ROWS = 20_000


def _partition():
    rows = snb.generate_snb_edges(ROWS // 1000)
    p = IndexedPartition(snb.EDGE_SCHEMA, "edge_source", batch_size=16 * 1024)
    p.insert_rows(rows)
    keys = snb.sample_probe_keys(rows, 100)
    return p, keys


def test_ablation_lookups_in_memory(benchmark):
    p, keys = _partition()
    benchmark(lambda: sum(len(p.lookup(k)) for k in keys))


def test_ablation_lookups_cold_spilled(benchmark, tmp_path):
    """Every round spills everything, so each lookup pass faults from disk."""
    p, keys = _partition()

    def cold_pass():
        spill_partition(p, spill_dir=str(tmp_path), keep_tail=False)
        return sum(len(p.lookup(k)) for k in keys)

    benchmark.pedantic(cold_pass, rounds=3, iterations=1, warmup_rounds=1)
    assert p.spill_faults() > 0


def test_ablation_lookups_warm_after_fault(benchmark, tmp_path):
    """After the first faulting pass, spilled storage reads at memory speed."""
    p, keys = _partition()
    spill_partition(p, spill_dir=str(tmp_path), keep_tail=False)
    sum(len(p.lookup(k)) for k in keys)  # fault everything in once
    benchmark(lambda: sum(len(p.lookup(k)) for k in keys))
