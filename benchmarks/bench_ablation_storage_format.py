"""Ablation — row-wise vs columnar indexed storage (paper footnote 2).

The paper stores rows row-wise and notes the format "could seamlessly be
changed to columnar... based on the type of workload"; Fig. 8/Fig. 13 show
where row-wise loses (projections, scans). This ablation runs the same
operations against both partition implementations:

* point lookup (the index's bread and butter) — similar either way,
* full scan / projection — columnar wins (vectorized column access),
* full row materialization — row-wise competitive (the CORES cache-miss
  argument the paper cites against columnar for row-heavy access).
"""

import pytest

from repro.indexed.columnar_partition import ColumnarIndexedPartition
from repro.indexed.partition import IndexedPartition
from repro.workloads import snb

ROWS = 30_000


def _sum_column(store, name: str) -> int:
    return sum(int(batch.column(name).sum()) for batch in store.scan_columns([name]))


@pytest.fixture(scope="module")
def stores():
    rows = snb.generate_snb_edges(ROWS // 1000)
    row_store = IndexedPartition(snb.EDGE_SCHEMA, "edge_source", batch_size=256 * 1024)
    col_store = ColumnarIndexedPartition(snb.EDGE_SCHEMA, "edge_source", chunk_rows=4096)
    row_store.insert_rows(rows)
    col_store.insert_rows(rows)
    keys = snb.sample_probe_keys(rows, 200)
    return {"row": row_store, "columnar": col_store, "keys": keys}


@pytest.mark.parametrize("fmt", ["row", "columnar"])
def test_ablation_point_lookups(benchmark, stores, fmt):
    store = stores[fmt]
    keys = stores["keys"]

    def lookups():
        total = 0
        for k in keys:
            total += len(store.lookup(k))
        return total

    assert benchmark(lookups) > 0


@pytest.mark.parametrize("fmt", ["row", "columnar"])
def test_ablation_full_materialization(benchmark, stores, fmt):
    store = stores[fmt]
    n = benchmark.pedantic(
        lambda: sum(1 for _ in store.iter_rows()), rounds=3, iterations=1, warmup_rounds=1
    )
    assert n == ROWS


@pytest.mark.parametrize("fmt", ["row", "columnar"])
def test_ablation_single_column_projection(benchmark, stores, fmt):
    """The Fig. 8 'projection' case: read one column of every row."""
    store = stores[fmt]

    if fmt == "columnar":
        def project():
            return _sum_column(store, "edge_dest")
    else:
        def project():
            return sum(r[1] for r in store.iter_rows())

    benchmark.pedantic(project, rounds=3, iterations=1, warmup_rounds=1)


def test_ablation_formats_agree(stores):
    row_store, col_store = stores["row"], stores["columnar"]
    for k in stores["keys"][:20]:
        assert [tuple(map(int, r[:3])) + (float(r[3]),) for r in col_store.lookup(k)] == [
            tuple(map(int, r[:3])) + (float(r[3]),) for r in row_store.lookup(k)
        ]


def test_ablation_columnar_projection_beats_row(stores):
    """The paper's footnote-2 tradeoff, asserted: columnar projections are
    faster; lookups are the same order of magnitude."""
    import time

    row_store, col_store = stores["row"], stores["columnar"]

    def timed(fn, reps=3):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_row = timed(lambda: sum(r[1] for r in row_store.iter_rows()))
    t_col = timed(lambda: _sum_column(col_store, "edge_dest"))
    assert t_col < t_row, (t_col, t_row)
