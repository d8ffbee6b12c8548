"""The Indexed DataFrame: an in-memory, write-enabled indexed cache.

This package is the paper's contribution (Section III). Per partition it
stores (Fig. 3):

1. a **cTrie** mapping each key to a packed 64-bit pointer to the *latest*
   row bearing that key,
2. **row batches** — binary buffers (default 4 MB) holding encoded rows,
3. **backward pointers** — every stored row is prefixed with a packed
   pointer to the previous row with the same key, forming per-key linked
   lists.

On top of that sit the :class:`~repro.indexed.batch_rdd.IndexedBatchRDD`
(hash-partitioned, versioned, fault-tolerant via lineage + replayable
appends) and the :class:`~repro.indexed.indexed_dataframe.IndexedDataFrame`
public API (Listing 1): ``create_index``, ``cache_index``, ``get_rows``,
``append_rows``, plus automatic indexed joins/lookups through Catalyst-style
rules (:mod:`repro.indexed.rules`).

Call :func:`enable_indexing` on a session to install the rules — the
analogue of importing the paper's implicit conversions.

Beyond the paper's prototype, two extensions its text sketches are also
implemented: row batches spill to SSD/NVMe files and fault back in
(:mod:`~repro.indexed.row_batch`), and :mod:`~repro.indexed.mvcc` keeps the
copy-on-write alternative the paper rejects as a measurable reference. Footnote 2's columnar layout
is not a second store: full scans read the row batches as one column batch
a partition (``IndexedPartition.scan_columns``, DESIGN.md §18).
"""

from repro.indexed.indexed_dataframe import IndexedDataFrame
from repro.indexed.partition import IndexedPartition
from repro.indexed.rules import enable_indexing

__all__ = [
    "IndexedDataFrame",
    "IndexedPartition",
    "enable_indexing",
]
