"""MVCC strategies for divergent appends (paper Section III-E).

The paper weighs two designs for letting divergent child versions coexist:

* **copy-on-write** — "a pragmatic solution... however, this incurs large
  performance penalties (i.e., full data copies) and storage overheads";
* **persistent-data-structure snapshots** — the adopted design: the index
  snapshot shares its sealed base (and copies its small delta, or shares
  the cTrie's state at threshold 0), and row batches are shared with atomic
  space reservation, so children store only deltas.

:class:`SnapshotVersioning` is the adopted design (a thin wrapper over
``IndexedPartition.snapshot``); :class:`CopyOnWriteVersioning` is the
rejected alternative, implemented as the *reference semantics*: the two
must behave identically, and ``tests/test_indexed_mvcc.py`` asserts the cost
gap the paper cites as the reason for choosing snapshots (time, and
:func:`incremental_bytes`).
"""

from __future__ import annotations

from repro.indexed.ordered_index import KeyRange
from repro.indexed.partition import IndexedPartition
from repro.indexed.row_batch import RowBatch


class SnapshotVersioning:
    """The paper's design: O(1) structure-sharing snapshot."""

    name = "snapshot"

    def new_version(self, parent: IndexedPartition, version: int) -> IndexedPartition:
        return parent.snapshot(version)


class CopyOnWriteVersioning:
    """The rejected alternative: a full deep copy of index and data.

    Semantically identical to snapshots (children are isolated), but every
    version pays O(data) time and memory — the "full data copies" penalty
    of Section III-E.
    """

    name = "copy-on-write"

    def new_version(self, parent: IndexedPartition, version: int) -> IndexedPartition:
        child = IndexedPartition(
            parent.schema,
            parent.schema.fields[parent.key_ordinal].name,
            batch_size=parent.batch_size,
            max_row_size=parent.codec.max_row_size,
            version=version,
            ordered_compact_threshold=parent.ordered.seal_threshold,
        )
        # Deep-copy the batches byte for byte...
        child.batches = []
        for batch in parent.batches:
            clone = RowBatch(batch.capacity)
            used = batch.used
            clone.buf[:used] = batch.ensure_resident()[:used]
            assert clone.reserve(used) == 0
            child.batches.append(clone)
        # ...and rebuild the index against the copied storage, as one batch
        # (pointers keep their (batch, offset) meaning because the layout is
        # identical): new arrays, or a trie of its own under the threshold.
        child.ordered.publish(
            dict(parent.ordered.items()), parent.ordered.range_keys(KeyRange())
        )
        child.row_count = parent.row_count
        child.data_bytes = parent.data_bytes
        # The byte-identical copy preserves the parent's sequential-scan
        # validity (built batches bypassed _append_bytes bookkeeping).
        child.contiguous = parent.contiguous
        child._watermarks = list(parent._watermarks)
        return child


def incremental_bytes(parent: IndexedPartition, child: IndexedPartition) -> int:
    """Storage a child adds beyond what it shares with its parent.

    Snapshot children share RowBatch objects, so only newly allocated
    batches count; copy-on-write children share nothing.
    """
    parent_batches = {id(b) for b in parent.batches}
    return sum(b.capacity for b in child.batches if id(b) not in parent_batches)
