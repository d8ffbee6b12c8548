"""Continuous indexed stream-window joins over the serving tier.

A :class:`StreamWindowJoin` keeps a standing set of *probe* rows and joins
them against the served (build) view's **ordered secondary index**
(DESIGN.md §15): probe key ``k`` matches every build row whose key falls in
``[k - window.before, k + window.after]``. Each :meth:`probe` pass:

1. pins the build side **once** — ``server.pinned(view)`` returns one
   immutable MVCC snapshot on either front end (a
   :class:`~repro.serve.server.QueryServer` or a
   :class:`~repro.serve.router.ShardRouter`), so a pass can never stitch
   two versions;
2. runs one ordered-index range lookup per probe key
   (:meth:`~repro.serve.snapshot.PinnedSnapshot.range_lookup` — a seek,
   not a scan);
3. emits only the *new* (probe, build) pairs — pairs never emitted by an
   earlier pass.

Because ingest is append-only (``append_rows`` + ``publish``), the match
set of a probe at version ``v`` is a superset of its match set at any
earlier version. Emitting deltas therefore makes the cumulative output
**monotone and duplicate-free across MVCC republishes**: readers observing
:meth:`results` concurrently with an :class:`~repro.serve.ingest.IngestLoop`
see a sequence that only grows, never repeats a pair, and whose every
emission is tagged with the single snapshot version it was computed from.

Wire a join into the ingest side with ``IngestLoop(..., stream_joins=[j])``
— the loop runs :meth:`probe` after every successful publish — or drive
:meth:`probe` from your own threads; passes serialize on an internal lock,
so both at once are safe.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.indexed.ordered_index import KeyRange

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.router import ShardRouter
    from repro.serve.server import QueryServer


class WindowSpec:
    """A symmetric-or-not numeric window around each probe key.

    Probe key ``k`` joins build keys in ``[k - before, k + after]``, both
    bounds inclusive (the streaming-SQL ``RANGE BETWEEN x PRECEDING AND y
    FOLLOWING`` shape).
    """

    __slots__ = ("after", "before")

    def __init__(self, before: Any, after: Any) -> None:
        self.before = before
        self.after = after

    def range_for(self, key: Any) -> KeyRange:
        return KeyRange(lo=key - self.before, hi=key + self.after)

    def __repr__(self) -> str:  # pragma: no cover
        return f"WindowSpec(before={self.before}, after={self.after})"


class Emission:
    """One probe pass's output: pairs computed against a single version."""

    __slots__ = ("pairs", "seq", "version")

    def __init__(self, seq: int, version: int, pairs: list[tuple]) -> None:
        self.seq = seq
        self.version = version
        self.pairs = pairs

    def __repr__(self) -> str:  # pragma: no cover
        return f"Emission(seq={self.seq}, v={self.version}, pairs={len(self.pairs)})"


class StreamWindowJoin:
    """A continuous window join between a probe stream and a served view."""

    def __init__(
        self,
        server: "QueryServer | ShardRouter",
        view: str,
        window: WindowSpec,
        probe_key_ordinal: int = 0,
    ) -> None:
        self.server = server
        self.view = view
        self.window = window
        self.probe_key_ordinal = probe_key_ordinal
        self._lock = threading.Lock()
        self._probes: list[tuple] = []
        self._seen: set[tuple[int, tuple]] = set()
        self._emissions: list[Emission] = []
        self._pairs: list[tuple] = []
        self._seq = 0

    # -- probe side --------------------------------------------------------------------

    def add_probes(self, rows: Iterable[Sequence[Any]]) -> None:
        """Add probe rows to the standing set (they join every later pass)."""
        with self._lock:
            self._probes.extend(tuple(r) for r in rows)

    def probe(self) -> Emission:
        """Join the standing probes against the *current* pinned version.

        Returns the emission for this pass (possibly empty). Passes
        serialize on the join's lock: each emission is computed against
        exactly one snapshot and appended atomically, so concurrent
        readers of :meth:`results` always see a prefix-consistent,
        duplicate-free, monotone sequence.
        """
        with self._lock:
            snapshot = self.server.pinned(self.view)
            key_ord = self.probe_key_ordinal
            fresh: list[tuple] = []
            for probe_id, probe_row in enumerate(self._probes):
                krange = self.window.range_for(probe_row[key_ord])
                matches, _scanned = snapshot.range_lookup(krange)
                for build_row in matches:
                    tag = (probe_id, tuple(build_row))
                    if tag in self._seen:
                        continue
                    self._seen.add(tag)
                    fresh.append((probe_row, tuple(build_row)))
            emission = Emission(self._seq, snapshot.version, fresh)
            self._seq += 1
            self._emissions.append(emission)
            self._pairs.extend(fresh)
        registry = self.server.registry
        registry.inc("stream_join_probes_total", view=self.view)
        if fresh:
            registry.inc("stream_join_pairs_total", len(fresh), view=self.view)
        return emission

    # -- read side ---------------------------------------------------------------------

    def results(self) -> list[tuple]:
        """All (probe_row, build_row) pairs emitted so far (a copy)."""
        with self._lock:
            return list(self._pairs)

    def emissions(self) -> list[Emission]:
        """All probe passes so far, in emission order (a copy)."""
        with self._lock:
            return list(self._emissions)

    def __repr__(self) -> str:  # pragma: no cover
        with self._lock:
            return (
                f"StreamWindowJoin({self.view}, {self.window!r}, "
                f"probes={len(self._probes)}, pairs={len(self._pairs)})"
            )
