"""Shared benchmarking utilities and the paired vanilla/indexed setup.

Every comparison in the paper is "Indexed DataFrame vs the default
in-memory (columnar) cache" on the *same* data and query. :class:`Pair`
holds both sides on one engine so experiments time them under identical
conditions.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterator, Mapping

from repro.bench.report import format_cell, format_markdown_table, format_table
from repro.config import Config
from repro.sql.dataframe import DataFrame
from repro.sql.session import Session
from repro.sql.types import Schema


@dataclass(frozen=True)
class Timing:
    """One configuration's wall-clock seconds, one sample per round of
    :func:`time_rounds`. A table cell renders as ``median [q1–q3]``."""

    samples: tuple[float, ...]

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def quartiles(self) -> tuple[float, float]:
        q1, _, q3 = statistics.quantiles(self.samples, n=4, method="inclusive")
        return q1, q3

    def __str__(self) -> str:
        q1, q3 = self.quartiles
        return f"{format_cell(self.median)} [{format_cell(q1)}–{format_cell(q3)}]"


@contextmanager
def gc_paused() -> Iterator[None]:
    """Collect, then keep the collector off: a full collection (100-180 ms on
    a figure's heap) would land in whichever timed call allocates next."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def time_rounds(
    configs: Mapping[Hashable, Callable[[], Any]],
    rounds: int,
    warmup: int = 1,
    settle: Callable[[], Any] | None = None,
) -> dict[Hashable, Timing]:
    """Time every configuration once per round, for ``warmup`` untimed
    rounds and then ``rounds`` timed ones.

    Back-to-back repeats of one configuration let a slow stretch of the host
    land on that configuration's whole block of samples; alternating spreads
    it over all of them. The order rotates each round, so no configuration
    always runs first after the previous one's garbage, and the collector is
    off throughout (:func:`gc_paused`). ``settle`` runs untimed after every
    call: cleanup a call leaves deferred (the engine drops a finished
    query's shuffle outputs at the next job) would otherwise be billed to
    whichever configuration runs next."""
    names = list(configs)
    samples: dict[Hashable, list[float]] = {name: [] for name in names}
    with gc_paused():
        for r in range(warmup + rounds):
            for i in range(len(names)):
                name = names[(r + i) % len(names)]
                t0 = time.perf_counter()
                configs[name]()
                if r >= warmup:
                    samples[name].append(time.perf_counter() - t0)
                if settle is not None:
                    settle()
    return {name: Timing(tuple(s)) for name, s in samples.items()}


@dataclass
class FigureResult:
    """One reproduced figure/table: id, axis headers, data rows, and notes."""

    figure: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    notes: str = ""
    shape_checks: list[tuple[str, bool]] = field(default_factory=list)

    def check(self, description: str, ok: bool) -> None:
        """Record a qualitative shape assertion (who wins / where the
        crossover is), the reproduction criterion of the brief."""
        self.shape_checks.append((description, bool(ok)))

    @property
    def shape_ok(self) -> bool:
        return all(ok for _, ok in self.shape_checks)

    def to_text(self) -> str:
        out = [format_table(self.headers, self.rows, title=f"{self.figure}: {self.title}")]
        if self.notes:
            out.append(self.notes)
        for desc, ok in self.shape_checks:
            out.append(f"  [{'ok' if ok else 'MISMATCH'}] {desc}")
        return "\n".join(out)

    def to_markdown(self) -> str:
        out = [f"### {self.figure} — {self.title}", ""]
        out.append(format_markdown_table(self.headers, self.rows))
        out.append("")
        if self.notes:
            out.append(self.notes)
            out.append("")
        for desc, ok in self.shape_checks:
            out.append(f"- {'✅' if ok else '❌'} {desc}")
        return "\n".join(out)


@dataclass
class Pair:
    """The same table held both ways: columnar-cached (vanilla Spark
    baseline) and as an Indexed DataFrame."""

    session: Session
    vanilla: DataFrame
    indexed: Any  # IndexedDataFrame
    index_build_seconds: float


def build_pair(
    rows: list[tuple],
    schema: Schema,
    key_column: str,
    config: Config | None = None,
    session: Session | None = None,
    num_partitions: int | None = None,
    name: str = "t",
) -> Pair:
    """Materialize ``rows`` as both a columnar cache and an index."""
    session = session or Session(config=config)
    df = session.create_dataframe(rows, schema, name, num_partitions=num_partitions)
    vanilla = df.cache(num_partitions=num_partitions)
    t0 = time.perf_counter()
    idf = df.create_index(key_column, num_partitions=num_partitions)
    idf.cache_index()
    build = time.perf_counter() - t0
    return Pair(session, vanilla, idf, build)

