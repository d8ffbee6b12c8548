"""Shared fixtures: small sessions/clusters sized for fast tests."""

from __future__ import annotations

import gc
import glob
import os
import random
import shutil
import tempfile
import threading
import time

import pytest

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

#: Every scheduler mode the engine has; suites that must agree across modes
#: parametrize over this.
MODES = ("sequential", "threads")


@pytest.fixture(autouse=True, scope="session")
def private_temp_dir():
    """The session's own temp dir, where every spill without a ``spill_dir``
    lands: a spill file there is this session's, whatever else spills on the
    host at the same time."""
    shared = tempfile.tempdir
    tempfile.tempdir = tempfile.mkdtemp(prefix="repro-tests-")
    try:
        yield tempfile.tempdir
    finally:
        private, tempfile.tempdir = tempfile.tempdir, shared
        shutil.rmtree(private, ignore_errors=True)


def spill_files(*roots: str) -> set[str]:
    """Every spill file under ``roots``, at any depth: a block's file
    (``block-*.spill``) or any other ``*.spill``."""
    return {
        os.path.realpath(path) for root in roots  # pytest's "*current" links name a file twice
        for path in glob.glob(os.path.join(root, "**", "*.spill"), recursive=True)
    }


@pytest.fixture(autouse=True, scope="module")
def no_leaked_spill_files(private_temp_dir, tmp_path_factory):
    """Fail a module that leaves a spill file it did not find, in the
    session's temp dir or under any ``tmp_path`` a test passed as its
    ``spill_dir``: once its fixtures are gone and a collection has run, every
    spilled batch it made is unreachable, so no batch holds a region of the
    file and its finalizer has unlinked it."""
    roots = (private_temp_dir, str(tmp_path_factory.getbasetemp()))
    before = spill_files(*roots)
    yield
    gc.collect()
    leaked = sorted(spill_files(*roots) - before)
    assert not leaked, f"{len(leaked)} spill file(s) left behind: {leaked[:5]}"


@pytest.fixture(autouse=True, scope="module")
def no_leaked_threads():
    """Fail a module that leaves live non-daemon threads it did not find (a
    thread still finishing gets a few seconds to end)."""
    before = set(threading.enumerate())
    yield
    end = time.monotonic() + 5.0
    while True:
        leaked = [t for t in threading.enumerate() if t not in before and t.is_alive() and not t.daemon]
        if not leaked or time.monotonic() >= end:
            break
        time.sleep(0.01)
    assert not leaked, f"non-daemon thread(s) left running: {[t.name for t in leaked]}"


@pytest.fixture()
def config() -> Config:
    return Config(
        default_parallelism=4,
        shuffle_partitions=4,
        row_batch_size=4096,
    )


@pytest.fixture()
def context(config: Config) -> EngineContext:
    return EngineContext(config=config, topology=private_cluster(num_machines=2))


@pytest.fixture()
def session(context: EngineContext) -> Session:
    return Session(context=context)


EDGE_SCHEMA = Schema.of(("src", LONG), ("dst", LONG), ("weight", DOUBLE))
USER_SCHEMA = Schema.of(("uid", LONG), ("name", STRING), ("score", DOUBLE))


def make_edges(n: int = 500, keys: int = 50, seed: int = 3) -> list[tuple]:
    rng = random.Random(seed)
    return [
        (rng.randrange(keys), rng.randrange(keys), round(rng.random(), 6)) for _ in range(n)
    ]


def make_users(n: int = 100, seed: int = 5) -> list[tuple]:
    rng = random.Random(seed)
    return [(i, f"user{i % 17}", round(rng.random() * 100, 3)) for i in range(n)]


@pytest.fixture()
def edges() -> list[tuple]:
    return make_edges()


@pytest.fixture()
def users() -> list[tuple]:
    return make_users()


def recovery_counts(context: EngineContext) -> dict[str, float]:
    """Recovery events recorded so far, by kind: the registry's count."""
    return context.registry.counter_by_label("recovery_events_total", "kind")


def recovery_spans(context: EngineContext, kind: str) -> list:
    """The ``recovery`` spans of one event kind, in the order recorded (the
    context must trace: ``Config(tracing_enabled=True)``)."""
    return [s for s in context.tracer.finished_spans(kind="recovery") if s.name == kind]
