"""Shared fixtures: small sessions/clusters sized for fast tests."""

from __future__ import annotations

import random

import pytest

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

#: Every scheduler mode the engine has; suites that must agree across modes
#: parametrize over this.
MODES = ("sequential", "threads")


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
