"""Config behaviour."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.config import KB, MB, PAPER_DEFAULTS, Config
from repro.serve import RouterConfig, ServeConfig, ShardConfig
from repro.sql.session import Session
from repro.sql.types import LONG, Schema


class TestConfig:
    def test_defaults_sane(self):
        cfg = Config()
        assert cfg.default_parallelism > 0
        assert cfg.broadcast_threshold == 10 * MB

    def test_paper_defaults_batch_size(self):
        assert PAPER_DEFAULTS.row_batch_size == 4 * MB  # Fig. 5 sweet spot

    def test_with_overrides_copies(self):
        cfg = Config()
        other = cfg.with_overrides(row_batch_size=KB)
        assert other.row_batch_size == KB
        assert cfg.row_batch_size != KB

    def test_removed_knobs_fail_by_name(self):
        """Options deleted after measuring (DESIGN.md §10, §17) or because
        nothing set them are refused, not silently ignored — as is the
        deleted eviction order."""
        for name in (
            "advisor_ghost_size",
            "advisor_ghost_cooldown",
            "advisor_recurrence_decay",
            "extra",
            "scrub_interval",  # SnapshotScrubber(interval=) sets it
            "chaos_shard_kill_prob",  # FaultInjector.configure(shard_kill_prob=)
            "index_string_keys_as_hash",  # string keys are always hashed
        ):
            with pytest.raises(TypeError, match=name):
                Config(**{name: 1})
        with pytest.raises(ValueError, match="eviction_policy.*reference_distance"):
            Config(eviction_policy="reference_distance").validate()

    def test_seal_threshold_is_validated_and_zero_never_seals(self):
        for bad in (-1, 2.5, None):
            with pytest.raises(ValueError, match="row_batch_size.*ordered_index_compact_threshold"):
                Config(ordered_index_compact_threshold=bad, row_batch_size=0).validate()
        session = Session(config=Config(ordered_index_compact_threshold=0))  # validates
        rows = [(k, k) for k in range(5_000)]
        idf = session.create_dataframe(rows, Schema.of(("k", LONG), ("v", LONG))).create_index("k")
        for part in idf.materialize_partitions():
            assert len(part.ordered.base.keys) == 0 and len(part.ctrie) == part.num_keys()
        assert idf.lookup_tuples(4_321) == [(4_321, 4_321)]

    @pytest.mark.parametrize("cls", [Config, ServeConfig, RouterConfig, ShardConfig])
    def test_every_field_is_read_by_the_program(self, cls):
        """A knob nothing reads is not a knob: each field must be loaded as
        an attribute somewhere in ``src/`` outside the dataclass that
        declares it (docstrings and comments do not count as reads)."""
        loaded: set[str] = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
                    node.body = []  # the declaration (and its own methods) is not a reader
            for n in ast.walk(tree):
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    loaded.add(n.attr)
                    if isinstance(n.value, ast.Attribute):
                        loaded.add(f"{n.value.attr}.{n.attr}")
        names = {f.name for f in dataclasses.fields(cls)}
        assert sorted(names - loaded) == []
