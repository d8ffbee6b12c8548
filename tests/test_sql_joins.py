"""Join operators: all three baseline implementations agree with a reference
nested-loop join, across join types, sizes, skew, and residuals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Config
from repro.sql.analysis import resolve_expression
from repro.sql.functions import col
from repro.sql.joins import (
    BroadcastHashJoinExec,
    ShuffleHashJoinExec,
    SortMergeJoinExec,
    make_key_func,
)
from repro.sql.logical import Relation
from repro.sql.physical import RowSourceExec
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

LEFT_SCHEMA = Schema.of(("k", LONG), ("lv", STRING))
RIGHT_SCHEMA = Schema.of(("rk", LONG), ("rv", DOUBLE))


def reference_join(left, right, how="inner", residual=None):
    out = []
    for lrow in left:
        matched = False
        for r in right:
            if lrow[0] == r[0]:
                joined = lrow + r
                if residual is None or residual(joined):
                    out.append(joined)
                    matched = True
        if how == "left" and not matched:
            out.append(lrow + (None, None))  # right side is 2 columns wide
    return out


def build_exec(cls, session, left_rows, right_rows, how="inner", residual=None, **kw):
    left_rel = Relation("l", LEFT_SCHEMA, rows=left_rows)
    right_rel = Relation("r", RIGHT_SCHEMA, rows=right_rows)
    left = RowSourceExec(session, left_rel)
    right = RowSourceExec(session, right_rel)
    lk = [resolve_expression(col("k"), LEFT_SCHEMA)]
    rk = [resolve_expression(col("rk"), RIGHT_SCHEMA)]
    schema = LEFT_SCHEMA.concat(RIGHT_SCHEMA)
    res = resolve_expression(residual, schema) if residual is not None else None
    return cls(session, left, right, lk, rk, how, res, schema, **kw)


JOIN_CLASSES = [BroadcastHashJoinExec, ShuffleHashJoinExec, SortMergeJoinExec]


@pytest.fixture()
def session():
    return Session(config=Config(default_parallelism=3, shuffle_partitions=3))


class TestInnerJoinAgreement:
    @pytest.mark.parametrize("cls", JOIN_CLASSES)
    def test_small_inner(self, session, cls):
        left = [(1, "a"), (2, "b"), (1, "c"), (9, "z")]
        right = [(1, 0.5), (2, 1.5), (1, 2.5), (7, 9.9)]
        got = sorted(build_exec(cls, session, left, right).execute().collect())
        want = sorted(reference_join(left, right))
        assert got == want

    @pytest.mark.parametrize("cls", JOIN_CLASSES)
    def test_empty_sides(self, session, cls):
        assert build_exec(cls, session, [], [(1, 1.0)]).execute().collect() == []
        assert build_exec(cls, session, [(1, "a")], []).execute().collect() == []

    @pytest.mark.parametrize("cls", JOIN_CLASSES)
    def test_skewed_keys(self, session, cls):
        left = [(0, f"l{i}") for i in range(50)] + [(1, "only")]
        right = [(0, 1.0), (0, 2.0), (1, 3.0)]
        got = build_exec(cls, session, left, right).execute().collect()
        assert len(got) == 50 * 2 + 1

    @pytest.mark.parametrize("cls", JOIN_CLASSES)
    def test_residual_condition(self, session, cls):
        left = [(1, "a"), (2, "b")]
        right = [(1, 0.5), (1, 5.0), (2, 0.1)]
        residual = col("rv") > 1.0
        got = sorted(build_exec(cls, session, left, right, residual=residual).execute().collect())
        assert got == [(1, "a", 1, 5.0)]

    @given(
        left=st.lists(
            st.tuples(st.integers(min_value=0, max_value=8), st.text(max_size=3)), max_size=30
        ),
        right=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_all_impls_agree_property(self, left, right):
        session = Session(config=Config(default_parallelism=2, shuffle_partitions=2))
        want = sorted(reference_join(left, right))
        for cls in JOIN_CLASSES:
            got = sorted(build_exec(cls, session, left, right).execute().collect())
            assert got == want, cls.__name__


class TestLeftJoin:
    @pytest.mark.parametrize(
        "cls", [BroadcastHashJoinExec, ShuffleHashJoinExec, SortMergeJoinExec]
    )
    def test_left_outer_emits_nulls(self, session, cls):
        left = [(1, "a"), (5, "nomatch")]
        right = [(1, 2.0)]
        got = sorted(
            build_exec(cls, session, left, right, how="left").execute().collect(),
            key=repr,
        )
        assert (1, "a", 1, 2.0) in got
        assert (5, "nomatch", None, None) in got
        assert len(got) == 2


class TestBuildSides:
    def test_broadcast_build_left(self, session):
        left = [(1, "a")]
        right = [(1, 0.5), (2, 1.5)]
        exec_ = build_exec(BroadcastHashJoinExec, session, left, right, build_side="left")
        assert sorted(exec_.execute().collect()) == [(1, "a", 1, 0.5)]

    def test_shuffle_build_left(self, session):
        left = [(1, "a"), (2, "b")]
        right = [(1, 0.5)]
        exec_ = build_exec(ShuffleHashJoinExec, session, left, right, build_side="left")
        assert sorted(exec_.execute().collect()) == [(1, "a", 1, 0.5)]

    def test_invalid_build_side(self, session):
        with pytest.raises(ValueError):
            build_exec(BroadcastHashJoinExec, session, [], [], build_side="middle")


class TestPhaseAccounting:
    def test_broadcast_join_records_build_phase(self, session):
        left = [(i, "x") for i in range(20)]
        right = [(i, float(i)) for i in range(20)]
        build_exec(BroadcastHashJoinExec, session, left, right).execute().collect()
        phases = session.context.registry.counter_by_label("join_phase_seconds_total", "phase")
        assert {"build_hash_table", "broadcast"} <= set(phases)

    def test_repeated_broadcast_joins_rebuild_each_time(self, session):
        """The vanilla half of Fig. 1: every execution pays the build again."""
        left = [(i, "x") for i in range(50)]
        right = [(i, float(i)) for i in range(50)]
        registry = session.context.registry
        exec_once = build_exec(BroadcastHashJoinExec, session, left, right)
        exec_once.execute().collect()
        t1 = registry.counter_value("join_phase_seconds_total", phase="build_hash_table")
        for _ in range(3):
            build_exec(BroadcastHashJoinExec, session, left, right).execute().collect()
        t4 = registry.counter_value("join_phase_seconds_total", phase="build_hash_table")
        assert t4 > t1  # accumulated over reruns


class TestKeyFunc:
    def test_single_key(self):
        f = make_key_func([resolve_expression(col("k"), LEFT_SCHEMA)])
        assert f((5, "a")) == 5

    def test_multi_key_tuple(self):
        f = make_key_func(
            [
                resolve_expression(col("k"), LEFT_SCHEMA),
                resolve_expression(col("lv"), LEFT_SCHEMA),
            ]
        )
        assert f((5, "a")) == (5, "a")
