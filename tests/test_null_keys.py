"""A NULL index key, in a first build and in an append (DESIGN.md §15).

A sorted array has no place for NULL: the seal keeps a NULL key in the cTrie
delta, where an append puts it, and every range read skips it. Over LONG,
DOUBLE and STRING keys, in both write layouts, each read of the indexed view
equals the plain view's — on the job path and on the direct path (DESIGN.md
§13). A range is compared with the plain view over the non-NULL rows: the
plain view's own ``NULL >= x`` raises ``TypeError`` (ROADMAP).
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.indexed.row_codec import RowCodec
from repro.sql.session import Session
from repro.sql.types import DOUBLE, LONG, STRING, Schema

KEYS = {
    "long": (LONG, lambda i: i, lambda i: str(i)),
    "double": (DOUBLE, lambda i: i + 0.5, lambda i: f"{i + 0.5}"),
    "string": (STRING, lambda i: f"k{i:02d}", lambda i: f"'k{i:02d}'"),
}
NULL_ROW = (None, 400)


def by_repr(rows):
    return sorted(rows, key=repr)


def answered(session) -> float:
    return session.context.registry.counter_value("sql_direct_reads_total", outcome="answered")


@pytest.fixture(params=["array", "row"])
def layout(request, monkeypatch):
    if request.param == "row":  # every batch encoded row by row
        monkeypatch.setattr(RowCodec, "encode_records", lambda self, rows: None)
    return request.param


@pytest.mark.parametrize("when", ["first_build", "append"])
@pytest.mark.parametrize("key", sorted(KEYS))
def test_null_key_reads_equal_the_plain_view(key, when, layout):
    dtype, value, literal = KEYS[key]
    session = Session(config=Config(default_parallelism=4, shuffle_partitions=4))
    schema = Schema.of(("k", dtype), ("v", LONG))
    rows = [(value(i % 50), i) for i in range(400)]
    if when == "first_build":
        idf = session.create_dataframe(rows + [NULL_ROW], schema).create_index("k").cache_index()
    else:
        idf = session.create_dataframe(rows, schema).create_index("k").cache_index()
        idf = idf.append_rows([NULL_ROW])
    idf.create_or_replace_temp_view("t")
    session.create_dataframe(rows + [NULL_ROW], schema).create_or_replace_temp_view("plain")
    session.create_dataframe(rows, schema).create_or_replace_temp_view("plain_non_null")

    def both_paths(text: str) -> list:
        job = session.plan_physical(session.sql_logical(text)).execute().collect()
        before = answered(session)
        direct = session.sql(text).collect_tuples()
        assert direct == job, text
        return direct, answered(session) > before

    for where, key_bound in [
        ("", False),
        (" WHERE k IS NULL", False),
        (" WHERE k = NULL", True),
        (f" WHERE k = {literal(7)}", True),
        (f" WHERE k IN ({literal(3)}, NULL)", True),
    ]:
        rows_t, direct = both_paths("SELECT * FROM t" + where)
        assert direct == key_bound, where
        assert by_repr(rows_t) == by_repr(session.sql("SELECT * FROM plain" + where).collect_tuples())
    assert by_repr(both_paths("SELECT * FROM t WHERE k = NULL")[0]) == [NULL_ROW]

    for lo, hi in [(3, 9), (0, 49), (48, 60)]:
        where = f" WHERE k BETWEEN {literal(lo)} AND {literal(hi)}"
        rows_t, direct = both_paths("SELECT * FROM t" + where)
        assert direct
        expected = session.sql("SELECT * FROM plain_non_null" + where).collect_tuples()
        assert by_repr(rows_t) == by_repr(expected), where
    open_ended, _ = both_paths(f"SELECT * FROM t WHERE k >= {literal(0)}")
    assert by_repr(open_ended) == by_repr(rows)


def test_sealing_again_keeps_the_null_key_in_the_delta():
    """A later seal folds the delta into a new base: the NULL key's head
    moves to the new delta, its value to ``fresh``, and it is counted once."""
    from repro.indexed.partition import IndexedPartition

    schema = Schema.of(("k", LONG), ("v", LONG))
    part = IndexedPartition(schema, "k", ordered_compact_threshold=4)
    part.insert_rows([(1, 0), (None, 1), (2, 2)])
    part.insert_rows([(k, k) for k in range(10, 20)] + [(None, 3)])  # seals again
    assert part.num_keys() == 13
    assert part.ordered.delta_writes == 1
    assert sorted(r[1] for r in part.lookup(None)) == [1, 3]
    assert [r[0] for r in part.iter_rows()].count(None) == 2
    assert part.ordered.min_key() == 1 and part.ordered.max_key() == 19
