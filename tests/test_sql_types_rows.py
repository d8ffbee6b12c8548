"""Schemas, types, Row wrapper, ColumnBatch."""

import numpy as np
import pytest

from repro.sql.columnar import ColumnBatch
from repro.sql.row import Row
from repro.sql.types import (
    BOOLEAN,
    DOUBLE,
    INTEGER,
    LONG,
    STRING,
    IntegerType,
    Schema,
    StringType,
)


class TestTypes:
    def test_singleton_equality(self):
        assert IntegerType() == INTEGER
        assert LONG != DOUBLE
        assert hash(StringType()) == hash(STRING)

    def test_primitive_flags(self):
        assert INTEGER.primitive and LONG.primitive and DOUBLE.primitive and BOOLEAN.primitive
        assert not STRING.primitive  # strings must be hashed before indexing

    def test_validate(self):
        assert LONG.validate(5) and not LONG.validate("5") and not LONG.validate(True)
        assert DOUBLE.validate(1.5) and DOUBLE.validate(2)
        assert STRING.validate("x") and not STRING.validate(5)
        assert BOOLEAN.validate(True) and not BOOLEAN.validate(1)


class TestSchema:
    def test_index_of(self):
        s = Schema.of(("a", LONG), ("b", STRING))
        assert s.index_of("a") == 0
        assert s.index_of("b") == 1
        with pytest.raises(KeyError):
            s.index_of("c")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema.of(("a", LONG), ("a", STRING))

    def test_select_preserves_order(self):
        s = Schema.of(("a", LONG), ("b", STRING), ("c", DOUBLE))
        sel = s.select(["c", "a"])
        assert sel.names() == ["c", "a"]

    def test_concat_renames_duplicates(self):
        left = Schema.of(("id", LONG), ("v", DOUBLE))
        right = Schema.of(("id", LONG), ("w", DOUBLE))
        joined = left.concat(right)
        assert joined.names() == ["id", "v", "id_r", "w"]

    def test_concat_double_collision(self):
        left = Schema.of(("id", LONG), ("id_r", LONG))
        right = Schema.of(("id", LONG),)
        assert left.concat(right).names() == ["id", "id_r", "id_r_r"]

    def test_contains_iter_len(self):
        s = Schema.of(("a", LONG), ("b", STRING))
        assert "a" in s and "z" not in s
        assert len(s) == 2
        assert [f.name for f in s] == ["a", "b"]


class TestRow:
    SCHEMA = Schema.of(("id", LONG), ("name", STRING))

    def test_access_by_name_index_attr(self):
        r = Row((7, "x"), self.SCHEMA)
        assert r["id"] == 7 and r[1] == "x" and r.name == "x"

    def test_missing_attr(self):
        r = Row((7, "x"), self.SCHEMA)
        with pytest.raises(AttributeError):
            _ = r.nope

    def test_equality_with_tuple_and_row(self):
        a = Row((1, "a"), self.SCHEMA)
        assert a == (1, "a")
        assert a == Row((1, "a"), self.SCHEMA)
        assert a != Row((2, "a"), self.SCHEMA)

    def test_as_dict(self):
        assert Row((1, "a"), self.SCHEMA).as_dict() == {"id": 1, "name": "a"}


class TestColumnBatch:
    SCHEMA = Schema.of(("id", LONG), ("name", STRING), ("v", DOUBLE))
    ROWS = [(1, "a", 0.5), (2, "b", 1.5), (3, "c", 2.5)]

    def test_roundtrip(self):
        batch = ColumnBatch.from_rows(self.ROWS, self.SCHEMA)
        assert batch.to_rows() == self.ROWS
        assert len(batch) == 3

    def test_typed_columns(self):
        batch = ColumnBatch.from_rows(self.ROWS, self.SCHEMA)
        assert batch.column("id").dtype == np.int64
        assert batch.column("v").dtype == np.float64
        assert batch.column("name").dtype == object

    def test_project_is_view(self):
        batch = ColumnBatch.from_rows(self.ROWS, self.SCHEMA)
        proj = batch.project(["v", "id"])
        assert proj.schema.names() == ["v", "id"]
        assert proj.column("id") is batch.column("id")  # zero copy
        assert proj.to_rows() == [(0.5, 1), (1.5, 2), (2.5, 3)]

    def test_filter(self):
        batch = ColumnBatch.from_rows(self.ROWS, self.SCHEMA)
        mask = batch.column("id") > 1
        out = batch.filter(mask)
        assert out.to_rows() == self.ROWS[1:]
        assert out.num_rows == 2

    def test_empty(self):
        batch = ColumnBatch.from_rows([], self.SCHEMA)
        assert batch.to_rows() == []
        assert batch.nbytes >= 0
