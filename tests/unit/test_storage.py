"""Unit tests for the relational storage substrate (repro.storage)."""

import random

import pytest

from repro.core.cost import CostTracker
from repro.core.errors import SchemaError
from repro.storage import (
    AttributeType,
    Relation,
    Schema,
    uniform_int_relation,
)


class TestSchema:
    def test_positions(self):
        schema = Schema("R", [("a", AttributeType.INT), ("b", AttributeType.STR)])
        assert schema.arity == 2
        assert schema.position_of("b") == 1
        assert schema.position_of("a") == 0
        with pytest.raises(SchemaError):
            schema.position_of("z")
        assert schema.attribute_names() == ("a", "b")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", [("a", AttributeType.INT), ("a", AttributeType.INT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", [])

    def test_unknown_attribute_raises(self):
        schema = Schema("R", [("a", AttributeType.INT)])
        with pytest.raises(SchemaError):
            schema.position_of("b")

    def test_row_validation(self):
        schema = Schema("R", [("a", AttributeType.INT), ("f", AttributeType.BOOL)])
        schema.validate_row((1, True))
        with pytest.raises(SchemaError):
            schema.validate_row((1,))
        with pytest.raises(SchemaError):
            schema.validate_row(("x", True))
        with pytest.raises(SchemaError):
            # bool is not a valid INT (and 1 is not a valid BOOL)
            schema.validate_row((True, 1))


class TestRelation:
    @pytest.fixture
    def relation(self):
        schema = Schema("R", [("a", AttributeType.INT), ("b", AttributeType.INT)])
        relation = Relation(schema)
        assert [relation.insert(row) for row in [(1, 10), (2, 20), (3, 30)]] == [
            0, 1, 2]
        return relation

    def test_insert_and_len(self, relation):
        assert len(relation) == 3

    def test_fetch(self, relation):
        assert relation.fetch(1) == (2, 20)
        with pytest.raises(SchemaError):
            relation.fetch(99)

    def test_delete_tombstones(self, relation):
        relation.delete(1)
        assert len(relation) == 2
        with pytest.raises(SchemaError):
            relation.fetch(1)
        # Remaining row ids survive deletion.
        assert relation.fetch(2) == (3, 30)

    def test_scan_charges_per_slot(self, relation):
        tracker = CostTracker()
        rows = list(relation.scan(tracker))
        assert len(rows) == 3
        assert tracker.work == 3

    def test_select_and_exists(self, relation):
        selected = [row for _, row in relation.scan() if row[0] >= 2]
        assert selected == [(2, 20), (3, 30)]
        assert relation.exists(lambda row: row[1] == 20)
        assert not relation.exists(lambda row: row[1] == 99)

    def test_exists_short_circuits(self, relation):
        tracker = CostTracker()
        assert relation.exists(lambda row: row[0] == 1, tracker)
        assert tracker.work == 1  # stopped at the first row

    def test_column_and_value(self, relation):
        assert relation.column("b") == [10, 20, 30]
        assert relation.value((2, 20), "b") == 20

    def test_columns_are_one_read_of_the_live_rows(self, relation):
        tracker = CostTracker()
        assert relation.columns(tracker) == [[1, 2, 3], [10, 20, 30]]
        relation.delete(1)
        assert relation.columns(tracker) == [[1, 3], [10, 30]]
        assert tracker.work == 3 + 3  # one unit per slot, tombstones included
        assert Relation(relation.schema).columns() == [[], []]

    def test_encode_decode_roundtrip(self, relation):
        relation.delete(0)
        decoded = Relation.decode(relation.encode())
        assert decoded.schema == relation.schema
        assert decoded.rows() == relation.rows()

    def test_uniform_generator_deterministic(self):
        first = uniform_int_relation(50, random.Random(1))
        second = uniform_int_relation(50, random.Random(1))
        assert first.rows() == second.rows()
        assert len(first) == 50
