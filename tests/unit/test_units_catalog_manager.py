"""Unit tests for units helpers, schemas, and the storage manager."""

from datetime import date, datetime

import pytest

from repro.errors import SchemaError, StorageError
from repro.hardware.raid import RaidArray
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.units import (
    KWH,
    pretty_time,
)


class TestUnits:
    def test_kwh_constant(self):
        assert KWH == pytest.approx(3.6e6)

    def test_pretty_time(self):
        assert pretty_time(5e-5) == "50 us"
        assert pretty_time(0.25) == "250.0 ms"
        assert pretty_time(3.2) == "3.20 s"
        assert pretty_time(90.0) == "1.5 min"
        assert pretty_time(7200.0) == "2.00 h"
        assert pretty_time(-3.2) == "-3.20 s"


def people():
    return TableSchema("people", [
        Column("id", DataType.INT64, nullable=False),
        Column("name", DataType.VARCHAR),
    ])


class TestSchemaExtras:
    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError, match="no column 'ghost'"):
            people().column("ghost")

    def test_not_null_enforced(self):
        with pytest.raises(SchemaError):
            people().validate_row((None, "x"))

    def test_arity_enforced(self):
        with pytest.raises(SchemaError):
            people().validate_row((1,))

    def test_type_enforced(self):
        with pytest.raises(SchemaError):
            people().validate_row(("not-an-int", "x"))

    def test_int32_range_enforced(self):
        schema = TableSchema("t", [Column("a", DataType.INT32)])
        with pytest.raises(SchemaError):
            schema.validate_row((2**40,))

    @pytest.mark.parametrize("dtype, value, message", [
        (DataType.INT64, 2**63, "out of int64 range"),
        (DataType.INT64, -2**63 - 1, "out of int64 range"),
        (DataType.DATE, datetime(1998, 9, 2, 12, 30), "not valid for date"),
    ])
    def test_values_that_cannot_be_encoded_fail_validation(
            self, dtype, value, message):
        # both used to pass validation and die inside ``struct.pack`` /
        # ``datetime - date`` when the row was encoded or the segment sealed
        schema = TableSchema("t", [Column("a", dtype)])
        with pytest.raises(SchemaError, match=message):
            schema.validate_row((value,))
        with pytest.raises(SchemaError, match=message):
            schema.validate_rows([(value,)])
        with pytest.raises(SchemaError, match=message):
            schema.encode_row((value,))

    def test_bools_are_ints_and_ints_are_floats(self):
        schema = TableSchema("t", [Column("i", DataType.INT32),
                                   Column("q", DataType.INT64),
                                   Column("f", DataType.FLOAT64)])
        rows = [(True, False, 3), (-2**31, 2**63 - 1, True)]
        schema.validate_rows(rows)
        decoded = [schema.decode_row(schema.encode_row(row)) for row in rows]
        assert decoded == [(1, 0, 3.0), (-2**31, 2**63 - 1, 1.0)]
        assert type(decoded[0][2]) is float

    def test_date_round_trip_via_types(self):
        encoded = DataType.DATE.encode(date(1998, 9, 2))
        value, consumed = DataType.DATE.decode(encoded)
        assert value == date(1998, 9, 2)
        assert consumed == 4


class TestStorageManager:
    def make(self):
        sim = Simulation()
        ssd = FlashSsd(sim, SsdSpec(name="s"))
        array = RaidArray(sim, [ssd])
        return StorageManager(sim), array

    def test_duplicate_table_rejected(self):
        storage, array = self.make()
        storage.create_table(people(), layout="row", placement=array)
        with pytest.raises(StorageError):
            storage.create_table(people(), layout="row", placement=array)

    def test_unknown_layout_rejected(self):
        storage, array = self.make()
        with pytest.raises(StorageError):
            storage.create_table(people(), layout="diagonal",
                                 placement=array)

    def test_row_layout_rejects_codecs(self):
        storage, array = self.make()
        with pytest.raises(StorageError):
            storage.create_table(people(), layout="row", placement=array,
                                 codecs={"id": "delta"})

    def test_tables_sorted(self):
        storage, array = self.make()
        storage.create_table(TableSchema("zz", [Column("a",
                                                       DataType.INT32)]),
                             layout="row", placement=array)
        storage.create_table(TableSchema("aa", [Column("a",
                                                       DataType.INT32)]),
                             layout="row", placement=array)
        assert [t.name for t in storage.tables()] == ["aa", "zz"]

    def test_row_store_projection_iterate(self):
        storage, array = self.make()
        table = storage.create_table(people(), layout="row",
                                     placement=array)
        table.load([(1, "a"), (2, "b")])
        assert list(table.iterate(["name"])) == [("a",), ("b",)]
