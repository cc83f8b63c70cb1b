"""Unit tests for statistics and selectivity estimation."""

import pytest

from repro.hardware.raid import RaidArray
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.relational.expr import Between, InList, Literal, col
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.optimizer.stats import (
    analyze_table,
    estimate_selectivity,
)
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.units import MB


@pytest.fixture
def table():
    sim = Simulation()
    ssd = FlashSsd(sim, SsdSpec(name="s", capacity_bytes=1000 * MB))
    array = RaidArray(sim, [ssd])
    storage = StorageManager(sim)
    t = storage.create_table(
        TableSchema("t", [
            Column("k", DataType.INT64, nullable=False),
            Column("grp", DataType.INT64, nullable=False),
            Column("name", DataType.VARCHAR),
        ]), layout="row", placement=array)
    rows = []
    for i in range(1000):
        rows.append((i, i % 10, f"n{i % 50}" if i % 100 else None))
    t.load(rows)
    return t


def test_row_count_and_bytes(table):
    stats = analyze_table(table)
    assert stats.row_count == 1000
    assert stats.scan_bytes > 0
    assert stats.plain_bytes > 0


def test_ndv_exact_on_small_tables(table):
    stats = analyze_table(table)
    assert stats.columns["k"].ndv == 1000
    assert stats.columns["grp"].ndv == 10


def test_min_max(table):
    stats = analyze_table(table)
    assert stats.columns["k"].min_value == 0
    assert stats.columns["k"].max_value == 999


def test_null_fraction(table):
    stats = analyze_table(table)
    assert stats.columns["name"].null_fraction == pytest.approx(0.01)


def test_histogram_is_equi_depth(table):
    stats = analyze_table(table)
    hist = stats.columns["k"].histogram
    assert len(hist) == 16
    assert hist[-1] == 999
    # bucket bounds roughly every 62 values
    assert hist[0] == pytest.approx(61, abs=2)


def test_equality_selectivity(table):
    stats = analyze_table(table)
    sel = estimate_selectivity(col("grp") == 3, stats)
    assert sel == pytest.approx(0.1)


def test_range_selectivity(table):
    stats = analyze_table(table)
    sel = estimate_selectivity(col("k") < 250, stats)
    assert sel == pytest.approx(0.25, abs=0.08)
    sel = estimate_selectivity(col("k") >= 900, stats)
    assert sel == pytest.approx(0.1, abs=0.08)


def test_reversed_comparison(table):
    stats = analyze_table(table)
    sel = estimate_selectivity(Literal(250) > col("k"), stats)
    assert sel == pytest.approx(0.25, abs=0.08)


def test_between_selectivity(table):
    stats = analyze_table(table)
    sel = estimate_selectivity(Between(col("k"), 100, 299), stats)
    assert sel == pytest.approx(0.2, abs=0.1)


def test_in_list_selectivity(table):
    stats = analyze_table(table)
    sel = estimate_selectivity(InList(col("grp"), [1, 2, 3]), stats)
    assert sel == pytest.approx(0.3)


def test_and_multiplies(table):
    stats = analyze_table(table)
    sel = estimate_selectivity((col("grp") == 3) & (col("k") < 500), stats)
    assert sel == pytest.approx(0.05, abs=0.02)


def test_or_inclusion_exclusion(table):
    stats = analyze_table(table)
    sel = estimate_selectivity((col("grp") == 3) | (col("grp") == 4), stats)
    assert sel == pytest.approx(0.19, abs=0.02)


def test_not(table):
    stats = analyze_table(table)
    sel = estimate_selectivity(~(col("grp") == 3), stats)
    assert sel == pytest.approx(0.9, abs=0.02)


def test_none_predicate_is_one(table):
    stats = analyze_table(table)
    assert estimate_selectivity(None, stats) == 1.0


def test_unknown_column_uses_default(table):
    stats = analyze_table(table)
    sel = estimate_selectivity(col("ghost") < 5, stats)
    assert 0.0 < sel < 1.0


def test_selectivity_clamped(table):
    stats = analyze_table(table)
    pred = (col("k") < 2000) & (col("k") < 2000)
    assert estimate_selectivity(pred, stats) <= 1.0
