"""Differential tests for the TPC-H generator's prefix rule.

A database built for a read set must hold, table for table, exactly
what a full database built from the same arguments holds: the read set
decides which tables exist, never what is in them.  The reference is
the full generation (``tables=None``), which runs the statements every
pinned digest in the repo was recorded from.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.profiles import flash_scan_node
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.workloads import scan_workload
from repro.workloads.scan_workload import COMPRESSED_CODECS, run_scan
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_schema import tpch_schemas

TABLES = list(tpch_schemas())
ORDERS_CODECS = st.one_of(
    st.none(),
    st.just(dict(COMPRESSED_CODECS)),
    st.dictionaries(st.sampled_from(sorted(COMPRESSED_CODECS)),
                    st.sampled_from(["none", "rle", "lzlite"]),
                    min_size=1))


def build(tables, **kwargs):
    sim = Simulation()
    _server, array = flash_scan_node(sim)
    return generate_tpch(StorageManager(sim), array, tables=tables,
                         **kwargs)


def stored(table):
    """Everything a plan or the cost model can observe of a table."""
    facts = {
        "row_count": table.row_count,
        "rows": list(table.iterate()),
        "scan_bytes": table.scan_bytes(),
        "plain_bytes": table.plain_bytes(),
    }
    if table.columnar is not None:
        facts["segments"] = {
            name: [(seg.row_count, seg.codec.name, seg.data)
                   for seg in table.columnar._segment_list(name)]
            for name in table.schema.column_names()}
    return facts


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       scale_factor=st.sampled_from([0.0001, 0.0004, 0.003]),
       layout=st.sampled_from(["row", "column"]),
       read_set=st.sets(st.sampled_from(TABLES), min_size=1),
       orders_codecs=ORDERS_CODECS)
def test_read_set_tables_equal_the_full_databases(
        seed, scale_factor, layout, read_set, orders_codecs):
    codecs = None
    if orders_codecs and layout == "column" and "orders" in read_set:
        codecs = {"orders": orders_codecs}
    kwargs = dict(scale_factor=scale_factor, layout=layout, codecs=codecs,
                  seed=seed)
    full = build(None, **kwargs)
    partial = build(read_set, **kwargs)
    assert list(partial.tables) == [n for n in TABLES if n in read_set]
    for name, table in partial.tables.items():
        assert stored(table) == stored(full[name]), name


@pytest.mark.parametrize("scale_factor", [0.0005, 0.003])
@pytest.mark.parametrize("seed", [0, 100, 101, 102, 103, 104, 2009])
@pytest.mark.parametrize("compressed", [False, True],
                         ids=["plain", "compressed"])
def test_scan_report_equals_the_full_database_scan(compressed, seed,
                                                   scale_factor):
    def generate_all_seven(*args, **kwargs):
        assert kwargs.pop("tables") == ("orders",)
        return generate_tpch(*args, **kwargs)

    report = run_scan(compressed=compressed, scale_factor=scale_factor,
                      seed=seed)
    with mock.patch.object(scan_workload, "generate_tpch",
                           generate_all_seven):
        reference = run_scan(compressed=compressed,
                             scale_factor=scale_factor, seed=seed)
    assert report.to_dict() == reference.to_dict()
