"""``generate_tpch(tables=...)``: the read set's edges and its errors.

The rule under test is *draw the prefix, store the read set, stop after
it*: one RNG stream in the fixed table order, a table outside the read
set never exists, and a codec map or knob that would apply to nothing
is an error instead of a silently uncompressed run.  That the stored
bytes equal a full database's is ``tests/property/test_tpch_read_set.py``.
"""

import pytest

from repro.errors import StorageError, WorkloadError
from repro.hardware.profiles import flash_scan_node
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.workloads import tpch_gen
from repro.workloads.scan_workload import run_scan
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_schema import ORDERS_SCAN_COLUMNS, tpch_schemas

ORDER = list(tpch_schemas())
SCALE_FACTOR = 0.0005


def generate(**kwargs):
    sim = Simulation()
    _server, array = flash_scan_node(sim)
    storage = StorageManager(sim)
    kwargs.setdefault("scale_factor", SCALE_FACTOR)
    return storage, generate_tpch(storage, array, **kwargs)


@pytest.fixture
def builder_calls(monkeypatch):
    """Names of the row builders called, in order."""
    calls = []
    for name in ORDER:
        builder = getattr(tpch_gen, f"_{name}_rows")

        def recording(counts, rng, _name=name, _builder=builder):
            calls.append(_name)
            return _builder(counts, rng)

        monkeypatch.setattr(tpch_gen, f"_{name}_rows", recording)
    return calls


class TestReadSet:
    def test_none_and_omitted_are_all_seven(self, builder_calls):
        _, omitted = generate()
        _, explicit = generate(tables=None)
        assert list(omitted.tables) == list(explicit.tables) == ORDER
        assert builder_calls == ORDER * 2

    def test_prefix_is_drawn_and_nothing_after(self, builder_calls):
        storage, db = generate(tables=("customer",))
        assert builder_calls == ["region", "nation", "supplier", "customer"]
        assert list(db.tables) == ["customer"]
        assert [t.name for t in storage.tables()] == ["customer"]

    @pytest.mark.parametrize("tables", [
        ("orders", "region"),
        ["region", "orders", "orders", "region"],
        {"orders", "region"},
        (name for name in ("region", "orders")),
    ], ids=["reversed", "duplicates", "set", "generator"])
    def test_any_order_and_duplicates_mean_the_set(self, tables):
        _, db = generate(tables=tables)
        assert list(db.tables) == ["region", "orders"]
        assert db["region"].row_count == 5
        assert db["orders"].row_count == 750

    @pytest.mark.parametrize("tables, named", [
        ((), "region, nation"),
        (("order",), "'order'"),
        (("orders", "lineitems"), "'lineitems'"),
        ((5,), "5"),
        ((["orders"],), "['orders']"),
        ("orders", "'orders'"),
        (7, "7"),
    ], ids=["empty", "unknown", "one-unknown", "non-string", "unhashable",
            "bare-string", "not-iterable"])
    def test_bad_read_sets_are_rejected(self, tables, named, builder_calls):
        with pytest.raises(WorkloadError) as excinfo:
            generate(tables=tables)
        assert named in str(excinfo.value)
        assert builder_calls == []

    def test_unread_table_does_not_exist(self):
        storage, db = generate(tables=("orders", "customer"))
        assert "lineitem" not in [t.name for t in storage.tables()]
        with pytest.raises(WorkloadError) as excinfo:
            db["lineitem"]
        message = str(excinfo.value)
        assert "'lineitem'" in message and "customer, orders" in message

    def test_scan_never_draws_lineitem(self, monkeypatch):
        def no_lineitem(counts, rng):
            raise AssertionError("LINEITEM drawn for an ORDERS scan")

        monkeypatch.setattr(tpch_gen, "_lineitem_rows", no_lineitem)
        assert run_scan(scale_factor=SCALE_FACTOR).total_seconds > 0
        with pytest.raises(AssertionError):
            generate()


class TestCodecMapsThatNameNothing:
    """Each of these was an uncompressed 24,770-byte scan on the parent."""

    def test_baseline_sizes(self):
        _, plain = generate(layout="column", tables=("orders",))
        _, packed = generate(layout="column", tables=("orders",),
                             codecs={"orders": {"o_orderkey": "delta"}})
        assert plain["orders"].scan_bytes(ORDERS_SCAN_COLUMNS) == 24_770
        assert packed["orders"].scan_bytes(ORDERS_SCAN_COLUMNS) == 19_520

    def test_misspelt_table(self):
        with pytest.raises(WorkloadError) as excinfo:
            generate(layout="column",
                     codecs={"order": {"o_orderkey": "delta"}})
        message = str(excinfo.value)
        assert "'order'" in message and "orders, lineitem" in message

    def test_table_outside_the_read_set(self):
        with pytest.raises(WorkloadError) as excinfo:
            generate(layout="column", tables=("orders",),
                     codecs={"lineitem": {"l_orderkey": "delta"}})
        message = str(excinfo.value)
        assert "'lineitem'" in message and message.endswith(": orders")

    def test_misspelt_column(self):
        with pytest.raises(StorageError) as excinfo:
            generate(layout="column", tables=("orders",),
                     codecs={"orders": {"o_orderkeyy": "delta"}})
        message = str(excinfo.value)
        assert "'o_orderkeyy'" in message and "o_orderkey," in message

    def test_codecs_on_row_layout(self):
        with pytest.raises(WorkloadError, match="layout='column'"):
            generate(layout="row",
                     codecs={"orders": {"o_orderkey": "delta"}})

    def test_empty_codec_map_is_no_codecs(self):
        _, db = generate(layout="row", codecs={}, tables=("region",))
        assert db["region"].row_count == 5


class TestCodecKnobNeedsCompressed:
    def test_codec_without_compressed_is_rejected(self):
        with pytest.raises(WorkloadError, match="compressed=True"):
            run_scan(compressed=False, codec="delta",
                     scale_factor=SCALE_FACTOR)

    def test_codec_none_keeps_the_uncompressed_scan(self):
        report = run_scan(compressed=False, codec=None,
                          scale_factor=SCALE_FACTOR)
        assert report.compression_ratio == pytest.approx(1.0, abs=1e-3)

    def test_codec_with_compressed_applies(self):
        default = run_scan(compressed=True, scale_factor=SCALE_FACTOR)
        lz = run_scan(compressed=True, codec="lzlite",
                      scale_factor=SCALE_FACTOR)
        assert lz.compression_ratio != default.compression_ratio
