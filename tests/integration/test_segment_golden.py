"""The column store's stored bytes, pinned.

Figure 2's seconds and Joules follow from the bytes the column store
writes: ``plain_bytes`` sets the replay scale, ``scan_bytes`` the I/O
charged, and their ratio the reported compression ratio.  A faster load
path must therefore store the *same* bytes.  The digests below were
recorded from the code as it stood before the load path went
column-at-a-time (PR 19's parent: one ``DataType.validate`` / ``encode``
/ ``encoded_size`` call per value) by running this file as a script
against that tree; they cover every ORDERS column's segment list —
row count, codec and bytes of each segment, in order — at a scale
factor that seals one full and one short segment.
"""

import hashlib

import pytest

from repro.hardware.profiles import flash_scan_node
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.workloads.scan_workload import COMPRESSED_CODECS
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_schema import ORDERS_SCAN_COLUMNS

SCALE_FACTOR = 0.003  # 4,500 ORDERS rows: segments of 4,096 and 404


def load_orders(compressed, tables=None):
    sim = Simulation()
    _server, array = flash_scan_node(sim)
    codecs = {"orders": dict(COMPRESSED_CODECS)} if compressed else None
    db = generate_tpch(StorageManager(sim), array, scale_factor=SCALE_FACTOR,
                       layout="column", codecs=codecs, seed=0, tables=tables)
    return db["orders"]


def segment_digests(orders):
    digests = {}
    for name in orders.schema.column_names():
        sha = hashlib.sha256()
        for segment in orders.columnar._segment_list(name):
            sha.update(f"{segment.row_count} {segment.codec.name} "
                       f"{len(segment.data)}\n".encode())
            sha.update(segment.data)
        digests[name] = sha.hexdigest()
    return digests


def check_against_golden(orders, compressed):
    plain_bytes, scan_bytes, digests = GOLDEN[compressed]
    assert orders.row_count == 4_500
    assert orders.plain_bytes(ORDERS_SCAN_COLUMNS) == plain_bytes
    assert orders.scan_bytes(ORDERS_SCAN_COLUMNS) == scan_bytes
    assert segment_digests(orders) == digests


@pytest.mark.parametrize("compressed", [True, False],
                         ids=["compressed", "plain"])
def test_orders_segments_are_byte_identical(compressed):
    check_against_golden(load_orders(compressed), compressed)


@pytest.mark.parametrize("compressed", [True, False],
                         ids=["compressed", "plain"])
def test_orders_only_database_stores_the_same_segments(compressed):
    """Figure 2's read set: the five tables ahead of ORDERS are drawn
    and dropped, LINEITEM is not drawn, the bytes do not move."""
    orders = load_orders(compressed, tables=("orders",))
    check_against_golden(orders, compressed)


GOLDEN = {
    True: (148_500, 72_661, {
        "o_orderkey":
            "419b63d21057d09a2ed6168b98586fb15f87ce8034e6c22968e7e289e6e09ba6",
        "o_custkey":
            "f7fdfe82f59fbdf10bdf37cadd80df4344803eaad892c09d31ec47173225acff",
        "o_orderstatus":
            "b854f3c339df76615fdbc9ea97fe58e053a231256bdc4f0e7b20f56b46744a29",
        "o_totalprice":
            "ee1fb3cccda4ef654ddae0402b2004c6855b13054c81e517a79540841bfb8437",
        "o_orderdate":
            "486f4b670d3e1318136307879f4237482c9958660e26435c34c736295bf87181",
        "o_orderpriority":
            "656d98532e20f1e9880a0557b0902932ee8d475b8b170454e1df833bc0e22967",
        "o_clerk":
            "f06ae5f7a6bc7e4531f46ed2ddfb845ee02ef90497333d7bbe25cded5073a5b1",
    }),
    False: (148_500, 148_540, {
        "o_orderkey":
            "922468c35982417e370f45c390f78ba72a58fdfda4f073c375ce23c41e73ced4",
        "o_custkey":
            "a4b143d03b82122462ace2ebf59c48f0f2481fd6f6ba1f067479ec3e50f6eef7",
        "o_orderstatus":
            "364c07c31fb617f6dde1413a7f15316204873741a2ccfcad5c109abbeb944637",
        "o_totalprice":
            "b3af6788aefe7c79003be44b93afc9bf47b13b28a27e081d9f144f9a8fdabee1",
        "o_orderdate":
            "9e0820878517ad7d3bfad0c6ddf1907596b2d378e77a5d7df81a311d96fb81c6",
        "o_orderpriority":
            "656d98532e20f1e9880a0557b0902932ee8d475b8b170454e1df833bc0e22967",
        "o_clerk":
            "f06ae5f7a6bc7e4531f46ed2ddfb845ee02ef90497333d7bbe25cded5073a5b1",
    }),
}

if __name__ == "__main__":  # the GOLDEN literal of the tree on the path
    for flag in (True, False):
        table = load_orders(flag)
        print(f"    {flag}: ({table.plain_bytes(ORDERS_SCAN_COLUMNS):_}, "
              f"{table.scan_bytes(ORDERS_SCAN_COLUMNS):_}, {{")
        for column, digest in segment_digests(table).items():
            print(f'        "{column}":\n            "{digest}",')
        print("    }),")
