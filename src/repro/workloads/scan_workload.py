"""The Figure 2 scan microbenchmark.

A column scanner projects five of ORDERS' seven attributes off three
flash SSDs, once uncompressed and once compressed.  The paper's node:
CPU 90 W active, SSDs 5 W aggregate; uncompressed the scan is disk-bound
(10 s, 3.2 s CPU, 338 J), compressed it is CPU-bound and *faster but
more energy-hungry* (5.5 s, 5.1 s CPU, 487 J).  Energy uses the paper's
convention: only busy time is charged ("assuming that an idle CPU does
not consume any power").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import WorkloadError
from repro.hardware.profiles import flash_scan_node
from repro.records import Record
from repro.relational.executor import ExecutionContext, Executor
from repro.relational.operators import TableScan
from repro.relational.operators.base import CostParameters
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.units import GB, MIB
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_schema import ORDERS_SCAN_COLUMNS

#: logical size of the projected five columns in the paper's setup:
#: 10 s of disk-bound reading at 240 MB/s aggregate flash bandwidth
PAPER_SCAN_BYTES = 2.4 * GB

#: Figure 2 charges pure byte-processing cost (3.2 s at 2.4 GHz over
#: 2.4 GB = 3.2 cycles/byte) with no per-tuple surcharges
FIG2_PARAMS = CostParameters(cycles_per_scan_byte=3.2,
                             cycles_per_tuple_overhead=0.0)

#: per-column codecs for the compressed configuration: keys and dates
#: delta-coded, low-cardinality status dictionary-coded, the rest LZ —
#: measured ratio ~0.5 with ~3.2 decompression cycles per stored byte,
#: bracketing the paper's operating point (ratio ~0.55, 3.45 cycles/B)
COMPRESSED_CODECS = {
    "o_orderkey": "delta",
    "o_custkey": "lzlite",
    "o_orderstatus": "dictionary",
    "o_totalprice": "lzlite",
    "o_orderdate": "delta",
}


@dataclass
class ScanReport(Record):
    """One configuration's measurements (paper-scale units)."""

    compressed: bool
    total_seconds: float
    cpu_seconds: float
    io_seconds: float
    energy_joules: float          # active (busy-time) accounting, as in Fig 2
    full_energy_joules: float     # wall-style accounting, for reference
    bytes_read: float
    compression_ratio: float


def run_scan(compressed: bool = False,
             scale_factor: float = 0.002,
             codec: Optional[str] = None,
             dvfs_fraction: float = 1.0,
             seed: int = 2009,
             *,  # late knobs: hashed and keyed only where set
             target_plain_bytes: float = PAPER_SCAN_BYTES,
             params: Optional[CostParameters] = None) -> ScanReport:
    """Run one Figure 2 configuration and return its measurements.

    Real ORDERS data is generated at ``scale_factor`` and scanned for
    real; replay inflation scales the charged bytes so the plain
    projection equals ``target_plain_bytes`` (the paper's 2.4 GB).
    ``codec`` puts one codec on all five projected columns in place of
    ``COMPRESSED_CODECS``; it needs ``compressed=True``.
    """
    if scale_factor <= 0 or target_plain_bytes <= 0:
        raise WorkloadError("scale factor and target bytes must be positive")
    if not isinstance(compressed, bool):
        raise WorkloadError(f"compressed must be bool, got {compressed!r}")
    if codec is not None and not compressed:
        raise WorkloadError(
            f"codec={codec!r} applies to the compressed scan only: pass "
            f"compressed=True, or leave codec unset (None)")
    sim = Simulation()
    server, array = flash_scan_node(sim)
    server.cpu.set_dvfs(dvfs_fraction)
    storage = StorageManager(sim)
    codecs = None
    if compressed:
        if codec is None:
            per_column = dict(COMPRESSED_CODECS)
        else:
            per_column = {name: codec for name in ORDERS_SCAN_COLUMNS}
        codecs = {"orders": per_column}
    db = generate_tpch(storage, array, scale_factor=scale_factor,
                       layout="column", codecs=codecs, seed=seed,
                       tables=("orders",))
    orders = db["orders"]
    plain = orders.plain_bytes(ORDERS_SCAN_COLUMNS)
    stored = orders.scan_bytes(ORDERS_SCAN_COLUMNS)
    scale = target_plain_bytes / plain
    ctx = ExecutionContext(sim=sim, server=server,
                           params=params or FIG2_PARAMS,
                           scale=scale, chunk_bytes=32 * MIB)
    result = Executor(ctx).run(
        TableScan(orders, columns=ORDERS_SCAN_COLUMNS))
    io_busy = max(
        (device.busy_seconds() for device in server.storage), default=0.0)
    return ScanReport(
        compressed=compressed,
        total_seconds=result.elapsed_seconds,
        cpu_seconds=result.cpu_busy_seconds,
        io_seconds=io_busy,
        energy_joules=result.active_energy_joules,
        full_energy_joules=result.energy_joules,
        bytes_read=stored * scale,
        compression_ratio=stored / plain,
    )
