"""The paper's published experiments as library functions.

Shared by the benchmark harness, the examples, and the integration
tests, so the numbers in EXPERIMENTS.md come from exactly one code
path.

The sweep *machinery* lives in :mod:`repro.runner`: this module only
defines the physics of a single sweep point (:func:`figure1_point`,
:func:`figure2_point`); each figure's claims are read off the
points' reports by the code that asserts them.
"""

from __future__ import annotations

from repro.hardware.profiles import dl785
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.workloads.scan_workload import ScanReport, run_scan
from repro.workloads.throughput import ThroughputReport, run_throughput
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_queries import throughput_mix


def figure1_point(disks: int,
                  physical_scale_factor: float = 0.002,
                  logical_scale_factor: float = 300.0,
                  streams: int = 6,
                  queries_per_stream: int = 3,
                  parallelism: int = 4,
                  spindle_groups: int = 12,
                  seed: int = 2009) -> ThroughputReport:
    """One Figure 1 sweep point: the TPC-H throughput test at ``disks``.

    Data is generated at ``physical_scale_factor`` and replayed as if
    at ``logical_scale_factor`` (the audited system ran SF 300).
    Hardware is the DL785 profile with RAID 5.
    """
    sim = Simulation()
    server, array = dl785(sim, n_disks=disks,
                          spindle_groups=spindle_groups)
    storage = StorageManager(sim)
    db = generate_tpch(storage, array,
                       scale_factor=physical_scale_factor, seed=seed)
    mix = throughput_mix(db, parallelism=parallelism)
    return run_throughput(
        sim, server, mix, streams=streams,
        queries_per_stream=queries_per_stream,
        scale=logical_scale_factor / physical_scale_factor)


def figure2_point(compressed: bool, scale_factor: float = 0.002,
                  dvfs_fraction: float = 1.0,
                  seed: int = 2009) -> ScanReport:
    """One Figure 2 configuration (a thin alias of :func:`run_scan`)."""
    return run_scan(compressed=compressed, scale_factor=scale_factor,
                    dvfs_fraction=dvfs_fraction, seed=seed)
