"""The paper's published experiments as library functions.

Shared by the benchmark harness, the examples, and the integration
tests, so the numbers in EXPERIMENTS.md come from exactly one code
path.

The sweep *machinery* lives in :mod:`repro.runner`: this module only
defines the physics of a single sweep point (:func:`figure1_point`,
:func:`figure2_point`) and the figure-level result containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.profiler import EnergyProfile, ProfilePoint
from repro.hardware.profiles import dl785
from repro.records import Record
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.workloads.scan_workload import ScanReport, run_scan
from repro.workloads.throughput import ThroughputReport, run_throughput
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_queries import throughput_mix


@dataclass
class Figure1Result(Record):
    """Time and energy efficiency vs. number of disks."""

    disk_counts: list[int]
    reports: list[ThroughputReport]
    profile: EnergyProfile = field(init=False)

    def __post_init__(self) -> None:
        self.profile = EnergyProfile(knob_name="disks")
        for n, report in zip(self.disk_counts, self.reports):
            self.profile.points.append(ProfilePoint(
                knob_value=n,
                seconds=report.makespan_seconds,
                energy_joules=report.energy_joules,
                work_done=report.queries_completed,
            ))

    @property
    def most_efficient_disks(self) -> int:
        return self.profile.best_efficiency().knob_value

    @property
    def fastest_disks(self) -> int:
        return self.profile.best_performance().knob_value

    def tradeoff(self) -> tuple[float, float]:
        """(efficiency gain, performance drop) of best-EE vs. fastest."""
        return self.profile.tradeoff()

    def rows(self) -> list[tuple]:
        """Paper-style rows: disks, time, power, energy efficiency."""
        return [
            (n, r.makespan_seconds, r.average_power_watts,
             r.energy_efficiency)
            for n, r in zip(self.disk_counts, self.reports)
        ]


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


@dataclass
class Figure2Result(Record):
    """Uncompressed vs. compressed scan on the flash node."""

    uncompressed: ScanReport
    compressed: ScanReport

    @property
    def speedup(self) -> float:
        """How much faster the compressed scan runs (paper: ~2x)."""
        return self.uncompressed.total_seconds / self.compressed.total_seconds

    @property
    def energy_ratio(self) -> float:
        """Compressed / uncompressed energy (paper: 487/338 = 1.44)."""
        return self.compressed.energy_joules / self.uncompressed.energy_joules

    @property
    def inversion_holds(self) -> bool:
        """The paper's headline: the faster plan uses more energy."""
        return (self.compressed.total_seconds
                < self.uncompressed.total_seconds
                and self.compressed.energy_joules
                > self.uncompressed.energy_joules)

    def rows(self) -> list[tuple]:
        """Paper-style rows: config, total s, CPU s, Joules."""
        return [
            ("uncompressed", self.uncompressed.total_seconds,
             self.uncompressed.cpu_seconds,
             self.uncompressed.energy_joules),
            ("compressed", self.compressed.total_seconds,
             self.compressed.cpu_seconds,
             self.compressed.energy_joules),
        ]


def figure2_point(compressed: bool, scale_factor: float = 0.002,
                  dvfs_fraction: float = 1.0,
                  seed: int = 2009) -> ScanReport:
    """One Figure 2 configuration (a thin alias of :func:`run_scan`)."""
    return run_scan(compressed=compressed, scale_factor=scale_factor,
                    dvfs_fraction=dvfs_fraction, seed=seed)
