"""The DES dispatch order, pinned.

Every simulated second and Joule in this repo follows from the order in
which :meth:`Simulation.step` dispatches events: one heap entry per
trigger, timeout and scheduled call, popped in ``(time, seq)`` order.
A faster dispatch path must therefore dispatch the *same* events at the
same times in the same sequence.  The counts and digests below were
recorded from the code as it stood before the dispatch path, the disk
state machine and the row codec were made direct (PR 18's parent), by
logging ``(now, type(event).__name__)`` from an overriding ``step`` —
the one public dispatch point, and the same hook perfbench counts
events through.
"""

import hashlib

import pytest

import repro.workloads.scan_workload as scan_workload
from repro.hardware.profiles import dl785
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.workloads.throughput import run_throughput
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_queries import throughput_mix


class LoggingSimulation(Simulation):
    """Feeds ``(now, event type)`` of every dispatch into a SHA-256."""

    def __init__(self) -> None:
        super().__init__()
        self.dispatched = 0
        self.sequence = hashlib.sha256()

    def step(self) -> None:
        event = self._queue[0][2]
        super().step()
        self.dispatched += 1
        self.sequence.update(
            f"{self.now!r} {type(event).__name__}\n".encode())


def test_figure1_point_dispatch_order():
    """``perfbench/workloads.py::des_fig1`` at 1/20 size, seed 0."""
    divisor = 20
    physical = 0.002 / divisor
    logical = 300.0 / divisor
    sim = LoggingSimulation()
    server, array = dl785(sim, n_disks=66, spindle_groups=12)
    db = generate_tpch(StorageManager(sim), array, scale_factor=physical,
                       seed=0)
    run_throughput(sim, server, throughput_mix(db, parallelism=4),
                   streams=3, queries_per_stream=1,
                   scale=logical / physical)
    assert sim.dispatched == FIG1_EVENTS
    assert sim.sequence.hexdigest() == FIG1_SHA256


@pytest.mark.parametrize("compressed", [True, False],
                         ids=["compressed", "plain"])
def test_scan_dispatch_order(monkeypatch, compressed):
    sims = []

    def logging_simulation():
        sims.append(LoggingSimulation())
        return sims[-1]

    monkeypatch.setattr(scan_workload, "Simulation", logging_simulation)
    scan_workload.run_scan(compressed=compressed, scale_factor=0.0003,
                           seed=0)
    (sim,) = sims
    events, digest = SCAN[compressed]
    assert sim.dispatched == events
    assert sim.sequence.hexdigest() == digest


FIG1_EVENTS = 18_166
FIG1_SHA256 = \
    "9ac3839fe5f4fecb1744d01c0dd7830277504bef7a70c7ea85ed02a0e177e651"
SCAN = {
    True: (618, "3d7c6c4d4e5856f0edc3bf10310bcb53"
                "b46a4cd3f9bedc924e6f5362c307bac3"),
    False: (1_230, "d730e9eb4cc56fd3d5f654540c355a36"
                   "bb2201ec6ab0cf3fba5382297779ed45"),
}
