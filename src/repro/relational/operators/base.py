"""Operator base class and cost collection.

Execution is two-phase (see :mod:`repro.relational.executor`):

1. *Evaluate*: operators run for real over the stored tuples, producing
   correct results while recording what the work costs — CPU cycles,
   I/O requests against placements, and memory grants — into a
   :class:`CostCollector`, organized into *pipelines* (maximal
   non-blocking operator chains).
2. *Replay*: the executor turns each pipeline into simulation processes
   (I/O producers + a CPU consumer with bounded prefetch), which is
   where time passes and energy is spent.

The ``scale`` factor implements replay inflation: operators evaluate a
small materialized dataset but charge costs as if the data were
``scale`` times larger, letting laptop-sized runs reproduce the paper's
machine-sized experiments without materializing 300 GB in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.raid import RaidArray


@dataclass(frozen=True)
class CostParameters:
    """The CPU-cycle constants a workload calibrates, shared by the
    executor and the optimizer.

    ``cycles_per_scan_byte`` is calibrated so the Figure 2 node (2.4 GHz)
    spends 3.2 s of CPU scanning and projecting 2.4 GB: 3.2 cycles/byte.
    """

    cycles_per_scan_byte: float = 3.2
    cycles_per_tuple_overhead: float = 16.0


# the CPU-cycle constants no workload calibrates
CYCLES_PER_HASH_BUILD_TUPLE = 120.0
CYCLES_PER_HASH_PROBE_TUPLE = 80.0
CYCLES_PER_SORT_COMPARE = 24.0
CYCLES_PER_MERGE_TUPLE = 40.0
CYCLES_PER_AGG_UPDATE = 32.0
CYCLES_PER_OUTPUT_TUPLE = 20.0
CYCLES_PER_JOIN_PAIR = 8.0
HASH_TABLE_OVERHEAD_FACTOR = 1.5
SORT_RUN_OVERHEAD_FACTOR = 1.0


@dataclass
class IoRequest:
    """Bytes to move against a placement during replay.

    ``n_random_requests > 0`` marks random I/O (index probes, unclustered
    rid fetches): replay then charges that many positionings instead of
    streaming the bytes sequentially.
    """

    array: "RaidArray"
    nbytes: float
    stream: Any
    is_write: bool = False
    n_random_requests: float = 0.0


@dataclass
class PipelineCost:
    """Accumulated cost of one pipeline (between blocking boundaries)."""

    index: int
    cpu_cycles: float = 0.0
    io: list[IoRequest] = field(default_factory=list)
    dram_grant_bytes: float = 0.0
    parallelism: int = 1
    label: str = ""

    @property
    def io_bytes(self) -> float:
        return sum(req.nbytes for req in self.io)


class CostCollector:
    """Builds the pipeline cost list during the evaluate phase."""

    def __init__(self, params: Optional[CostParameters] = None,
                 scale: float = 1.0) -> None:
        if scale <= 0:
            raise PlanError(f"scale must be positive, got {scale}")
        self.params = params or CostParameters()
        self.scale = scale
        self.pipelines: list[PipelineCost] = []
        self._current: Optional[PipelineCost] = None

    # -- pipeline structure ---------------------------------------------------
    @property
    def current(self) -> PipelineCost:
        if self._current is None:
            self._current = PipelineCost(index=len(self.pipelines))
            self.pipelines.append(self._current)
        return self._current

    def break_pipeline(self, label: str = "") -> None:
        """End the current pipeline at a blocking operator boundary."""
        if self._current is not None and label and not self._current.label:
            self._current.label = label
        self._current = None

    # -- charging -----------------------------------------------------------
    def charge_cpu(self, cycles: float) -> None:
        """Add (scaled) CPU cycles to the current pipeline."""
        if cycles < 0:
            raise PlanError("negative CPU charge")
        self.current.cpu_cycles += cycles * self.scale

    def charge_cpu_quadratic(self, cycles: float) -> None:
        """Add CPU cycles for pairwise work (nested loops).

        Pair counts grow quadratically with data volume, so replay
        inflation applies ``scale`` squared.
        """
        if cycles < 0:
            raise PlanError("negative CPU charge")
        self.current.cpu_cycles += cycles * self.scale * self.scale

    def charge_io(self, array: "RaidArray", nbytes: float, stream: Any,
                  is_write: bool = False) -> None:
        """Add a (scaled) sequential I/O request to the current pipeline."""
        if nbytes < 0:
            raise PlanError("negative I/O charge")
        if nbytes == 0:
            return
        self.current.io.append(
            IoRequest(array, nbytes * self.scale, stream, is_write))

    def charge_random_io(self, array: "RaidArray", nbytes: float,
                         n_requests: float) -> None:
        """Add (scaled) random reads: ``n_requests`` positioned accesses
        moving ``nbytes`` in total (index probes, rid fetches)."""
        if nbytes < 0 or n_requests < 0:
            raise PlanError("negative random I/O charge")
        if nbytes == 0 and n_requests == 0:
            return
        self.current.io.append(
            IoRequest(array, nbytes * self.scale, stream=None,
                      is_write=False,
                      n_random_requests=n_requests * self.scale))

    def charge_dram_grant(self, nbytes: float) -> None:
        """Record a memory grant held for the current pipeline's duration."""
        if nbytes < 0:
            raise PlanError("negative memory grant")
        self.current.dram_grant_bytes += nbytes * self.scale

    def set_parallelism(self, degree: int) -> None:
        """Set the CPU parallelism of the current pipeline."""
        if degree < 1:
            raise PlanError("parallelism must be >= 1")
        self.current.parallelism = degree

    # -- summaries --------------------------------------------------------
    def total_cpu_cycles(self) -> float:
        return sum(p.cpu_cycles for p in self.pipelines)

    def total_io_bytes(self) -> float:
        return sum(p.io_bytes for p in self.pipelines)


class Operator:
    """Base physical operator.

    Subclasses implement :meth:`execute`, which returns the full result
    as a list of tuples and charges costs into the collector, and
    override ``children`` (for plan traversal) and ``describe`` (one
    line for plan printing).  Results are materialized lists (not
    generators) so the cost accounting is complete when execute returns
    — the simulation replay needs totals.

    What an operator charges is stated once, in its ``_charge`` methods,
    as a function of row counts: ``execute`` calls them with the counts
    it produced, and :class:`~repro.optimizer.cost.CostModel` with the
    cardinalities it estimates.
    """

    def __init__(self, output_columns: Sequence[str]) -> None:
        names = list(output_columns)
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate output columns: {names}")
        self.output_columns = names

    def execute(self, collector: CostCollector) -> list[tuple]:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__
