"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulation was driven into an invalid state."""


class HardwareError(ReproError):
    """A device model was misconfigured or misused."""


class PowerStateError(HardwareError):
    """An illegal power-state transition was requested."""


class StorageError(ReproError):
    """Storage-engine failure: page, file, buffer or log misuse."""


class PageError(StorageError):
    """A slotted-page operation violated the page layout invariants."""


class BufferPoolError(StorageError):
    """Buffer-pool misuse, e.g. unpinning a page that is not pinned."""


class WalError(StorageError):
    """Write-ahead-log protocol violation."""


class CompressionError(StorageError):
    """A codec failed to encode or decode a segment."""


class SchemaError(ReproError):
    """Schema definition or tuple/schema mismatch."""


class ExpressionError(ReproError):
    """Expression tree construction or evaluation failure."""


class PlanError(ReproError):
    """Query-plan construction or validation failure."""


class ExecutionError(ReproError):
    """Runtime failure while executing a physical plan."""


class OptimizerError(ReproError):
    """The optimizer could not produce a plan."""


class WorkloadError(ReproError):
    """Workload generation or driver failure."""


class ConsolidationError(ReproError):
    """Consolidation planning/scheduling failure."""
