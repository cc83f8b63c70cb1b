"""repro.flightrec — the fleet flight recorder.

Time-resolved observability for the serving and chaos engines: a
:func:`record` capture collects typed
:class:`~repro.flightrec.events.FleetEvent` streams (dispatch, DVFS,
QED holds, boots/drains/crashes, autoscaler verdicts, sheds, retries)
plus a columnar per-query table, finalized into a serializable
:class:`~repro.flightrec.events.FlightRecording`.  Rollups, SLO
burn-rate analysis, exporters, and the HTML timeline console live in
:mod:`~repro.flightrec.rollup`, :mod:`~repro.flightrec.slo`,
:mod:`~repro.flightrec.export`, and :mod:`~repro.flightrec.console`;
``python -m repro.flightrec`` is the operator CLI.

Recording is off by default and costs one module-global read per
engine hook when off (:mod:`repro.observe`, the switch it shares with
telemetry); reports are byte-identical with or without a recorder
installed.
"""

from repro.flightrec.events import FleetEvent, FlightRecording
from repro.flightrec.recorder import FlightRecorder, record
from repro.observe import current_recorder

__all__ = [
    "FleetEvent",
    "FlightRecorder",
    "FlightRecording",
    "current_recorder",
    "record",
]
