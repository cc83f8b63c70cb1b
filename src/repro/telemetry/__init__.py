"""repro.telemetry: energy-attribution telemetry for simulated runs.

The paper's argument rests on knowing *where the Joules go* — "the
disk subsystem accounts for more than half of total power" (§3.1) —
so this package turns the engine's always-on power step functions into
an attribution layer:

* :func:`capture` installs a process-global
  :class:`TelemetryCollector`; while active, every
  :class:`~repro.hardware.meter.EnergyMeter` self-registers, the
  executor opens :class:`EnergySpan` phases around queries and
  pipelines, and storage hooks (buffer pool, WAL, prefetcher) bump
  counters;
* :meth:`TelemetryCollector.finalize` freezes a
  :class:`TelemetryTrace` — a span tree with per-device metered and
  busy-time Joules, per-device power timelines, and the counters —
  that serializes losslessly (``to_dict``/``from_dict``), so traces
  ride through the runner's process pool, the content-addressed cache,
  and ``RunResult`` JSON;
* renderers draw a trace as a terminal energy flamegraph and its
  device and counter tables (``python -m repro.runner trace fig2``).

Telemetry is **off by default**: with no collector installed every
hook is one global read, keeping the untraced engine at full speed
(guarded by ``benchmarks/test_telemetry_overhead.py``).
"""

from repro.observe import current_collector
from repro.telemetry.collector import (
    TIMELINE_SAMPLES,
    TelemetryCollector,
    capture,
)
from repro.telemetry.export import (
    counter_rows,
    device_rows,
    render_flamegraph,
)
from repro.telemetry.spans import EnergySpan, SpanStack
from repro.telemetry.trace import DeviceTimeline, SpanNode, TelemetryTrace

__all__ = [
    "DeviceTimeline",
    "EnergySpan",
    "SpanNode",
    "SpanStack",
    "TIMELINE_SAMPLES",
    "TelemetryCollector",
    "TelemetryTrace",
    "capture",
    "counter_rows",
    "current_collector",
    "device_rows",
    "render_flamegraph",
]
