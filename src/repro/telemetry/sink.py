"""TelemetrySink: collect per-point traces from runner progress events.

The runner emits a ``"telemetry"``
:class:`~repro.runner.events.PointObserved` event (carrying the
decoded :class:`TelemetryTrace`) for every traced point —
cache hits included, since traced payloads store their trace.  A
``TelemetrySink`` is an ordinary event sink that accumulates those into
a per-point map (``forward`` passes every event on, e.g. to the
printing sink)::

    from repro.runner import Runner
    from repro.telemetry import TelemetrySink

    sink = TelemetrySink()
    run = Runner(trace=True, on_event=sink).run(spec)
    sink.traces[0]              # the first point's TelemetryTrace
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.telemetry.trace import TelemetryTrace


@dataclass
class TelemetrySink:
    """Event sink that keeps every point's trace, in sweep order.

    ``forward`` (optional) receives every event after the sink records
    it, so one sink can both collect and keep a printer running.
    """

    forward: Optional[Callable[[Any], None]] = None
    traces: dict[int, TelemetryTrace] = field(default_factory=dict)
    knobs: dict[int, dict[str, Any]] = field(default_factory=dict)

    def __call__(self, event: Any) -> None:
        # imported here so constructing a sink never drags the runner in
        from repro.runner.events import PointObserved
        if isinstance(event, PointObserved) and event.kind == "telemetry":
            self.traces[event.index] = event.observation
            self.knobs[event.index] = dict(event.knobs)
        if self.forward is not None:
            self.forward(event)
