"""The process-global observer switch, keyed by observer kind.

Two observers can watch a run: ``"telemetry"`` (a
:class:`~repro.telemetry.collector.TelemetryCollector` — where the
Joules go) and ``"flightrec"`` (a
:class:`~repro.flightrec.recorder.FlightRecorder` — which decision
spent them).  The kind names are the payload / JSON keys their
observations travel under.

Both are *off* by default: :func:`current_collector` and
:func:`current_recorder` return ``None``, so every engine hook
(executor spans, meter registration, storage counters, serving and
chaos emission sites) is one call plus one ``is None`` test — cheap
enough to leave in hot paths permanently, and reports are
byte-identical with an observer on or off.

Nothing of the package is imported at module level, so any engine
module can hook in without an import cycle (:func:`start` and
:func:`decode` reach the observer packages lazily).  Each worker
process carries its own switch: an observed point captures in its
worker and ships the harvested observation back as plain dicts.
"""

from __future__ import annotations

from contextlib import contextmanager
from importlib import import_module
from typing import TYPE_CHECKING, Any, ContextManager, Iterator, Mapping, \
    Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.flightrec.recorder import FlightRecorder
    from repro.telemetry.collector import TelemetryCollector

#: kind -> (package, its capture context manager, its observation class)
_KINDS = {
    "telemetry": ("repro.telemetry", "capture", "TelemetryTrace"),
    "flightrec": ("repro.flightrec", "record", "FlightRecording"),
}
#: every observer kind, in the order observations are reported
KINDS = tuple(_KINDS)

_active: dict[str, Any] = dict.fromkeys(KINDS)


def current_collector() -> Optional["TelemetryCollector"]:
    """The active telemetry collector, or ``None`` when telemetry is off."""
    return _active["telemetry"]


def current_recorder() -> Optional["FlightRecorder"]:
    """The active flight recorder, or ``None`` when recording is off."""
    return _active["flightrec"]


@contextmanager
def installed(kind: str, observer: Any) -> Iterator[Any]:
    """Make ``observer`` the process-wide observer of ``kind`` for the
    ``with`` block.

    Nesting is refused: an observer inside another of its kind almost
    always means a leaked context manager, and reparenting spans or
    interleaving two runs' events would corrupt both observations.
    """
    if _active[kind] is not None:
        from repro.errors import ReproError
        raise ReproError(f"a {kind} observer is already installed; "
                         f"{kind} observers do not nest")
    _active[kind] = observer
    try:
        yield observer
    finally:
        _active[kind] = None


@contextmanager
def suspended(kind: str) -> Iterator[None]:
    """Switch ``kind`` off for the ``with`` block (a no-op when it is
    off already): what the block builds stays out of the observation."""
    observer, _active[kind] = _active[kind], None
    try:
        yield
    finally:
        _active[kind] = observer


def start(kind: str) -> ContextManager[Any]:
    """A fresh observer of ``kind``, installed while the returned
    context manager is entered; its ``harvest()`` is the payload dict
    (``None`` when it saw no run worth keeping)."""
    package, capture, _ = _KINDS[kind]
    return getattr(import_module(package), capture)()


def decode(kind: str, data: Mapping[str, Any]) -> Any:
    """The observation a ``harvest()`` dict of ``kind`` encodes;
    :class:`~repro.records.RecordError` when it is the wrong shape."""
    package, _, observation = _KINDS[kind]
    return getattr(import_module(package), observation).from_dict(data)
