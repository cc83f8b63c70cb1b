"""The CLI's progress sink: one line per event kind, verbose or quiet."""

import io
from types import SimpleNamespace

import pytest

from repro.runner.events import (EventPrinter, PointFinished,
                                 PointObserved, PointStarted, RunFinished,
                                 RunStarted)

KNOBS = {"disks": 36, "streams": 2}
TRACE = SimpleNamespace(device_totals=lambda: {"disk": 12.5, "cpu": 3.0})
RECORDING = SimpleNamespace(n_nodes=4, n_queries=100, events=[1, 2, 3])

EVENTS = {
    "run_started": RunStarted("fig1", "0123456789abcdef", 2, 1),
    "point_started": PointStarted(0, 2, KNOBS),
    "point_finished": PointFinished(0, 2, KNOBS, 879.49, 12345.6, 1.25,
                                    False),
    "point_cached": PointFinished(1, 2, KNOBS, 879.49, 12345.6, 0.0,
                                  True),
    "telemetry": PointObserved(0, 2, KNOBS, "telemetry", TRACE, False),
    "flightrec": PointObserved(1, 2, KNOBS, "flightrec", RECORDING, True),
    "run_finished": RunFinished("fig1", 2, 1, 1.5),
}

#: what each event prints; ``None`` where only a verbose printer speaks
QUIET = {
    "run_started": "run fig1: 2 point(s) on 1 worker(s) [spec 0123456789ab]",
    "point_started": None,
    "point_finished": "  [1/2] done  disks=36 streams=2  sim=879s"
                      "  E=1.235e+04J  host=1.25s",
    "point_cached": "  [2/2] cache done  disks=36 streams=2  sim=879s"
                    "  E=1.235e+04J  host=0.00s",
    "telemetry": None,
    "flightrec": None,
    "run_finished": "run fig1: 2 point(s) in 1.50s host time"
                    " (1 cache hit(s))",
}
VERBOSE = dict(QUIET, **{
    "point_started": "  [1/2] start  disks=36 streams=2",
    "telemetry": "  [1/2] trace  cpu=3J disk=12.5J",
    "flightrec": "  [2/2] rec  4 node(s)  100 query(ies)  3 event(s)",
})


def printed(event, verbose):
    out = io.StringIO()
    EventPrinter(stream=out, verbose=verbose)(event)
    return out.getvalue()


@pytest.mark.parametrize("verbose", [False, True],
                         ids=["quiet", "verbose"])
@pytest.mark.parametrize("kind", sorted(EVENTS))
def test_each_event_prints_its_line(kind, verbose):
    expected = (VERBOSE if verbose else QUIET)[kind]
    text = printed(EVENTS[kind], verbose)
    assert text == ("" if expected is None else expected + "\n")


def test_long_knob_lists_are_elided():
    knobs = {f"k{i}": i for i in range(6)}
    text = printed(PointStarted(0, 1, knobs), verbose=True)
    assert text == "  [1/1] start  k0=0 k1=1 k2=2 k3=3 ...\n"


def test_unknown_events_print_nothing():
    assert printed(object(), verbose=True) == ""
