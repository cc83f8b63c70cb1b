"""The CLI's progress sink: one line per event kind."""

import pytest

from repro.runner.events import (EventPrinter, PointFinished, RunFinished,
                                 RunStarted)

KNOBS = {"disks": 36, "streams": 2}

EVENTS = {
    "run_started": RunStarted("fig1", "0123456789abcdef", 2, 1),
    "point_finished": PointFinished(0, 2, KNOBS, 879.49, 12345.6, 1.25,
                                    False),
    "point_cached": PointFinished(1, 2, KNOBS, 879.49, 12345.6, 0.0,
                                  True),
    "run_finished": RunFinished("fig1", 2, 1, 1.5),
}

#: what each event prints
LINES = {
    "run_started": "run fig1: 2 point(s) on 1 worker(s) [spec 0123456789ab]",
    "point_finished": "  [1/2] done  disks=36 streams=2  sim=879s"
                      "  E=1.235e+04J  host=1.25s",
    "point_cached": "  [2/2] cache done  disks=36 streams=2  sim=879s"
                    "  E=1.235e+04J  host=0.00s",
    "run_finished": "run fig1: 2 point(s) in 1.50s host time"
                    " (1 cache hit(s))",
}


def printed(event, capsys):
    EventPrinter()(event)
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("kind", sorted(EVENTS))
def test_each_event_prints_its_line(kind, capsys):
    assert printed(EVENTS[kind], capsys) == LINES[kind] + "\n"


def test_long_knob_lists_are_elided(capsys):
    knobs = {f"k{i}": i for i in range(6)}
    text = printed(PointFinished(0, 1, knobs, 1.0, 2.0, 0.5, False),
                   capsys)
    assert text == ("  [1/1] done  k0=0 k1=1 k2=2 k3=3 ...  sim=1s"
                    "  E=2J  host=0.50s\n")


def test_unknown_events_print_nothing(capsys):
    assert printed(object(), capsys) == ""
