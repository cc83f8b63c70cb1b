"""Unit tests for power-state machines."""

import math

import pytest

from repro.errors import PowerStateError
from repro.hardware.power import (
    PowerState,
    PowerStateMachine,
    Transition,
    breakeven_idle_seconds,
)


def make_psm():
    return PowerStateMachine(
        states=[PowerState("active", 17.0), PowerState("idle", 12.0),
                PowerState("standby", 2.5)],
        transitions=[
            Transition("active", "idle"),
            Transition("idle", "active"),
            Transition("idle", "standby", 1.5, 6.0),
            Transition("standby", "idle", 6.0, 90.0),
        ],
        initial="idle",
    )


def test_initial_state_and_power():
    psm = make_psm()
    assert psm.current == "idle"
    assert psm.power_watts == 12.0


def test_transition_moves_state():
    psm = make_psm()
    t = psm.transition("active")
    assert psm.current == "active"
    assert t.latency_seconds == 0.0
    assert psm.power_watts == 17.0


def test_transition_carries_costs():
    psm = make_psm()
    t = psm.transition("standby")
    assert t.latency_seconds == 1.5
    assert t.energy_joules == 6.0


def test_self_transition_is_free():
    psm = make_psm()
    t = psm.transition("idle")
    assert t.latency_seconds == 0.0
    assert t.energy_joules == 0.0
    assert psm.current == "idle"


def test_illegal_transition_rejected():
    psm = make_psm()
    psm.transition("active")
    with pytest.raises(PowerStateError):
        psm.transition("standby")  # must pass through idle


def test_unknown_initial_state_rejected():
    with pytest.raises(PowerStateError):
        PowerStateMachine([PowerState("a", 1.0)], [], initial="b")


def test_duplicate_state_names_rejected():
    with pytest.raises(PowerStateError):
        PowerStateMachine([PowerState("a", 1.0), PowerState("a", 2.0)],
                          [], initial="a")


def test_negative_power_rejected():
    with pytest.raises(PowerStateError):
        PowerState("bad", -1.0)


def test_can_transition():
    psm = make_psm()
    psm.transition("active")
    assert psm.current == "active"
    with pytest.raises(PowerStateError):
        psm.transition("nonexistent")


def test_breakeven_idle_for_disk_like_device():
    enter = Transition("idle", "standby", 1.5, 6.0)
    exit_ = Transition("standby", "idle", 6.0, 90.0)
    t = breakeven_idle_seconds(12.0, 2.5, enter, exit_)
    # Check by direct energy comparison slightly above/below the breakeven.
    def sleep_cost(period):
        return 6.0 + 90.0 + 2.5 * (period - 1.5 - 6.0)
    def stay_cost(period):
        return 12.0 * period
    assert sleep_cost(t) == pytest.approx(stay_cost(t), rel=1e-9)
    assert sleep_cost(t + 1) < stay_cost(t + 1)
    assert sleep_cost(t - 1) > stay_cost(t - 1)


def test_breakeven_infinite_when_sleep_saves_nothing():
    enter = Transition("idle", "standby", 0.0, 0.0)
    exit_ = Transition("standby", "idle", 0.0, 0.0)
    assert math.isinf(breakeven_idle_seconds(5.0, 5.0, enter, exit_))
