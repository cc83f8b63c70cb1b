"""Unit tests for time-series tracing."""

import pytest

from repro.errors import SimulationError
from repro.sim import TimeSeries


def make_series():
    ts = TimeSeries("power")
    ts.record(0.0, 10.0)
    ts.record(2.0, 50.0)
    ts.record(5.0, 0.0)
    return ts


def test_value_at_exact_points():
    ts = make_series()
    assert ts.value_at(0.0) == 10.0
    assert ts.value_at(2.0) == 50.0
    assert ts.value_at(5.0) == 0.0


def test_value_at_between_points():
    ts = make_series()
    assert ts.value_at(1.0) == 10.0
    assert ts.value_at(3.5) == 50.0
    assert ts.value_at(100.0) == 0.0


def test_value_before_first_sample_raises():
    ts = make_series()
    with pytest.raises(SimulationError):
        ts.value_at(-0.1)


def test_integrate_full_span():
    ts = make_series()
    # 10 W for 2 s + 50 W for 3 s = 170 J up to t=5
    assert ts.integrate(0.0, 5.0) == pytest.approx(170.0)


def test_integrate_partial_span():
    ts = make_series()
    # [1, 3]: 10 W for 1 s + 50 W for 1 s = 60 J
    assert ts.integrate(1.0, 3.0) == pytest.approx(60.0)


def test_integrate_beyond_last_sample_extends_final_value():
    ts = make_series()
    assert ts.integrate(5.0, 10.0) == pytest.approx(0.0)
    ts2 = TimeSeries()
    ts2.record(0.0, 7.0)
    assert ts2.integrate(0.0, 4.0) == pytest.approx(28.0)


def test_integrate_empty_interval_is_zero():
    ts = make_series()
    assert ts.integrate(3.0, 3.0) == 0.0


def test_integrate_reversed_interval_raises():
    ts = make_series()
    with pytest.raises(SimulationError):
        ts.integrate(3.0, 1.0)


def test_integrate_before_series_start_raises():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(SimulationError):
        ts.integrate(0.0, 10.0)


def test_record_backwards_time_raises():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(SimulationError):
        ts.record(4.0, 2.0)


def test_record_same_time_overwrites():
    ts = TimeSeries()
    ts.record(1.0, 5.0)
    ts.record(1.0, 9.0)
    assert len(ts) == 1
    assert ts.value_at(1.0) == 9.0


def test_extend_applies_record_rules_to_arrays():
    ts = TimeSeries()
    ts.record(1.0, 5.0)
    ts.extend([1.0, 2.0, 2.0, 3.0], [6.0, 7.0, 8.0, 9.0])
    assert list(zip(ts.times, ts.values)) == [(1.0, 6.0), (2.0, 8.0), (3.0, 9.0)]
    ts.extend([], [])
    assert len(ts) == 3
    with pytest.raises(SimulationError, match=r"backwards \(2.5 after 4.0\)"):
        ts.extend([3.0, 4.0, 2.5], [1.0, 1.0, 1.0])
    with pytest.raises(SimulationError, match=r"backwards \(2.0 after 3.0\)"):
        ts.extend([2.0], [1.0])
    with pytest.raises(SimulationError, match="equally long"):
        ts.extend([4.0, 5.0], [1.0])
    assert len(ts) == 3


def test_extend_drops_the_integrate_cache():
    ts = TimeSeries()
    ts.extend(range(300), [1.0] * 300)
    assert ts.integrate(0.0, 299.0) == 299.0  # long enough to cache arrays
    ts.extend([299.0, 300.0], [3.0, 0.0])
    assert ts.integrate(0.0, 300.0) == 302.0


def test_iteration_yields_pairs():
    ts = make_series()
    assert list(zip(ts.times, ts.values)) == [(0.0, 10.0), (2.0, 50.0), (5.0, 0.0)]
