"""Property-based tests: simulation determinism and energy invariants."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.proportionality import proportionality_index
from repro.hardware.server import BaseLoad
from repro.hardware.meter import EnergyMeter
from repro.errors import SimulationError
from repro.sim import Simulation, TimeSeries
from repro.sim.tracing import _VECTORIZE_FROM_SEGMENTS

delays = st.lists(st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False), min_size=1, max_size=20)


@settings(max_examples=50)
@given(delays)
def test_simulation_deterministic(delay_list):
    def run():
        sim = Simulation()
        order = []

        def proc(name, delay):
            yield sim.timeout(delay)
            order.append((sim.now, name))

        for i, delay in enumerate(delay_list):
            sim.spawn(proc(i, delay))
        sim.run()
        return order

    assert run() == run()


@settings(max_examples=50)
@given(delays)
def test_clock_monotone(delay_list):
    sim = Simulation()
    stamps = []

    def proc(delay):
        yield sim.timeout(delay)
        stamps.append(sim.now)

    for delay in delay_list:
        sim.spawn(proc(delay))
    sim.run()
    assert stamps == sorted(stamps)


samples = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
              st.floats(min_value=0.0, max_value=500.0, allow_nan=False)),
    min_size=1, max_size=30,
).map(lambda pts: sorted(pts, key=lambda p: p[0]))


@settings(max_examples=80)
@given(samples, st.floats(min_value=0.0, max_value=1000.0,
                          allow_nan=False))
def test_integral_additivity(points, split):
    ts = TimeSeries()
    for t, v in points:
        ts.record(t, v)
    t0 = points[0][0]
    t1 = max(points[-1][0], t0) + 10.0
    mid = min(max(split, t0), t1)
    whole = ts.integrate(t0, t1)
    parts = ts.integrate(t0, mid) + ts.integrate(mid, t1)
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-9)


@settings(max_examples=80)
@given(samples)
def test_integral_non_negative_and_bounded(points):
    ts = TimeSeries()
    for t, v in points:
        ts.record(t, v)
    t0 = points[0][0]
    t1 = t0 + 50.0
    value = ts.integrate(t0, t1)
    peak = max(v for _, v in points)
    assert 0.0 <= value <= peak * (t1 - t0) + 1e-6


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.1, max_value=500.0,
                          allow_nan=False), min_size=1, max_size=5),
       st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
def test_meter_energy_equals_power_times_time(watts_list, duration):
    """Constant loads: meter integral == sum(P) * T exactly."""
    sim = Simulation()
    meter = EnergyMeter(sim)
    for i, watts in enumerate(watts_list):
        meter.attach(BaseLoad(sim, watts, name=f"load{i}"))
    sim.run(until=duration)
    assert meter.energy_joules() == pytest.approx(
        sum(watts_list) * duration, rel=1e-9)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False),
                min_size=3, max_size=12))
def test_proportionality_index_bounds(raw):
    """For any monotone power curve spanning [0,1] with positive peak,
    the EP index of the *ideal* curve is 1 and a constant curve is 0."""
    n = len(raw)
    utils = [i / (n - 1) for i in range(n)]
    ideal = [u * 100.0 for u in utils]
    constant = [100.0] * n
    assert proportionality_index(utils, ideal) == pytest.approx(1.0)
    assert proportionality_index(utils, constant) == pytest.approx(0.0)
    # mixes land in between
    mixed = [0.5 * i + 0.5 * c for i, c in zip(ideal, constant)]
    assert 0.0 < proportionality_index(utils, mixed) < 1.0


# -- TimeSeries.integrate: the vectorized path is the scalar loop ------

def _scalar_integrate(times, values, t0, t1):
    """The pre-vectorization ``TimeSeries.integrate`` loop, kept here
    as the reference the numpy path must reproduce bit for bit."""
    total = 0.0
    idx = bisect.bisect_right(times, t0) - 1
    cursor = t0
    while cursor < t1:
        seg_end = times[idx + 1] if idx + 1 < len(times) else t1
        seg_end = min(seg_end, t1)
        total += values[idx] * (seg_end - cursor)
        cursor = seg_end
        idx += 1
    return total


#: (gap to the previous sample, value); a zero gap re-records at the
#: same timestamp, which overwrites
_step = st.tuples(
    st.sampled_from([0.0, 0.25, 1.0])
    | st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=-500.0, max_value=500.0, allow_nan=False))
#: short series stay on the scalar branch; the long ones (hypothesis
#: rarely grows a list that far unasked) reach the numpy branch even
#: after same-timestamp overwrites thin them out
steps = st.lists(_step, min_size=1, max_size=40) \
    | st.lists(_step, min_size=2 * _VECTORIZE_FROM_SEGMENTS,
               max_size=4 * _VECTORIZE_FROM_SEGMENTS)

#: (t0 fraction, t1 fraction, snap t0 to a sample, snap t1 to a
#: sample, seconds past the last sample added to t1)
queries = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1.0),
              st.floats(min_value=0.0, max_value=1.0),
              st.booleans(), st.booleans(),
              st.sampled_from([0.0, 0.0, 3.5, 1e6])),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(steps, queries, st.integers(min_value=1, max_value=4))
def test_integrate_is_bit_identical_to_the_scalar_loop(step_list, query_list,
                                                       n_chunks):
    ts = TimeSeries()
    t = 0.0
    chunk = -(-len(step_list) // n_chunks)
    for at in range(0, len(step_list), chunk):
        # record() between rounds of integrate(): a stale array cache
        # (appended sample or same-timestamp overwrite) would show
        for gap, value in step_list[at:at + chunk]:
            t += gap
            ts.record(t, value)
        times, values = ts.times, ts.values
        first, last = times[0], times[-1]

        def point(fraction, snap):
            x = first + fraction * (last - first)
            if snap:
                x = times[min(bisect.bisect_left(times, x), len(times) - 1)]
            return x

        spans = [(first, last), (first, last + 7.0)]
        for f0, f1, snap0, snap1, past in query_list:
            a, b = sorted((point(f0, snap0), point(f1, snap1)))
            spans.append((a, b + past))
        for t0, t1 in spans:
            got = ts.integrate(t0, t1)
            want = _scalar_integrate(times, values, t0, t1)
            # float.hex: equal bits, not just ==  (tells -0.0 from 0.0)
            assert got.hex() == float(want).hex(), (t0, t1, len(times))


# -- TimeSeries.extend: whole arrays in, repeated record() out ---------

#: (gap to the previous sample, value); negative gaps walk time
#: backwards, which both spellings must refuse the same way
_any_step = st.tuples(
    st.sampled_from([0.0, 0.0, 0.5, -0.0, -1.0])
    | st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=-500.0, max_value=500.0, allow_nan=False))


@settings(max_examples=120, deadline=None)
@given(st.lists(_any_step, max_size=12),
       st.lists(st.lists(_any_step, max_size=30), min_size=1, max_size=3),
       st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_extend_equals_repeated_record(prefix, batches, origin):
    one_by_one, bulk = TimeSeries("s"), TimeSeries("s")
    t = origin
    for gap, value in prefix:
        t += abs(gap)
        one_by_one.record(t, value)
        bulk.record(t, value)
    for batch in batches:
        times, values = [], []
        for gap, value in batch:
            t += gap
            times.append(t)
            values.append(value)
        before = (one_by_one.times, one_by_one.values)
        try:
            for at, value in zip(times, values):
                one_by_one.record(at, value)
        except SimulationError as error:
            with pytest.raises(SimulationError) as refused:
                bulk.extend(times, values)
            assert str(refused.value) == str(error)
            # extend() is all-or-nothing
            assert (bulk.times, bulk.values) == before
            return
        bulk.extend(times, values)
        # float.hex: equal bits (a run's first timestamp survives, so
        # 0.0 followed by -0.0 stays 0.0 in both)
        assert [x.hex() for x in bulk.times] == \
            [x.hex() for x in one_by_one.times]
        assert [x.hex() for x in bulk.values] == \
            [x.hex() for x in one_by_one.values]
