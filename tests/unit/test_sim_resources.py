"""Unit tests for simulation resources."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulation


def test_acquire_release_single_unit():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    log = []

    def user(name, hold):
        yield res.acquire()
        log.append(("got", name, sim.now))
        yield sim.timeout(hold)
        res.release()
        log.append(("rel", name, sim.now))

    sim.spawn(user("a", 2.0))
    sim.spawn(user("b", 1.0))
    sim.run()
    assert log == [
        ("got", "a", 0.0),
        ("rel", "a", 2.0),
        ("got", "b", 2.0),
        ("rel", "b", 3.0),
    ]


def test_capacity_allows_parallelism():
    sim = Simulation()
    res = Resource(sim, capacity=2)
    finished = []

    def user(name):
        yield res.acquire()
        yield sim.timeout(1.0)
        res.release()
        finished.append((name, sim.now))

    for name in "abcd":
        sim.spawn(user(name))
    sim.run()
    # Two run in [0,1], two in [1,2].
    assert [t for _, t in finished] == [1.0, 1.0, 2.0, 2.0]


def test_fifo_ordering_of_waiters():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    order = []

    def user(name):
        yield res.acquire()
        order.append(name)
        yield sim.timeout(1.0)
        res.release()

    for name in "abc":
        sim.spawn(user(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_release_without_acquire_raises():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_capacity_must_be_positive():
    sim = Simulation()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_utilization_full_busy():
    sim = Simulation()
    res = Resource(sim, capacity=1)

    def user():
        yield res.acquire()
        yield sim.timeout(10.0)
        res.release()

    sim.spawn(user())
    sim.run()
    assert res.utilization() == pytest.approx(1.0)


def test_utilization_half_busy():
    sim = Simulation()
    res = Resource(sim, capacity=1)

    def user():
        yield res.acquire()
        yield sim.timeout(5.0)
        res.release()
        yield sim.timeout(5.0)

    sim.spawn(user())
    sim.run()
    assert res.utilization() == pytest.approx(0.5)


def test_utilization_scales_with_capacity():
    sim = Simulation()
    res = Resource(sim, capacity=4)

    def user():
        yield res.acquire()
        yield sim.timeout(8.0)
        res.release()

    sim.spawn(user())  # 1 of 4 units busy for the whole run
    sim.run()
    assert res.utilization() == pytest.approx(0.25)


def test_busy_seconds_counts_unit_seconds():
    sim = Simulation()
    res = Resource(sim, capacity=2)

    def user(hold):
        yield res.acquire()
        yield sim.timeout(hold)
        res.release()

    sim.spawn(user(3.0))
    sim.spawn(user(5.0))
    sim.run()
    assert res.busy_seconds() == pytest.approx(8.0)


def test_reset_accounting():
    sim = Simulation()
    res = Resource(sim, capacity=1)

    def user():
        yield res.acquire()
        yield sim.timeout(4.0)
        res.release()
        res.reset_accounting()
        yield sim.timeout(4.0)

    sim.spawn(user())
    sim.run()
    assert res.utilization() == pytest.approx(0.0)


def test_queue_length_observable():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    seen = []

    def holder():
        yield res.acquire()
        yield sim.timeout(5.0)
        res.release()

    def waiter():
        req = res.acquire()
        yield req
        res.release()

    def observer():
        yield sim.timeout(1.0)
        seen.append(res.queue_length)

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.spawn(waiter())
    sim.spawn(observer())
    sim.run()
    assert seen == [2]
