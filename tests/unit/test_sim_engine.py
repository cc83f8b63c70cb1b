"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulation
from repro.sim.events import Event


def test_clock_starts_at_zero():
    sim = Simulation()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulation()
    done = []

    def proc():
        yield sim.timeout(3.5)
        done.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert done == [3.5]


def test_zero_delay_timeout():
    sim = Simulation()
    done = []

    def proc():
        yield sim.timeout(0.0)
        done.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert done == [0.0]


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulation()
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.spawn(proc("c", 3.0))
    sim.spawn(proc("a", 1.0))
    sim.spawn(proc("b", 2.0))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_spawn_order():
    sim = Simulation()
    order = []

    def proc(name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in "abcde":
        sim.spawn(proc(name))
    sim.run()
    assert order == list("abcde")


def test_determinism_across_runs():
    def build():
        sim = Simulation()
        order = []

        def proc(name, delay):
            yield sim.timeout(delay)
            order.append((sim.now, name))

        for i, name in enumerate("xyz"):
            sim.spawn(proc(name, float(i % 2)))
        sim.run()
        return order

    assert build() == build()


def test_sequential_timeouts_accumulate():
    sim = Simulation()
    stamps = []

    def proc():
        for _ in range(4):
            yield sim.timeout(0.25)
            stamps.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert stamps == pytest.approx([0.25, 0.5, 0.75, 1.0])


def test_run_until_time_stops_early():
    sim = Simulation()
    done = []

    def proc():
        yield sim.timeout(10.0)
        done.append("late")

    sim.spawn(proc())
    sim.run(until=5.0)
    assert done == []
    assert sim.now == 5.0


def test_run_until_time_advances_clock_with_empty_queue():
    sim = Simulation()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_run_until_past_time_rejected():
    sim = Simulation()
    sim.run(until=10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_process_return_value_via_run_until_event():
    sim = Simulation()

    def proc():
        yield sim.timeout(1.0)
        return 42

    result = sim.run(until=sim.spawn(proc()))
    return_value = result
    assert return_value == 42


def test_process_waits_on_process():
    sim = Simulation()
    log = []

    def child():
        yield sim.timeout(2.0)
        return "child-result"

    def parent():
        value = yield sim.spawn(child())
        log.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert log == [(2.0, "child-result")]


def test_unhandled_process_exception_raises_at_run():
    sim = Simulation()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_exception_propagates_to_waiting_process():
    sim = Simulation()
    caught = []

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.spawn(bad())
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(parent())
    sim.run()
    assert caught == ["boom"]


def test_run_until_failed_process_raises():
    sim = Simulation()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    process = sim.spawn(bad())
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run(until=process)


def test_yielding_non_event_fails_process():
    sim = Simulation()

    def bad():
        yield 123

    sim.spawn(bad())
    with pytest.raises(SimulationError, match="must yield Event"):
        sim.run()


def test_spawn_requires_generator():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_event_succeed_wakes_waiter():
    sim = Simulation()
    gate = Event(sim)
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.spawn(waiter())
    sim.spawn(opener())
    sim.run()
    assert log == [(3.0, "open")]


def test_event_cannot_trigger_twice():
    sim = Simulation()
    gate = Event(sim)
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        _ = Event(sim).value


def test_all_of_collects_values_in_order():
    sim = Simulation()

    def proc(value, delay):
        yield sim.timeout(delay)
        return value

    def main():
        children = [sim.spawn(proc(v, d))
                    for v, d in [("a", 3.0), ("b", 1.0), ("c", 2.0)]]
        values = yield sim.all_of(children)
        return values

    assert sim.run(until=sim.spawn(main())) == ["a", "b", "c"]
    assert sim.now == 3.0


def test_all_of_empty_succeeds_immediately():
    sim = Simulation()

    def main():
        values = yield sim.all_of([])
        return values

    assert sim.run(until=sim.spawn(main())) == []


def test_any_of_returns_first_value():
    sim = Simulation()

    def proc(value, delay):
        yield sim.timeout(delay)
        return value

    def main():
        children = [sim.spawn(proc("slow", 5.0)), sim.spawn(proc("fast", 1.0))]
        winner = yield sim.any_of(children)
        return winner

    assert sim.run(until=sim.spawn(main())) == "fast"
    assert sim.now == 1.0


def test_any_of_requires_events():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.any_of([])


def test_step_with_empty_queue_raises():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.step()


# -- the dispatch contract -------------------------------------------------


class CountingSimulation(Simulation):
    """Counts dispatches through the one public dispatch point."""

    def __init__(self):
        super().__init__()
        self.steps = 0

    def step(self):
        self.steps += 1
        super().step()


def _chatter(sim, rounds=5):
    """Three processes trading timeouts and a shared event."""
    gate = Event(sim)

    def ticker(delay):
        for _ in range(rounds):
            yield sim.timeout(delay)
        return delay

    def opener():
        yield sim.timeout(2.5)
        gate.succeed("open")

    def waiter():
        yield gate
        yield sim.all_of([sim.spawn(ticker(0.5)), sim.spawn(ticker(0.25))])

    sim.spawn(ticker(1.0))
    sim.spawn(opener())
    return sim.spawn(waiter())


#: heap entries of ``_chatter``: 5 kick-offs, 16 timeouts, the gate,
#: 5 process completions and the all_of
CHATTER_EVENTS = 28


@pytest.mark.parametrize("until", ["drain", "time", "event"])
def test_every_run_mode_dispatches_through_an_overridden_step(until):
    sim = CountingSimulation()
    main = _chatter(sim)
    if until == "drain":
        sim.run()
    elif until == "time":
        sim.run(until=100.0)
        assert sim.now == 100.0
    else:
        sim.run(until=main)
        sim.run()  # the first ticker outlives main
    assert sim.steps == CHATTER_EVENTS
    assert sim._seq == CHATTER_EVENTS  # one heap entry each, no more


def test_run_until_time_leaves_later_events_queued():
    sim = CountingSimulation()
    _chatter(sim)
    sim.run(until=2.0)
    dispatched = sim.steps
    assert 0 < dispatched < CHATTER_EVENTS
    sim.run()
    assert sim.steps == CHATTER_EVENTS


def test_first_spawned_orphan_failure_is_the_one_raised():
    sim = Simulation()

    def bad(delay, message):
        yield sim.timeout(delay)
        raise ValueError(message)

    sim.spawn(bad(2.0, "spawned first, fails last"))
    sim.spawn(bad(1.0, "spawned second, fails first"))
    with pytest.raises(ValueError, match="spawned first"):
        sim.run()
    # the failure stays unobserved, so a later run() reports it again
    with pytest.raises(ValueError, match="spawned first"):
        sim.run()


def test_observed_failure_is_not_raised_again():
    sim = Simulation()

    def bad(message):
        yield sim.timeout(1.0)
        raise ValueError(message)

    def guard():
        try:
            yield sim.spawn(bad("handled"))
        except ValueError:
            pass

    sim.spawn(guard())
    sim.run()
    sim.spawn(bad("orphaned"))
    with pytest.raises(ValueError, match="orphaned"):
        sim.run()


def test_finished_processes_are_not_retained():
    import gc
    import weakref

    sim = Simulation()

    def worker(delay):
        yield sim.timeout(delay)

    refs = [weakref.ref(sim.spawn(worker(i % 7))) for i in range(10_000)]
    sim.run()
    gc.collect()
    assert not any(ref() is not None for ref in refs)


def test_event_ok_before_trigger_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError, match="not yet triggered"):
        _ = Event(sim).ok


def test_yielding_another_simulations_event_fails_process():
    sim, other = Simulation(), Simulation()

    def bad():
        yield other.timeout(1.0)

    sim.spawn(bad())
    with pytest.raises(SimulationError, match="another simulation"):
        sim.run()


def test_step_refuses_to_move_the_clock_backwards():
    sim = Simulation()
    sim.timeout(1.0)
    sim.clock.advance_to(5.0)  # moved from outside, as fleet.py does
    with pytest.raises(SimulationError, match="backwards"):
        sim.step()
    assert sim.now == 5.0


def test_late_waiter_on_a_dispatched_event_still_resumes():
    sim = Simulation()
    log = []

    def quick():
        yield sim.timeout(1.0)
        return "done"

    def late(child):
        yield sim.timeout(3.0)
        log.append((sim.now, (yield child)))

    sim.spawn(late(sim.spawn(quick())))
    sim.run()
    assert log == [(3.0, "done")]
