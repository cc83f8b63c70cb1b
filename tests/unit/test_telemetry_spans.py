"""Unit tests for the telemetry span stack, the process-global
collector context, and the storage counter hooks."""

import pytest

from repro.errors import ReproError
from repro.sim import Simulation
from repro.storage.buffer import BufferPool
from repro.storage.wal import (
    FLUSH_OVERHEAD_BYTES,
    RECORD_OVERHEAD_BYTES,
    WriteAheadLog,
)
from repro.telemetry import SpanStack, TelemetryCollector, capture
from repro.observe import current_collector, installed, suspended


class TestSpanStack:
    def test_nesting_defaults_to_innermost_open(self):
        stack = SpanStack()
        a = stack.open("a", 0.0, {})
        b = stack.open("b", 1.0, {})
        assert b.parent is a
        assert a.children == [b]
        stack.close(b, 2.0, {})
        stack.close(a, 3.0, {})
        assert stack.roots == [a]
        assert (a.started_at, a.ended_at) == (0.0, 3.0)
        assert (b.started_at, b.ended_at) == (1.0, 2.0)

    def test_root_refuses_default_parent(self):
        stack = SpanStack()
        a = stack.open("a", 0.0, {})
        r = stack.open("r", 1.0, {}, root=True)
        assert r.parent is None
        assert stack.roots == [a, r]
        assert a.children == []

    def test_explicit_parent_beats_open_stack(self):
        stack = SpanStack()
        a = stack.open("a", 0.0, {})
        stack.open("b", 1.0, {})  # some other process's span
        c = stack.open("c", 2.0, {}, parent=a)
        assert c.parent is a
        assert c in a.children

    def test_non_lifo_close_is_tolerated(self):
        stack = SpanStack()
        a = stack.open("a", 0.0, {})
        b = stack.open("b", 1.0, {}, root=True)
        stack.close(a, 2.0, {})  # closes under b — fine
        stack.close(b, 3.0, {})
        assert a.closed and b.closed

    def test_close_errors(self):
        stack = SpanStack()
        a = stack.open("a", 5.0, {})
        with pytest.raises(ReproError):
            stack.close(a, 4.0, {})  # before it opened
        stack.close(a, 6.0, {})
        with pytest.raises(ReproError):
            stack.close(a, 7.0, {})  # twice
        with pytest.raises(ReproError):
            stack.open("b", 0.0, {}, parent=a)  # under a closed span

    def test_close_all_force_closes_everything(self):
        stack = SpanStack()
        stack.open("a", 0.0, {})
        stack.open("b", 1.0, {})
        stack.close_all(9.0, {"cpu": 4.0})
        a = stack.roots[0]
        assert a.closed and all(span.closed for span in a.children)
        assert stack.current is None

    def test_busy_delta(self):
        stack = SpanStack()
        a = stack.open("a", 0.0, {"cpu": 1.0})
        stack.close(a, 1.0, {"cpu": 3.5})
        assert a.busy_delta("cpu") == pytest.approx(2.5)
        assert a.busy_delta("missing") == 0.0


class TestContext:
    def test_off_by_default(self):
        assert current_collector() is None

    def test_capture_installs_and_uninstalls(self):
        with capture() as collector:
            assert current_collector() is collector
        assert current_collector() is None

    def test_captures_do_not_nest(self):
        with capture() as collector:
            with pytest.raises(ReproError, match="do not nest"):
                with installed("telemetry", TelemetryCollector()):
                    pass
            assert current_collector() is collector
        assert current_collector() is None

    def test_suspended_switches_off_and_back_on(self):
        with suspended("telemetry"):    # off already: stays off
            assert current_collector() is None
        with capture() as collector:
            with pytest.raises(ValueError):
                with suspended("telemetry"):
                    assert current_collector() is None
                    raise ValueError("boom")
            assert current_collector() is collector
        assert current_collector() is None

    def test_capture_uninstalls_on_error(self):
        with pytest.raises(ValueError):
            with capture():
                raise ValueError("boom")
        assert current_collector() is None


class TestStorageCounterHooks:
    def test_buffer_counters_only_while_captured(self):
        sim = Simulation()
        pool = BufferPool(sim, capacity_pages=1)
        pool.get("x")  # miss with telemetry off: no collector, no error
        with capture() as collector:
            pool.get("x")            # miss
            pool.put("x", b"page")
            pool.get("x")            # hit
            pool.put("y", b"page")   # evicts x
        assert collector.counters == {
            "buffer.miss": 1.0,
            "buffer.hit": 1.0,
            "buffer.eviction": 1.0,
        }

    def test_wal_counters(self):
        sim = Simulation()

        class NullDevice:
            def write(self, nbytes, stream=None):
                yield sim.timeout(0.001)

        with capture() as collector:
            wal = WriteAheadLog(sim, NullDevice())
            ack = wal.append(100)

            def driver():
                yield ack

            sim.run(until=sim.spawn(driver()))
        assert collector.counters["wal.flush"] == 1.0
        assert collector.counters["wal.bytes_flushed"] == (
            100 + RECORD_OVERHEAD_BYTES + FLUSH_OVERHEAD_BYTES)
