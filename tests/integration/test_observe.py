"""Integration tests for the one observer path (:mod:`repro.observe`):
both observers at once through the runner, the kind-keyed cache
identity, and the one decode rule for cached observations."""

import ast
import json
from pathlib import Path

import pytest

import repro.observe
from repro.flightrec import FlightRecording
from repro.runner import (
    ExperimentSpec,
    PointObserved,
    ResultCache,
    Runner,
    RunResult,
    point_key,
)
from repro.runner.cli import main as cli_main
from repro.service.report import ServiceError
from repro.telemetry import TelemetryTrace

#: two tiny serving points: enough to make ``workers=2`` use the pool
TINY_SVC = ExperimentSpec("svc_smoke", knobs={
    "policy": ["round_robin", "power_aware"], "queries": 1_500})


class TestBothObserversThroughTheRunner:
    @pytest.fixture(scope="class")
    def both(self):
        events = []
        run = Runner(cache=False, trace=True, record=True,
                     on_event=events.append).run(TINY_SVC)
        return run, events

    def test_pool_run_is_byte_identical_to_serial(self, both):
        pooled = Runner(workers=2, cache=False, trace=True,
                        record=True).run(TINY_SVC)
        assert pooled.to_json() == both[0].to_json()

    def test_reports_equal_the_plain_run(self, both):
        plain = Runner(cache=False).run(TINY_SVC)
        assert [p.report.to_dict() for p in both[0].points] == \
            [p.report.to_dict() for p in plain.points]
        assert all(p.observed == {} for p in plain.points)

    def test_both_wire_keys_present_and_round_trip(self, both):
        run, _ = both
        for p in run.points:
            assert list(p.observed) == list(repro.observe.KINDS)
            assert isinstance(p.telemetry, TelemetryTrace)
            assert isinstance(p.recording, FlightRecording)
            assert {"telemetry", "flightrec"} <= p.to_dict().keys()
        again = RunResult.from_dict(json.loads(run.to_json()))
        assert again.to_json() == run.to_json()

    def test_one_event_per_observation_in_kind_order(self, both):
        run, events = both
        seen = [e for e in events if isinstance(e, PointObserved)]
        assert [(e.index, e.kind) for e in seen] == [
            (0, "telemetry"), (0, "flightrec"),
            (1, "telemetry"), (1, "flightrec")]
        for e in seen:
            assert e.observation is run.points[e.index].observed[e.kind]

    def test_warm_run_hits_only_its_own_observer_set(self, tmp_path):
        cache = tmp_path / "c"
        cold = Runner(cache=cache, trace=True, record=True).run(TINY_SVC)
        warm = Runner(cache=cache, trace=True, record=True).run(TINY_SVC)
        assert warm.cache_hits == 2
        assert warm.to_json() == cold.to_json()
        for kwargs in ({}, {"trace": True}, {"record": True}):
            assert Runner(cache=cache, **kwargs).run(
                TINY_SVC).cache_hits == 0


class TestCacheIdentity:
    KNOBS = {"nodes": 8, "policy": "power_aware"}

    def test_every_observer_set_has_its_own_key(self):
        keys = {point_key("svc_smoke", self.KNOBS, 2009, observe=kinds)
                for kinds in ((), ("telemetry",), ("flightrec",),
                              ("telemetry", "flightrec"))}
        assert len(keys) == 4

    def test_unobserved_key_is_the_one_existing_caches_hold(self):
        # recorded from the code before observer kinds existed
        assert point_key("svc_smoke", self.KNOBS, 2009, version="pin") == (
            "4dcc636a09ad6da42949fbb3fb126d086e02a6de42c6e56df8a93f7970627b4a")


KIND_FLAG = {"telemetry": "trace", "flightrec": "record"}


@pytest.mark.parametrize("kind", repro.observe.KINDS)
@pytest.mark.parametrize("bad", [{}, [], {"x": 1}],
                         ids=["empty-object", "empty-list", "stray-key"])
def test_wrong_shaped_observation_resimulates(tmp_path, kind, bad):
    """One decode rule for both kinds: a cached observation that is not
    ``None`` is decoded, and one of the wrong shape is a miss that
    re-simulates and heals the entry.  (Every ``TelemetryTrace`` field
    has a default, so ``{}`` is the well-formed empty trace: a hit.)"""
    spec = ExperimentSpec("svc_smoke", knobs={
        "policy": "round_robin", "queries": 500})
    cache = ResultCache(tmp_path / "c")
    runner = Runner(cache=cache, **{KIND_FLAG[kind]: True})
    first = runner.run(spec)
    key = point_key("svc_smoke", spec.points()[0], spec.seed,
                    observe=(kind,))
    stored = cache.get(key)
    cache.put(key, {**stored, kind: bad})
    again = runner.run(spec)
    if (kind, bad) == ("telemetry", {}):
        assert again.cache_hits == 1
        assert again.points[0].telemetry == TelemetryTrace()
        return
    assert again.cache_hits == 0
    assert again.to_json() == first.to_json()
    assert cache.get(key)[kind] == stored[kind]
    assert runner.run(spec).cache_hits == 1


def test_observe_is_a_leaf_module():
    """Engine modules import the switch at module level, so it must not
    import the package back (``start`` / ``decode`` import lazily)."""
    tree = ast.parse(Path(repro.observe.__file__).read_text())
    imported = [alias.name if isinstance(node, ast.Import) else node.module
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert imported
    assert not [name for name in imported if name.startswith("repro")]


@pytest.mark.parametrize("flag", ["--trace", "--record"])
def test_engine_calibration_refuses_an_observer(flag, capsys):
    spec = ExperimentSpec("svc_mega_calibration",
                          knobs={"queries": 1_000, "nodes": 4})
    with pytest.raises(ServiceError, match="without --trace/--record"):
        Runner(cache=False, **{flag[2:]: True}).run(spec)
    assert cli_main(["run", "svc_mega_calibration", flag, "--no-cache",
                     "--quiet", "--queries", "1000", "--nodes", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
