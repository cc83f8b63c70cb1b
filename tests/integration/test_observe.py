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
    ResultCache,
    Runner,
    RunFinished,
    RunResult,
    point_key,
)
from repro.runner.cli import main as cli_main
from repro.runner.spec import canonical_json
from repro.service.report import ServiceError
from repro.telemetry import TelemetryTrace

#: two tiny serving points: enough to make ``workers=2`` use the pool
TINY_SVC = ExperimentSpec("svc_smoke", knobs={
    "policy": ["round_robin", "power_aware"], "queries": 1_500})


class TestBothObserversThroughTheRunner:
    @pytest.fixture(scope="class")
    def both(self):
        return Runner(cache=False, trace=True, record=True).run(TINY_SVC)

    def test_pool_run_is_byte_identical_to_serial(self, both):
        pooled = Runner(workers=2, cache=False, trace=True,
                        record=True).run(TINY_SVC)
        assert pooled.to_json() == both.to_json()

    def test_reports_equal_the_plain_run(self, both):
        plain = Runner(cache=False).run(TINY_SVC)
        assert [p.report.to_dict() for p in both.points] == \
            [p.report.to_dict() for p in plain.points]
        assert all(p.observed == {} for p in plain.points)

    def test_both_wire_keys_present_and_round_trip(self, both):
        for p in both.points:
            assert list(p.observed) == list(repro.observe.KINDS)
            assert isinstance(p.telemetry, TelemetryTrace)
            assert isinstance(p.recording, FlightRecording)
            assert {"telemetry", "flightrec"} <= p.to_dict().keys()
        again = RunResult.from_dict(json.loads(both.to_json()))
        assert again.to_json() == both.to_json()

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


class TestDecodeOnRead:
    """A point computed in this run keeps each observation as the
    payload dict its worker harvested and decodes it on first read; a
    cache hit decodes each once, when it is read, as its shape check."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        decode = repro.observe.decode

        def counted(kind, data):
            calls.append(kind)
            return decode(kind, data)

        monkeypatch.setattr(repro.observe, "decode", counted)
        return calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_run_and_its_json_decode_nothing(self, tmp_path, decodes,
                                                  workers):
        run = Runner(workers=workers, cache=tmp_path / "c", trace=True,
                     record=True).run(TINY_SVC)
        assert canonical_json(run.to_dict()) == run.to_json()
        assert decodes == []

    def test_first_read_decodes_once_and_keeps_it(self, decodes):
        point = Runner(cache=False, trace=True,
                       record=True).run(TINY_SVC).points[1]
        recording = point.recording
        assert isinstance(recording, FlightRecording)
        assert decodes == ["flightrec"]
        assert point.recording is recording
        assert list(point.observed) == list(repro.observe.KINDS)
        assert point.observed["flightrec"] is recording
        assert decodes == ["flightrec", "telemetry"]

    def test_all_hit_warm_run_decodes_each_observation_once(
            self, tmp_path, decodes):
        runner = Runner(cache=tmp_path / "c", trace=True, record=True)
        cold = runner.run(TINY_SVC)
        warm = runner.run(TINY_SVC)
        assert warm.cache_hits == 2
        assert warm.to_json() == cold.to_json()
        for point in warm.points:
            assert isinstance(point.recording, FlightRecording)
            assert isinstance(point.telemetry, TelemetryTrace)
        assert sorted(decodes) == sorted(repro.observe.KINDS * 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_computed_point_equals_its_hit_before_and_after_reads(
            self, tmp_path, workers):
        runner = Runner(workers=workers, cache=tmp_path / "c", trace=True,
                        record=True)
        cold = runner.run(TINY_SVC).points
        warm = runner.run(TINY_SVC).points
        assert [p.cache_hit for p in cold + warm] == [False] * 2 + [True] * 2

        def same():
            for computed, hit in zip(cold, warm):
                assert computed == hit
                assert computed.to_dict() == hit.to_dict()

        same()
        for point in cold:
            assert point.observed
        same()
        for point in warm:
            assert point.observed
        same()


def test_healed_hits_are_counted(tmp_path, capsys):
    """An entry that reads but is the wrong shape, or the wrong point,
    is re-simulated and rewritten: the run counts it, and the CLI line
    says so only when the count is not zero."""
    argv = ["run", "svc_smoke", "--policy", "round_robin", "--queries",
            "500", "--record", "--cache", str(tmp_path / "c")]
    spec = ExperimentSpec("svc_smoke", knobs={
        "policy": "round_robin", "queries": 500})
    cache = ResultCache(tmp_path / "c")
    key = point_key("svc_smoke", spec.points()[0], spec.seed,
                    observe=("flightrec",))
    events = []
    runner = Runner(cache=cache, record=True, on_event=events.append)
    runner.run(spec)
    stored = cache.get(key)
    for bad in ({**stored, "flightrec": []}, {**stored, "seed": -1}):
        cache.put(key, bad)
        runner.run(spec)
    runner.run(spec)
    assert [e.healed for e in events if isinstance(e, RunFinished)] == \
        [0, 1, 1, 0]

    cache.put(key, {**stored, "flightrec": {"x": 1}})
    assert cli_main(argv) == 0
    assert cli_main(argv) == 0
    healed, clean = [line for line in capsys.readouterr().err.splitlines()
                     if line.startswith("run svc_smoke: 1 point(s) in")]
    assert healed.endswith(" (0 cache hit(s)) (1 healed)")
    assert clean.endswith(" (1 cache hit(s))")
