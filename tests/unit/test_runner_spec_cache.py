"""Unit tests for repro.runner: spec hashing, the on-disk result
cache, report round-tripping, and the CLI's knob parsing."""

import json
import os

import pytest

import repro
from repro.core.experiments import Figure1Result, Figure2Result
from repro.core.profiler import EnergyProfile, ProfilePoint
from repro.runner import (
    ExperimentDef,
    ExperimentSpec,
    ResultCache,
    Runner,
    SpecError,
    UnknownExperimentError,
    decode_report,
    encode_report,
    point_key,
    register_experiment,
)
from repro.runner.cli import main, parse_knob_args, parse_knob_value
from repro.runner.spec import canonical_json
from repro.workloads.duty_cycle import DutyCycleReport
from repro.workloads.scan_workload import ScanReport
from repro.workloads.throughput import ThroughputReport


def toy_point(x, factor=2.0, seed=2009):
    """A picklable toy experiment: no simulation, instant reports."""
    return ThroughputReport(streams=1, queries_completed=1,
                            makespan_seconds=float(x),
                            energy_joules=float(x) * factor + seed * 0.0)


register_experiment(ExperimentDef(
    name="unit_toy", title="toy experiment for unit tests",
    point_fn=toy_point, defaults={"x": [1, 2], "factor": 2.0}))


class TestSpecHashing:
    def test_same_spec_same_key(self):
        a = ExperimentSpec("fig2", knobs={"scale_factor": 0.001,
                                          "dvfs_fraction": 1.0})
        b = ExperimentSpec("fig2", knobs={"dvfs_fraction": 1.0,
                                          "scale_factor": 0.001})
        assert a.spec_hash() == b.spec_hash()

    def test_defaults_spelled_out_hash_the_same(self):
        assert (ExperimentSpec("fig2").spec_hash()
                == ExperimentSpec(
                    "fig2", knobs={"scale_factor": 0.002}).spec_hash())

    def test_knob_change_new_key(self):
        base = ExperimentSpec("fig2").spec_hash()
        assert ExperimentSpec(
            "fig2", knobs={"scale_factor": 0.001}).spec_hash() != base
        assert ExperimentSpec("fig2", seed=7).spec_hash() != base

    def test_tuple_and_list_sweeps_are_equivalent(self):
        assert (ExperimentSpec("unit_toy", knobs={"x": (1, 2)}).spec_hash()
                == ExperimentSpec("unit_toy",
                                  knobs={"x": [1, 2]}).spec_hash())

    def test_non_json_knob_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec("unit_toy", knobs={"x": object()})
        with pytest.raises(SpecError):
            ExperimentSpec("unit_toy", knobs={"x": []})

    def test_round_trip(self):
        spec = ExperimentSpec("unit_toy", knobs={"x": [3, 4]}, seed=11)
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperimentError):
            ExperimentSpec("nope").points()


class TestPointGrid:
    def test_grid_expansion_order(self):
        spec = ExperimentSpec("unit_toy", knobs={"x": [1, 2],
                                                 "factor": [0.5, 1.5]})
        points = spec.points()
        # axes expand in sorted knob-name order: factor before x
        assert [(p["factor"], p["x"]) for p in points] == \
            [(0.5, 1), (0.5, 2), (1.5, 1), (1.5, 2)]

    def test_scalar_knobs_give_one_point(self):
        spec = ExperimentSpec("unit_toy", knobs={"x": 5})
        assert spec.points() == [{"x": 5, "factor": 2.0}]

    def test_point_seed_default_and_override(self):
        spec = ExperimentSpec("unit_toy", knobs={"x": 1}, seed=42)
        assert spec.point_seed(spec.points()[0]) == 42
        pinned = ExperimentSpec("unit_toy",
                                knobs={"x": 1, "seed": 7}, seed=42)
        assert pinned.point_seed(pinned.points()[0]) == 7


class TestResultCache:
    def test_point_key_version_sensitivity(self):
        knobs = {"x": 1}
        k1 = point_key("unit_toy", knobs, 2009, version="1.0.0")
        assert k1 == point_key("unit_toy", knobs, 2009, version="1.0.0")
        assert k1 != point_key("unit_toy", knobs, 2009, version="2.0.0")
        assert k1 != point_key("unit_toy", {"x": 2}, 2009,
                               version="1.0.0")
        assert k1 != point_key("unit_toy", knobs, 7, version="1.0.0")

    def test_put_get_clear_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = point_key("unit_toy", {"x": 1}, 2009, version="v")
        assert cache.get(key) is None
        cache.put(key, {"hello": 1})
        assert key in cache
        assert cache.get(key) == {"hello": 1}
        stats = cache.stats()
        assert stats.entries == 1 and stats.total_bytes > 0
        assert cache.clear() == 1
        assert cache.get(key) is None
        assert cache.stats().entries == 0

    #: entry texts no run could have written
    UNREADABLE = ["{not json", "[" * 100_000, "[1, 2]", '"text"', "null",
                  ""]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = point_key("unit_toy", {"x": 1}, 2009, version="v")
        cache.put(key, {"ok": True})
        path = cache._path(key)
        for text in self.UNREADABLE:
            path.write_text(text)
            assert cache.get(key) is None, text[:20]
        path.write_bytes(b"\xff\xfe{}")
        assert cache.get(key) is None

    def test_unreadable_entry_resimulates_and_heals(self, tmp_path):
        """A nest deeper than the decoder's stack is a miss like any
        other unreadable entry — it used to be a ``RecursionError``
        straight through ``Runner.run``."""
        spec = ExperimentSpec("unit_toy")
        cache = ResultCache(tmp_path / "c")
        first = Runner(workers=1, cache=cache).run(spec)
        key = point_key("unit_toy", spec.points()[1], spec.seed)
        cache._path(key).write_text("[" * 100_000)
        again = Runner(workers=1, cache=cache).run(spec)
        assert [p.cache_hit for p in again.points] == [True, False]
        assert again.to_json() == first.to_json()
        assert Runner(workers=1, cache=cache).run(spec).cache_hits == 2

    def test_entry_bytes_are_canonical_json(self, tmp_path):
        """An entry is the payload's canonical JSON (the form
        ``stable_hash`` hashes), so a field's stored text is the text a
        run JSON carries for it."""
        payload = {
            "z": [0.1, 1e-300, 1.5e300, -0.0, 3, 2 ** 70],
            "a": {"nan": float("nan"), "inf": float("inf"),
                  "ninf": float("-inf"), "none": None,
                  "yes": True, "no": False},
            "text": "Grüße, 世界 \u2028 \"quoted\" \\ \n",
            "m": {"b": {"d": [[], {}, [{"y": 1, "x": [2.5]}]], "c": 1}},
        }
        cache = ResultCache(tmp_path / "c")
        key = point_key("unit_toy", {"x": 1}, 2009, version="v")
        cache.put(key, payload)
        assert (cache._path(key).read_bytes()
                == canonical_json(payload).encode("utf-8"))

    def test_put_temp_is_writer_unique_and_removed_on_failure(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c")
        key = point_key("unit_toy", {"x": 1}, 2009, version="v")
        shard = cache._path(key).parent
        replaced = []

        def failing_replace(src, dst):
            replaced.append(os.fspath(src))
            assert os.path.dirname(src) == os.fspath(shard)
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", failing_replace)
            for _ in range(2):
                with pytest.raises(OSError, match="disk full"):
                    cache.put(key, {"ok": True})
        # two writers of one key never share a temp file ...
        assert len(set(replaced)) == 2
        # ... and a failed write leaves nothing behind
        assert list(shard.iterdir()) == []
        with pytest.raises(TypeError):
            cache.put(key, {"bad": object()})
        assert list(shard.iterdir()) == []
        cache.put(key, {"ok": True})
        assert [p.name for p in shard.iterdir()] == [f"{key}.json"]

    def test_clear_sweeps_stale_temp_files(self, tmp_path):
        """A killed writer's temp file (either naming scheme) goes with
        ``clear()``, and so does its shard directory."""
        cache = ResultCache(tmp_path / "c")
        key = point_key("unit_toy", {"x": 1}, 2009, version="v")
        cache.put(key, {"ok": True})
        shard = cache._path(key).parent
        (shard / f"{key}.tmp").write_text("{")
        (shard / f"{key}.0123abcd.tmp").write_text("{")
        orphan = cache.root / "zz"
        orphan.mkdir()
        (orphan / "only.tmp").write_text("")
        assert cache.stats().entries == 1
        assert cache.clear() == 1
        assert list(cache.root.iterdir()) == []

    def test_runner_hits_then_version_bump_invalidates(
            self, tmp_path, monkeypatch):
        spec = ExperimentSpec("unit_toy")
        cache = tmp_path / "c"
        first = Runner(workers=1, cache=cache).run(spec)
        assert first.cache_hits == 0
        second = Runner(workers=1, cache=cache).run(spec)
        assert second.cache_hits == len(second.points) == 2
        assert second.to_json() == first.to_json()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        bumped = Runner(workers=1, cache=cache).run(spec)
        assert bumped.cache_hits == 0

    @pytest.mark.parametrize("corrupt", [
        lambda p: p["report"].update(data=[1, 2, 3]),
        lambda p: p["report"]["data"].pop("energy_joules"),
        lambda p: p["report"]["data"].update(joules_per_parsec=1.0),
        lambda p: p["report"]["data"].update(query_seconds={"a": 1}),
        lambda p: p["report"].update(type="NoSuchReport"),
        lambda p: p.update(report=["ThroughputReport"]),
        lambda p: p.pop("joules"),
    ], ids=["list-for-object", "missing-key", "unknown-key",
            "object-for-list", "unknown-type", "untyped-report",
            "no-joules"])
    def test_wrong_shaped_entry_resimulates(self, tmp_path, corrupt):
        """Valid JSON of the wrong shape is a miss, not a traceback:
        the point re-simulates and the entry is overwritten."""
        spec = ExperimentSpec("unit_toy")
        cache = ResultCache(tmp_path / "c")
        first = Runner(workers=1, cache=cache).run(spec)
        key = point_key("unit_toy", spec.points()[0], spec.seed)
        payload = cache.get(key)
        corrupt(payload)
        cache.put(key, payload)
        again = Runner(workers=1, cache=cache).run(spec)
        assert [p.cache_hit for p in again.points] == [False, True]
        assert again.to_json() == first.to_json()
        healed = Runner(workers=1, cache=cache).run(spec)
        assert healed.cache_hits == 2


class TestReportRoundTrip:
    CASES = [
        ThroughputReport(streams=2, queries_completed=4,
                         makespan_seconds=1.5, energy_joules=30.0,
                         breakdown_joules={"cpu": 20.0, "disk": 10.0},
                         query_seconds=[0.5, 1.0]),
        ScanReport(compressed=True, total_seconds=5.5, cpu_seconds=5.1,
                   io_seconds=4.0, energy_joules=487.0,
                   full_energy_joules=600.0, bytes_read=2.4e9,
                   compression_ratio=0.5),
        DutyCycleReport(kind="real", utilization=0.5,
                        window_seconds=100.0, average_watts=150.0,
                        work_seconds=50.0),
        EnergyProfile(knob_name="disks",
                      points=[ProfilePoint(36, 10.0, 100.0, 3.0)]),
    ]

    @pytest.mark.parametrize("report", CASES,
                             ids=lambda r: type(r).__name__)
    def test_encode_decode(self, report):
        payload = encode_report(report)
        json.dumps(payload)   # JSON-safe all the way down
        again = decode_report(payload)
        assert type(again) is type(report)
        assert again.to_dict() == report.to_dict()

    def test_figure_results_round_trip(self):
        tr = self.CASES[0]
        fig1 = Figure1Result(disk_counts=[36], reports=[tr])
        again = decode_report(encode_report(fig1))
        assert again.to_dict() == fig1.to_dict()
        assert again.profile.points[0].energy_joules == 30.0
        sr = self.CASES[1]
        fig2 = Figure2Result(uncompressed=sr, compressed=sr)
        assert decode_report(
            encode_report(fig2)).to_dict() == fig2.to_dict()


class TestRunnerToy:
    def test_grid_order_and_profile(self, tmp_path):
        spec = ExperimentSpec("unit_toy", knobs={"x": [3, 1, 2]})
        run = Runner(workers=1, cache=False).run(spec)
        assert [p.knobs["x"] for p in run.points] == [3, 1, 2]
        assert [p.report.makespan_seconds for p in run.points] == \
            [3.0, 1.0, 2.0]
        profile = run.aggregate()     # no aggregator -> EnergyProfile
        assert profile.knob_name == "x"
        assert [p.knob_value for p in profile.points] == [3, 1, 2]

    def test_events_are_streamed(self, tmp_path):
        from repro.runner import (PointFinished, PointStarted,
                                  RunFinished, RunStarted)
        events = []
        spec = ExperimentSpec("unit_toy")
        Runner(workers=1, cache=tmp_path / "c",
               on_event=events.append).run(spec)
        kinds = [type(e) for e in events]
        assert kinds[0] is RunStarted and kinds[-1] is RunFinished
        assert kinds.count(PointStarted) == 2
        assert kinds.count(PointFinished) == 2
        assert not any(e.cache_hit for e in events
                       if isinstance(e, PointFinished))
        events.clear()
        Runner(workers=1, cache=tmp_path / "c",
               on_event=events.append).run(spec)
        finished = [e for e in events if isinstance(e, PointFinished)]
        assert all(e.cache_hit for e in finished)

    def test_run_result_round_trip(self):
        from repro.runner import RunResult
        run = Runner(workers=1, cache=False).run(
            ExperimentSpec("unit_toy"))
        again = RunResult.from_dict(json.loads(run.to_json()))
        assert again.to_json() == run.to_json()

    def test_workers_validation(self):
        with pytest.raises(Exception):
            Runner(workers=0)

    def test_unknown_knob_fails_fast(self):
        from repro.runner import UnknownKnobError
        with pytest.raises(UnknownKnobError, match="scale_facter"):
            Runner(workers=1, cache=False).run(
                ExperimentSpec("fig2", knobs={"scale_facter": 0.001}))


class TestCli:
    def test_parse_knob_value(self):
        assert parse_knob_value("36") == 36
        assert parse_knob_value("0.5") == 0.5
        assert parse_knob_value("true") is True
        assert parse_knob_value("null") is None
        assert parse_knob_value("36,66") == [36, 66]
        assert parse_knob_value("delta") == "delta"

    def test_parse_knob_args(self):
        knobs = parse_knob_args(["--disks", "36,66",
                                 "--queries-per-stream", "3",
                                 "--codec=delta"])
        assert knobs == {"disks": [36, 66], "queries_per_stream": 3,
                         "codec": "delta"}
        with pytest.raises(Exception):
            parse_knob_args(["--disks"])
        with pytest.raises(Exception):
            parse_knob_args(["disks", "36"])

    def test_run_json_and_cache_commands(self, tmp_path, capsys):
        cache = str(tmp_path / "c")
        rc = main(["run", "unit_toy", "--x", "1,2", "--quiet",
                   "--json", "--cache", cache])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spec"]["experiment"] == "unit_toy"
        assert len(out["points"]) == 2
        assert main(["cache", "stats", "--cache", cache]) == 0
        assert "entries    : 2" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache", cache]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_list_and_unknown_experiment(self, capsys):
        assert main(["list"]) == 0
        assert "fig1" in capsys.readouterr().out
        assert main(["run", "nope", "--quiet"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        assert main(["run", "fig2", "--scale-facter", "0.001",
                     "--quiet"]) == 2
        assert "unknown knob" in capsys.readouterr().err
