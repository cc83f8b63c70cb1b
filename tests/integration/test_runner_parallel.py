"""Integration tests for the parallel runner: a pooled Figure 1 sweep
must be bit-identical to the serial one, and repeats must be 100%
cache hits; the worker that computed a point stores it; a worker that
dies ends the run in one error, never a hang."""

import json
import os
import subprocess
import sys
import textwrap

from repro.runner import ExperimentSpec, ResultCache, Runner, point_key
from repro.runner.spec import canonical_json
from repro.workloads.scan_workload import run_scan

#: the tiny Figure 1 settings the experiments-API tests already use
TINY_FIG1 = {
    "disks": [6, 24],
    "streams": 2,
    "queries_per_stream": 1,
    "physical_scale_factor": 0.0005,
    "logical_scale_factor": 1.0,
    "spindle_groups": 6,
}


class TestParallelDeterminism:
    def test_parallel_fig1_bit_identical_then_fully_cached(
            self, tmp_path):
        spec = ExperimentSpec("fig1", knobs=TINY_FIG1)
        serial = Runner(workers=1, cache=False).run(spec)
        parallel = Runner(workers=4, cache=tmp_path / "cache").run(spec)
        # byte-identical serialized output, pool or no pool
        assert parallel.to_json() == serial.to_json()
        assert parallel.cache_hits == 0
        # second invocation of the same spec: 100% cache hits...
        again = Runner(workers=4, cache=tmp_path / "cache").run(spec)
        assert again.cache_hits == len(again.points) == 2
        assert all(p.cache_hit for p in again.points)
        # ...and still the same bytes
        assert again.to_json() == serial.to_json()

    def test_parallel_scan_grid_matches_direct_calls(self, tmp_path):
        spec = ExperimentSpec("scan", knobs={
            "compressed": [False, True],
            "scale_factor": 0.001,
        })
        run = Runner(workers=2, cache=tmp_path / "cache").run(spec)
        for point in run.points:
            direct = run_scan(compressed=point.knobs["compressed"],
                              scale_factor=0.001)
            assert point.report.to_dict() == direct.to_dict()


#: four cheap points, so a two-worker pool has something to reorder
DUTY = {"utilization": [0.25, 0.5, 0.75, 1.0], "window_seconds": 10.0}


def _keys(spec, observe=()):
    return [point_key(spec.experiment, point, spec.point_seed(point),
                      observe=observe) for point in spec.points()]


def _entries(cache):
    """Decoded entries by key, the one host-dependent field masked."""
    out = {}
    for path in cache._entries():
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload.pop("host_seconds") >= 0.0
        out[path.stem] = payload
    return out


class TestPoolTransport:
    """The process that computed a point writes its entry."""

    def test_pooled_cold_run_stores_exactly_the_pending_keys(
            self, tmp_path):
        spec = ExperimentSpec("proportionality", knobs=DUTY)
        cache = ResultCache(tmp_path / "cache")
        cold = Runner(workers=2, cache=cache).run(spec)
        assert cold.cache_hits == 0
        assert sorted(_entries(cache)) == sorted(_keys(spec))
        assert not list(cache.root.glob("??/*.tmp"))
        warm = Runner(workers=2, cache=cache).run(spec)
        assert warm.cache_hits == len(warm.points) == 4
        assert warm.to_json() == cold.to_json()

    def test_serial_and_pooled_runs_leave_the_same_entries(
            self, tmp_path):
        spec = ExperimentSpec("proportionality", knobs=DUTY)
        serial = ResultCache(tmp_path / "serial")
        pooled = ResultCache(tmp_path / "pooled")
        a = Runner(workers=1, cache=serial).run(spec)
        b = Runner(workers=2, cache=pooled).run(spec)
        assert a.to_json() == b.to_json()
        assert _entries(serial) == _entries(pooled)
        assert len(_entries(pooled)) == 4

    def test_pool_without_a_cache_writes_nothing(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        run = Runner(workers=2, cache=False).run(
            ExperimentSpec("proportionality", knobs=DUTY))
        assert len(run.points) == 4 and run.cache_hits == 0
        assert list(tmp_path.iterdir()) == []

    def test_partially_warm_sweep_computes_and_stores_its_misses(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        half = ExperimentSpec("proportionality", knobs={
            **DUTY, "utilization": DUTY["utilization"][:2]})
        Runner(workers=2, cache=cache).run(half)
        before = {p.stem: p.stat().st_ino for p in cache._entries()}
        assert sorted(before) == sorted(_keys(half))
        spec = ExperimentSpec("proportionality", knobs=DUTY)
        run = Runner(workers=2, cache=cache).run(spec)
        assert [p.cache_hit for p in run.points] == \
            [True, True, False, False]
        after = {p.stem: p.stat().st_ino for p in cache._entries()}
        assert sorted(after) == sorted(_keys(spec))
        # the two warm entries were not rewritten
        assert {k: after[k] for k in before} == before
        assert run.to_json() == Runner(workers=1, cache=False).run(
            spec).to_json()

    def test_recorded_point_entry_is_canonical_json(self, tmp_path):
        """The real thing: a flight-recorded ``svc_smoke`` point's
        entry is byte for byte its payload's canonical JSON."""
        spec = ExperimentSpec("svc_smoke", knobs={
            "policy": ["round_robin", "power_aware"], "queries": 2000})
        cache = ResultCache(tmp_path / "cache")
        run = Runner(workers=2, cache=cache, record=True).run(spec)
        assert all(p.recording is not None for p in run.points)
        entries = cache._entries()
        assert sorted(p.stem for p in entries) == \
            sorted(_keys(spec, observe=("flightrec",)))
        for path in entries:
            text = path.read_text(encoding="utf-8")
            payload = json.loads(text)
            assert payload["flightrec"]["events"]
            assert text == canonical_json(payload)


#: registers an experiment whose negative points kill their process
#: (two of them: a lone pending point would run inline and take the
#: script with it), then drives it through the library, the CLI, and a
#: clean rerun
KILLER = textwrap.dedent("""
    import os
    import sys

    from repro.errors import ReproError
    from repro.runner import (ExperimentDef, ExperimentSpec, Runner,
                              register_experiment)
    from repro.runner.cli import main
    from repro.workloads.throughput import ThroughputReport


    def point(x):
        if x < 0:
            os._exit(1)
        return ThroughputReport(streams=1, queries_completed=1,
                                makespan_seconds=float(x),
                                energy_joules=2.0 * x)


    register_experiment(ExperimentDef(
        name="killer", title="a point that kills its worker",
        point_fn=point, defaults={"x": [1, 2, -1, 3, 4, -2]}))
    cache = sys.argv[1]
    try:
        Runner(workers=2, cache=cache).run(ExperimentSpec("killer"))
    except ReproError as exc:
        print("raised:", exc)
    print("rc:", main(["run", "killer", "--workers", "2", "--quiet",
                       "--cache", cache]))
    clean = Runner(workers=2, cache=cache).run(
        ExperimentSpec("killer", knobs={"x": [1, 2, 3, 4]}))
    print("clean:", [p.report.makespan_seconds for p in clean.points])
""")


class TestWorkerDeath:
    def test_dead_worker_is_one_error_not_a_hang(self, tmp_path):
        """``multiprocessing.Pool`` replaced a dead worker and dropped
        its task, so the run waited forever.  In a subprocess with a
        hard timeout: a regression fails here instead of hanging the
        suite."""
        script = tmp_path / "killer.py"
        script.write_text(KILLER)
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "cache")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        out = done.stdout.splitlines()
        assert out[0].startswith("raised: a pool worker died")
        assert "points still pending" in out[0]
        assert out[1] == "rc: 2"
        assert out[2] == "clean: [1.0, 2.0, 3.0, 4.0]"
        errors = [line for line in done.stderr.splitlines() if line]
        assert len(errors) == 1 and errors[0].startswith(
            "error: a pool worker died"), done.stderr


class TestAggregation:
    def test_fig1_points_carry_their_reports(self, tmp_path):
        run = Runner(workers=2, cache=tmp_path / "cache").run(
            ExperimentSpec("fig1", knobs=TINY_FIG1))
        assert [p.knobs["disks"] for p in run.points] == [6, 24]
        fastest = min(run.points, key=lambda p: p.report.makespan_seconds)
        assert fastest.knobs["disks"] == 24
        assert [p.sim_seconds for p in run.points] == \
            [r.makespan_seconds for r in run.reports]

    def test_proportionality_profile_fallback(self, tmp_path):
        run = Runner(workers=2, cache=tmp_path / "cache").run(
            ExperimentSpec("proportionality", knobs={
                "utilization": [0.5, 1.0],
                "window_seconds": 10.0,
            }))
        watts = [p.joules / p.sim_seconds for p in run.points]
        assert watts[1] > watts[0] > 0
