"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repo
root; tier-1 (``testpaths = tests``) does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from pathlib import Path

import pytest

from perfbench import cli, harness
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS
from perfbench.spans import Tracer

NAMES = [name for name, _why in WORKLOADS]


@pytest.fixture(scope="module")
def quick_suite(tmp_path_factory):
    """The ``--quick`` suite, run once: (result dict, elapsed seconds)."""
    out = tmp_path_factory.mktemp("suite") / "result.json"
    started = time.perf_counter()
    status = cli.main(["--quick", "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert status == 0
    return json.loads(out.read_text()), elapsed


@pytest.fixture(scope="module")
def quick_traces():
    """A quick traced run of every workload (writes the span files)."""
    expected = harness.load_expected()
    return {name: harness.run_workload(name, harness.DEFAULT_SEED, 1.0,
                                       trace=True, quick=True,
                                       expected=expected)
            for name in NAMES}


def test_quick_suite_exercises_all_six_workloads(quick_suite):
    result, elapsed = quick_suite
    assert elapsed < 20.0
    assert list(result["workloads"]) == sorted(NAMES)
    for name in NAMES:
        (run,) = result["workloads"][name]["runs"]
        assert run["failed"] == 0 and run["attempted"] >= 1, run["failures"]
        for metric in END_TO_END:
            assert run["metrics"][metric.name]["value"] > 0


def test_metric_names_are_well_formed():
    names = [m.name for m in (*END_TO_END, *PER_LAYER)] + NAMES
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(PER_LAYER) <= 128
    assert all(m.moves and m.on for m in PER_LAYER
               if not m.name.startswith("harness."))


def test_benchmark_json_equals_the_registry():
    spec = json.loads(cli.BENCHMARK_JSON.read_text())
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["workloads"] == [{"name": name, "why": why}
                                 for name, why in WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


def test_traced_run_reports_every_layer_metric(quick_traces):
    for name, outcome in quick_traces.items():
        assert outcome.failed == 0, outcome.failures
        reported = outcome.contract()["metrics"]
        assert list(reported) == [m.name for m in PER_LAYER]
        assert reported["harness.trace_overhead_ratio"]["value"] > 0
    fig1 = quick_traces["des_fig1"].metrics
    assert fig1["sim.events"].value > 1000
    assert quick_traces["fleet_event"].metrics[
        "service.engine.event_share"].value == 1.0
    assert quick_traces["sweep_transport"].metrics[
        "runner.cache.hit_share"].value == 1.0


def test_span_self_times_sum_to_the_root_span(quick_traces):
    for name in NAMES:
        trace = json.loads((harness.OUT / f"trace-{name}.json").read_text())
        spans = trace["spans"]
        (root,) = [s for s in spans if s["parent"] is None]
        assert root["name"] == "job"
        assert all(s["workload"] == name for s in spans)
        total = sum(s["self_s"] for s in spans)
        assert total == pytest.approx(root["end"] - root["start"], rel=0.01)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer("w", 0)
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    tracer.spans[0][1:3] = [0.0, 10.0]
    tracer.spans[1][1:3] = [1.0, 7.0]
    tracer.spans[2][1:3] = [2.0, 4.0]
    assert tracer.self_times() == [4.0, 4.0, 2.0]
    assert tracer.total("c", under="a") == 2.0
    assert tracer.count("c", under="c") == 0


def test_des_fig1_composition_is_digest_identical_to_figure1_point(tmp_path):
    from repro.core.experiments import figure1_point
    from repro.runner.spec import canonical_json

    from perfbench.workloads import Job, des_fig1

    divisor = harness.QUICK_DIVISOR
    job = Job(seed=7, divisor=divisor, tracer=Tracer("des_fig1", 0),
              scratch=tmp_path)
    des_fig1(job)
    report = figure1_point(
        66, streams=3, queries_per_stream=1, seed=7,
        physical_scale_factor=0.002 / divisor,
        logical_scale_factor=300.0 / divisor)
    text = canonical_json(report.to_dict())
    assert job.checks == {
        "report.fig1_66": hashlib.sha256(text.encode()).hexdigest()}


def test_safe_epoch_keeps_every_last_boundary_a_boot_window_from_the_end():
    from perfbench.workloads import safe_epoch_seconds

    assert safe_epoch_seconds(20.0, 25.0, 299.0) == 30.0
    durations = (287.6, 718.3, 1437.0, 4310.9, 17241.5)
    epoch = safe_epoch_seconds(20.0, *durations)
    assert epoch > 30.0
    assert all(d % epoch > 21.0 for d in durations)


def test_corrupted_expected_entry_fails_the_run(tmp_path, capsys):
    expected = harness.load_expected()
    expected["quick"]["des_scan"]["report.scan.plain"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    status = cli.main(["--workload", "des_scan", "--quick",
                       "--expected", str(corrupted)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert 0 < result["failed"] / result["attempted"] <= 1


def _result_file(path: Path, wall_rel: list[float]) -> Path:
    def stat(value):
        return {"value": value, "low": value, "high": value, "n": 1}
    runs = [{"seed": k, "attempted": 3, "failed": 0, "digests": {"r": "d"},
             "metrics": {m.name: stat(w if m.name == "wall_rel" else 5.0)
                         for m in END_TO_END}}
            for k, w in enumerate(wall_rel)]
    path.write_text(json.dumps({"workloads": {"des_scan": {"runs": runs}}}))
    return path


@pytest.mark.parametrize("scales, verdict, status", [
    ([1.01, 1.0, 1.02, 0.99], "ok", 0),
    ([2.01, 2.0, 2.02, 1.99], "worse", 1),     # bounds are at most 0.25
    ([0.5, 0.9, 1.4, 1.9], "unresolved", 0),   # spread wider than any bound
])
def test_compare_verdicts(tmp_path, capsys, scales, verdict, status):
    a = _result_file(tmp_path / "a.json", [10.0, 10.1, 9.9, 10.05])
    b = _result_file(tmp_path / "b.json", [10.0 * k for k in scales])
    assert cli.main(["compare", str(a), str(b)]) == status
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("des_scan") and " wall_rel " in line]
    assert f" {verdict} " in row
