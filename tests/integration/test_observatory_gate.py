"""End-to-end: record → gate → report through the CLI.

Covers the PR's acceptance loop: two identical fig2 runs produce zero
regressions, a +10% CPU active-power perturbation flags exactly the
energy-derived metrics, ``gate`` exits nonzero, and the ledger round
trips through ``report`` into a self-contained HTML dashboard.
"""

from __future__ import annotations

import json

import pytest

import repro.hardware.profiles as profiles
from repro.observatory import HistoryStore, cli

#: metrics fed by device power draw; everything else is pure timing
ENERGY_METRICS = {"joules", "watts", "joules_per_record",
                  "records_per_second_per_watt"}

FIG2_ARGS = ["--quiet", "--no-cache", "--scale_factor", "0.001"]


def _record(history, suite="it"):
    code = cli.main(["record", "fig2", "--history", str(history),
                     "--suite", suite, *FIG2_ARGS])
    assert code == 0


def _compare_json(capsys, history, suite="it"):
    capsys.readouterr()     # drain the record tables
    code = cli.main(["gate", "--history", str(history),
                     "--suite", suite, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == (1 if report["has_regressions"] else 0)
    return report


class TestIdenticalRuns:
    def test_two_identical_runs_have_zero_regressions(self, tmp_path,
                                                      capsys):
        _record(tmp_path)
        _record(tmp_path)
        report = _compare_json(capsys, tmp_path)
        assert report["counts"].get("regression", 0) == 0
        assert report["counts"].get("changed", 0) == 0
        assert report["counts"].get("missing", 0) == 0
        # both sweep points produced findings, all ok
        assert report["counts"]["ok"] > 0
        assert not report["has_regressions"]

    def test_gate_passes_on_identical_runs(self, tmp_path, capsys):
        _record(tmp_path)
        _record(tmp_path)
        assert cli.main(["gate", "--history", str(tmp_path),
                         "--suite", "it"]) == 0
        assert "gate: ok" in capsys.readouterr().err

    def test_first_run_is_new_not_a_failure(self, tmp_path, capsys):
        _record(tmp_path)
        report = _compare_json(capsys, tmp_path)
        assert set(report["counts"]) == {"new"}
        assert cli.main(["gate", "--history", str(tmp_path),
                         "--suite", "it"]) == 0


class TestEnergyPerturbation:
    @pytest.fixture()
    def perturbed_history(self, tmp_path, monkeypatch):
        """Two honest runs, then one with CPU active power +10%."""
        _record(tmp_path)
        _record(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(profiles, "FIG2_CPU_ACTIVE_WATTS",
                          profiles.FIG2_CPU_ACTIVE_WATTS * 1.10)
            _record(tmp_path)
        return tmp_path

    def test_flags_exactly_the_energy_metrics(self, perturbed_history,
                                              capsys):
        report = _compare_json(capsys, perturbed_history)
        flagged = {f["metric"] for f in report["findings"]
                   if f["verdict"] == "regression"}
        assert flagged == ENERGY_METRICS
        # timing and work counts are untouched by a power change
        ok = {f["metric"] for f in report["findings"]
              if f["verdict"] == "ok"}
        assert {"sim_seconds", "records",
                "records_per_second"} <= ok
        # ... and every sweep point of every energy metric regressed
        regressed_points = {(f["point"], f["metric"])
                            for f in report["findings"]
                            if f["verdict"] == "regression"}
        points = {f["point"] for f in report["findings"]}
        assert regressed_points == {(p, m) for p in points
                                    for m in ENERGY_METRICS}

    def test_gate_exits_nonzero(self, perturbed_history, capsys):
        assert cli.main(["gate", "--history", str(perturbed_history),
                         "--suite", "it"]) == 1
        captured = capsys.readouterr()
        assert "gate: FAIL" in captured.err
        assert "regression" in captured.out

    def test_median_baseline_survives_the_bad_append(
            self, perturbed_history, capsys):
        """One more honest run: the outlier is in history but the
        median baseline keeps the verdicts clean again."""
        _record(perturbed_history)
        report = _compare_json(capsys, perturbed_history)
        assert report["counts"].get("regression", 0) == 0


class TestReportRoundTrip:
    def test_ledger_renders_to_self_contained_html(self, tmp_path,
                                                   capsys):
        _record(tmp_path)
        _record(tmp_path)
        out = tmp_path / "dash.html"
        assert cli.main(["report", "--history", str(tmp_path),
                         "--out", str(out)]) == 0
        html = out.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "Suite: it" in html
        assert "<polyline" in html          # sparkline trend
        assert "Device power" in html       # telemetry timeline
        assert "http://" not in html and "<script" not in html

    def test_ledger_file_is_appendable_jsonl(self, tmp_path):
        _record(tmp_path)
        _record(tmp_path)
        store = HistoryStore(tmp_path)
        records = store.load("it")
        assert len(records) == 4            # 2 runs x 2 sweep points
        assert [r.seq for r in records] == [0, 1, 2, 3]
        assert all(r.spec_hash for r in records)
        lines = store.path("it").read_text().strip().splitlines()
        assert all(json.loads(ln) for ln in lines)


class TestNothingToCompare:
    """A mistyped history path or suite must not pass a gate that
    compared nothing."""

    @pytest.mark.parametrize("verb", ["gate", "report"])
    def test_missing_history_root_is_one_line(self, tmp_path, capsys,
                                              verb):
        missing = tmp_path / "nonexistent"
        assert cli.main([verb, "--history", str(missing)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and err.startswith("error:")
        assert str(missing) in err

    @pytest.mark.parametrize("verb", ["gate", "report"])
    def test_missing_suite_is_one_line(self, tmp_path, capsys, verb):
        _record(tmp_path)
        capsys.readouterr()
        out = ["--out", str(tmp_path / "dash.html")] if verb == "report" \
            else []
        assert cli.main([verb, "--history", str(tmp_path),
                         "--suite", "nosuch", *out]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and "nosuch" in err
        assert not (tmp_path / "dash.html").exists()
