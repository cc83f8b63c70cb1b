"""Unit tests: the self-contained HTML dashboard and its SVG pieces."""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.observatory import BenchRecord, HistoryStore, render_dashboard
from repro.observatory.dashboard import (
    frontier_svg,
    sparkline_svg,
    timeline_svg,
)
from repro.observatory.regression import compare_store


def _store_with_history(tmp_path, runs=3):
    store = HistoryStore(tmp_path)
    for i in range(runs):
        store.append(BenchRecord(
            suite="core", benchmark="fig2", point="compressed=True",
            metrics={"joules": 487.0 + i, "sim_seconds": 5.5,
                     "records_per_second": 4.4e8,
                     "records_per_second_per_watt": 5.0e6},
            counters={"buffer.hits": 1.0},
            git_sha="abc1234",
            recorded_at=f"2026-08-0{i+1}T00:00:00+00:00",
            timelines=[
                {"name": "cpu", "times": [0.0, 2.0, 5.5],
                 "watts": [30.0, 90.0, 30.0]},
                {"name": "ssd0", "times": [0.0, 5.5],
                 "watts": [1.6, 0.05]},
            ]))
    return store


class TestSvgPieces:
    def test_sparkline_is_wellformed_svg(self):
        svg = sparkline_svg([1.0, 2.0, 1.5])
        root = ET.fromstring(svg)
        assert root.tag == "svg"
        assert root.find("polyline") is not None

    def test_sparkline_single_value(self):
        assert "<svg" in sparkline_svg([3.0])
        assert sparkline_svg([]) == ""

    def test_sparkline_flat_series_stays_in_bounds(self):
        svg = sparkline_svg([5.0, 5.0, 5.0])
        assert "nan" not in svg and "inf" not in svg

    def test_timeline_one_polyline_per_device(self):
        svg = timeline_svg([
            {"name": "cpu", "times": [0.0, 1.0], "watts": [30.0, 90.0]},
            {"name": "ssd", "times": [0.0, 1.0], "watts": [1.0, 2.0]}])
        root = ET.fromstring(svg)
        assert len(root.findall("polyline")) == 2
        assert svg.count("cpu") >= 1 and svg.count("ssd") >= 1

    def test_timeline_empty(self):
        assert timeline_svg([]) == ""
        assert timeline_svg([{"name": "x", "times": [],
                              "watts": []}]) == ""

    def test_frontier_labels_every_point(self):
        svg = frontier_svg([("a", 100.0, 10.0), ("b", 200.0, 20.0)])
        root = ET.fromstring(svg)
        assert len(root.findall("circle")) == 2
        texts = [t.text for t in root.iter("text")]
        assert "a" in texts and "b" in texts

    def test_frontier_drops_degenerate_points(self):
        assert frontier_svg([("a", 0.0, 10.0)]) == ""


class TestDashboard:
    def test_self_contained_with_sparkline_and_timeline(self, tmp_path):
        store = _store_with_history(tmp_path)
        html = render_dashboard(store)
        assert html.startswith("<!DOCTYPE html>")
        # self-contained: no external fetches of any kind
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html
        # one sparkline card for the recorded suite
        assert "Suite: core" in html
        assert "<polyline" in html
        # the traced record's device power timeline made it in
        assert "Device power" in html
        assert "cpu" in html and "ssd0" in html
        # frontier chart present (records_per_second + joules exist)
        assert "frontier" in html

    def test_regression_report_renders(self, tmp_path):
        store = _store_with_history(tmp_path)
        store.append(BenchRecord(
            suite="core", benchmark="fig2", point="compressed=True",
            metrics={"joules": 600.0, "sim_seconds": 5.5,
                     "records_per_second": 4.4e8,
                     "records_per_second_per_watt": 4.0e6},
            counters={"buffer.hits": 1.0}))
        report = compare_store(store)
        html = render_dashboard(store, report=report)
        assert "Regression verdicts" in html
        assert "verdict-regression" in html

    def test_empty_store_renders_hint(self, tmp_path):
        html = render_dashboard(HistoryStore(tmp_path))
        assert "No history recorded" in html

    def test_labels_are_escaped(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(BenchRecord(
            suite="core", benchmark="<script>alert(1)</script>",
            point="p", metrics={"joules": 1.0, "sim_seconds": 1.0}))
        html = render_dashboard(store)
        assert "<script>alert" not in html
        assert "&lt;script&gt;" in html

    def test_dark_mode_palette_present(self, tmp_path):
        html = render_dashboard(_store_with_history(tmp_path))
        assert "prefers-color-scheme: dark" in html
        assert "--s1:" in html


class TestSuiteAutoDiscovery:
    """Every recorded BENCH_*.json suite renders a trend card without
    per-suite wiring, whatever metrics it happens to carry."""

    def test_every_recorded_suite_gets_a_section(self, tmp_path):
        store = _store_with_history(tmp_path)
        for suite in ("serving", "flightrec"):
            store.append(BenchRecord(
                suite=suite, benchmark="svc_smoke", point="defaults",
                metrics={"joules": 100.0, "sim_seconds": 2.0}))
        html = render_dashboard(store)
        for suite in ("core", "serving", "flightrec"):
            assert f"Suite: {suite}" in html

    def test_suite_without_preferred_metric_still_trends(self, tmp_path):
        store = HistoryStore(tmp_path)
        for i in range(3):
            store.append(BenchRecord(
                suite="latency", benchmark="svc_pvc_qed",
                point="config=pvc_qed",
                metrics={"p95_seconds": 1.5 + 0.1 * i},
                recorded_at=f"2026-08-0{i+1}T00:00:00+00:00"))
        html = render_dashboard(store)
        assert "Suite: latency" in html
        assert "<polyline" in html
        assert "p95_seconds" in html

    def test_metric_fallback_is_deterministic(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(BenchRecord(
            suite="misc", benchmark="b", point="p",
            metrics={"zeta": 2.0, "alpha": 1.0}))
        html = render_dashboard(store)
        # alphabetical fallback: "alpha" wins over "zeta"
        assert "alpha: 1" in html


class TestPublicPalette:
    def test_palette_tuples_are_public_and_hex(self):
        from repro.observatory.dashboard import SERIES_DARK, SERIES_LIGHT
        assert len(SERIES_LIGHT) == len(SERIES_DARK)
        for color in SERIES_LIGHT + SERIES_DARK:
            assert color.startswith("#") and len(color) == 7

    def test_flightrec_console_shares_the_palette(self):
        import repro.flightrec.console as console
        from repro.observatory.dashboard import (SERIES_DARK,
                                                 SERIES_LIGHT, STYLESHEET)
        assert console.STYLESHEET is STYLESHEET
        assert "%SERIES" not in STYLESHEET
        for i, (light, dark) in enumerate(zip(SERIES_LIGHT, SERIES_DARK)):
            assert f"  --s{i + 1}: {light};" in STYLESHEET
            assert f"    --s{i + 1}: {dark};" in STYLESHEET
