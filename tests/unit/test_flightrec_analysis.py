"""Unit tests: flight-recorder context, SLO burn math, rollups and the
CLI's loading/exit-code contracts.

Hand-built recordings pin the arithmetic exactly; the integration
suite (``tests/integration/test_flightrec.py``) covers real engine
runs and the energy-reconciliation acceptance bar.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ReproError
from repro.flightrec import FleetEvent, FlightRecording, record
from repro.observe import current_recorder
from repro.flightrec.rollup import (default_window_seconds, node_rollup,
                                    summarize, window_starts)
from repro.flightrec.slo import SLOMonitor

_MODEL = {
    "name": "t", "idle_watts": 50.0, "peak_watts": 150.0,
    "boot_seconds": 2.0, "boot_joules": 200.0,
    "drain_seconds": 1.0, "drain_joules": 30.0,
    "speed_factor": 1.0,
}


def _meta(n_nodes=1, tenants=None, end=40.0):
    if tenants is None:
        tenants = [{"name": "a", "rate_per_s": 1.0,
                    "sla_p95_seconds": 1.0}]
    return {
        "engine": "fleet", "policy": "test", "autoscaled": False,
        "nodes": [{"name": f"node-{i:02d}", "node_class": "node",
                   "initially_on": True, "model": dict(_MODEL)}
                  for i in range(n_nodes)],
        "tenants": tenants,
        "end": end,
        "report": {"energy_joules": None},
    }


def _recording(rows, meta=None, batches=None, events=None):
    """Build a recording from per-query row dicts (missing columns
    default to a solo completed execution)."""
    columns = {"arrival": [], "service": [], "tenant": [], "node": [],
               "start": [], "completion": [], "watts": [],
               "frequency": [], "state": [], "batch": [], "attempts": []}
    defaults = {"tenant": 0, "node": 0, "watts": None, "frequency": 1.0,
                "state": "done", "batch": None, "attempts": 1}
    for row in rows:
        for c in columns:
            if c in row:
                columns[c].append(row[c])
            elif c == "service":
                columns[c].append(row["completion"] - row["start"]
                                  if row.get("completion") is not None
                                  else 1.0)
            else:
                columns[c].append(defaults[c])
    empty_batches = {c: [] for c in
                     ("members", "first", "release_at",
                      "combined_seconds", "raw_seconds", "reason",
                      "node", "start", "completion", "watts",
                      "frequency")}
    return FlightRecording(
        meta=meta or _meta(),
        queries=columns,
        batches=batches or empty_batches,
        events=events or [])


class TestFleetEvent:
    EVENT = FleetEvent(12.5, "hold_join", 3, 1, 17, {"window": 0.5})

    def test_row_round_trip(self):
        assert FleetEvent.from_row(self.EVENT.to_row()) == self.EVENT
        assert FleetEvent.from_row(json.loads(json.dumps(
            self.EVENT.to_row()))) == self.EVENT

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.EVENT.t = 0.0
        # no new attribute either: the class has slots, no __dict__
        # (CPython 3.11's frozen __setattr__ on a slots-rebuilt class
        # raises TypeError rather than FrozenInstanceError)
        with pytest.raises((AttributeError, TypeError)):
            self.EVENT.extra = 1
        assert not hasattr(self.EVENT, "__dict__")

    def test_keyword_and_positional_construction_agree(self):
        assert FleetEvent(t=12.5, kind="hold_join", node=3, tenant=1,
                          query=17, data={"window": 0.5}) == self.EVENT
        assert FleetEvent(12.5, "hold_join", 3, 1, 17,
                          {"window": 0.5}) != FleetEvent(12.5, "hold_join")

    def test_defaults(self):
        event = FleetEvent(1.0, "boot")
        assert (event.node, event.tenant, event.query, event.data) == \
            (None, None, None, {})
        assert event.data is not FleetEvent(1.0, "boot").data
        assert [(f.name, f.default) for f in dataclasses.fields(event)][
            2:5] == [("node", None), ("tenant", None), ("query", None)]


class TestContext:
    def test_off_by_default(self):
        assert current_recorder() is None

    def test_record_installs_and_uninstalls(self):
        with record() as rec:
            assert current_recorder() is rec
        assert current_recorder() is None

    def test_recordings_do_not_nest(self):
        with record():
            with pytest.raises(ReproError, match="do not nest"):
                with record():
                    pass
        assert current_recorder() is None

    def test_uninstalled_on_exception(self):
        with pytest.raises(RuntimeError):
            with record():
                raise RuntimeError("boom")
        assert current_recorder() is None

    def test_finalize_without_run_raises(self):
        with record() as rec:
            pass
        assert not rec.has_run
        with pytest.raises(ReproError, match="no completed run"):
            rec.finalize()

    def test_finalize_refuses_a_serve_lane_of_the_wrong_length(self):
        """A short lane used to be swapped for all -1 — an empty but
        valid-looking recording; the engines write this lane, so a
        mismatch is a bug to surface."""
        from repro.service import build_stream, simulate_service
        with record() as rec:
            simulate_service(build_stream(200, seed=0), policy="pvc")
        twice = rec.finalize().to_dict(), rec.finalize().to_dict()
        assert twice[0] == twice[1]
        rec.serve_lane = rec.serve_lane[:-1]
        with pytest.raises(ReproError,
                           match="199 entries for a stream of 200"):
            rec.finalize()


class TestWindows:
    def test_window_starts_cover_the_run(self):
        assert window_starts(40.0, 10.0) == [0.0, 10.0, 20.0, 30.0]
        # an instant past the last boundary opens one more window
        assert len(window_starts(40.5, 10.0)) == 5

    def test_degenerate_run_gets_one_window(self):
        assert window_starts(0.0, 10.0) == [0.0]
        assert default_window_seconds(0.0) == 1.0

    def test_default_window_targets_sixty(self):
        assert default_window_seconds(600.0) == pytest.approx(10.0)


class TestSLOMonitor:
    def _burn_recording(self):
        rows = []
        # window [0, 10): four hits, no misses
        for k in range(4):
            rows.append({"arrival": 1.0 + k, "start": 1.0 + k,
                         "completion": 1.5 + k})
        # window [10, 20): four completions, two miss the 1.0s SLA
        for k in range(2):
            rows.append({"arrival": 11.0 + k, "start": 11.0 + k,
                         "completion": 11.5 + k})
        for k in range(2):
            rows.append({"arrival": 13.0 + k, "start": 13.0 + k,
                         "completion": 16.0 + k})
        # window [30, 40): a refused query burns at its arrival
        rows.append({"arrival": 35.0, "start": None, "completion": None,
                     "state": "rejected", "node": None})
        return _recording(rows)

    def test_burn_rate_arithmetic(self):
        monitor = SLOMonitor(self._burn_recording(),
                             window_seconds=10.0, error_budget=0.25)
        slo = monitor.tenants()[0]
        assert [w.burn for w in slo.windows] == [0.0, 2.0, 0.0, 4.0]
        assert slo.worst.burn == 4.0
        assert (slo.worst.start, slo.worst.end) == (30.0, 40.0)

    def test_breach_windows_are_maximal_runs(self):
        monitor = SLOMonitor(self._burn_recording(),
                             window_seconds=10.0, error_budget=0.25)
        slo = monitor.tenants()[0]
        assert slo.breach_windows == [(10.0, 20.0, 2.0),
                                      (30.0, 40.0, 4.0)]

    def test_refused_query_charges_arrival_window(self):
        monitor = SLOMonitor(self._burn_recording(),
                             window_seconds=10.0, error_budget=0.25)
        w = monitor.tenants()[0].windows[3]
        assert (w.completed, w.breached) == (1, 1)

    def test_tenant_without_sla_never_burns(self):
        rec = _recording(
            [{"arrival": 0.0, "start": 0.0, "completion": 50.0}],
            meta=_meta(tenants=[{"name": "free", "rate_per_s": 1.0,
                                 "sla_p95_seconds": None}]))
        monitor = SLOMonitor(rec, window_seconds=10.0)
        slo = monitor.tenants()[0]
        assert all(w.burn == 0.0 for w in slo.windows)
        assert not slo.breached and not monitor.any_breached

    def test_overall_breach_flag(self):
        rows = [{"arrival": float(k), "start": float(k),
                 "completion": k + 3.0} for k in range(20)]
        monitor = SLOMonitor(_recording(rows), window_seconds=10.0)
        slo = monitor.tenants()[0]
        assert slo.overall_p95 > 1.0
        assert slo.breached and monitor.any_breached

    def test_bad_parameters_raise(self):
        rec = _recording([])
        with pytest.raises(ReproError, match="window"):
            SLOMonitor(rec, window_seconds=0.0)
        with pytest.raises(ReproError, match="budget"):
            SLOMonitor(rec, error_budget=0.0)
        with pytest.raises(ReproError, match="budget"):
            SLOMonitor(rec, error_budget=2.0)

    def test_to_dict_round_trips_through_json(self):
        monitor = SLOMonitor(self._burn_recording(),
                             window_seconds=10.0, error_budget=0.25)
        data = json.loads(json.dumps(monitor.to_dict()))
        assert data["tenants"][0]["burn"] == [0.0, 2.0, 0.0, 4.0]
        assert data["tenants"][0]["breach_windows"][0]["start"] == 10.0


class TestRollups:
    def _one_node_recording(self):
        # one always-on node, one 10s execution at 150 W in [5, 15),
        # over a 600 s run: sixty 10 s windows
        return _recording([{"arrival": 5.0, "start": 5.0,
                            "completion": 15.0, "watts": 150.0}],
                          meta=_meta(end=600.0))

    def test_node_rollup_rebins_the_energy_audit(self):
        rec = self._one_node_recording()
        rollup = node_rollup(rec)
        assert rollup["window_seconds"] == 10.0
        total = sum(w * 10.0 for w in rollup["nodes"][0]["watts"])
        assert total == pytest.approx(rec.replayed_energy_joules(),
                                      rel=1e-12)

    def test_busy_fraction_splits_across_windows(self):
        rollup = node_rollup(self._one_node_recording())
        assert rollup["nodes"][0]["busy_fraction"] == \
            pytest.approx([0.5, 0.5] + [0.0] * 58)

    def test_fleet_watts_sums_nodes(self):
        rollup = node_rollup(self._one_node_recording())
        assert rollup["fleet_watts"] == \
            pytest.approx(rollup["nodes"][0]["watts"])

    def test_summarize_reports_zero_drift_on_consistent_books(self):
        rec = self._one_node_recording()
        rec.meta["report"]["energy_joules"] = \
            rec.replayed_energy_joules()
        summary = summarize(rec)
        assert summary["energy_relative_drift"] == pytest.approx(
            0.0, abs=1e-15)
        assert summary["states"] == {"done": 1}


class TestCLI:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_slo_exit_codes(self, tmp_path, capsys):
        from repro.flightrec.cli import main
        ok = _recording([{"arrival": 0.0, "start": 0.0,
                          "completion": 0.5}])
        bad = _recording([{"arrival": float(k), "start": float(k),
                           "completion": k + 3.0} for k in range(20)])
        assert main(["slo", self._write(tmp_path, "ok.json",
                                        ok.to_dict())]) == 0
        assert main(["slo", self._write(tmp_path, "bad.json",
                                        bad.to_dict())]) == 1
        out = capsys.readouterr().out
        assert "BREACHED" in out

    def test_missing_file_is_a_one_line_error(self, capsys):
        from repro.flightrec.cli import main
        assert main(["summarize", "/nonexistent/rec.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_runner_result_without_recordings_errors(self, tmp_path,
                                                     capsys):
        from repro.flightrec.cli import main
        path = self._write(tmp_path, "run.json",
                           {"points": [{"index": 0}]})
        assert main(["summarize", path]) == 2
        assert "--record" in capsys.readouterr().err

    def test_point_selection(self, tmp_path):
        from repro.flightrec.cli import load_recording
        rec = _recording([{"arrival": 0.0, "start": 0.0,
                           "completion": 0.5}])
        path = self._write(tmp_path, "multi.json", {"points": [
            {"index": 0, "flightrec": rec.to_dict()},
            {"index": 1, "flightrec": rec.to_dict()},
        ]})
        assert load_recording(path, point=1).n_queries == 1
        with pytest.raises(ReproError, match="pick one with --point"):
            load_recording(path)


class TestShardGuard:
    def test_run_guarded_maps_repro_errors(self, capsys):
        from repro.cli import run_guarded

        def boom() -> int:
            raise ReproError("knob out of range")

        assert run_guarded(boom) == 2
        assert capsys.readouterr().err == "error: knob out of range\n"

    def test_run_guarded_passes_through_return_code(self):
        from repro.cli import run_guarded
        assert run_guarded(lambda: 7) == 7
