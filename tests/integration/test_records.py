"""The record codec, exercised over every :class:`~repro.records.Record`.

Classes are *discovered* (every subclass reachable by importing the
package), not enumerated, and instances are *harvested* from one small
run per experiment family plus the spec/ledger objects those runs are
built from — so a new ``Record`` dataclass is covered the moment it
exists, and one nothing produces fails :func:`test_every_record_class_is_harvested`
until the harvest learns to make it.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.faults import build_fault_schedule
from repro.observatory import (BenchRecord, HistoryStore,
                               RegressionReport, compare_records)
from repro.observatory.record import (extract_work_units, point_label,
                                      point_metrics)
from repro.records import Record, RecordError
from repro.runner import ExperimentSpec, Runner
from repro.runner.spec import canonical_json
from repro.service.spec import FleetSpec
from repro.workloads.pipelines import (DatasetCatalog, EtlScheduler,
                                       default_pipeline)

GOLDEN = Path(__file__).parent / "golden_records"

#: one small run per experiment family (knobs shrink the registered
#: defaults; the swept axes stay, so the figure-level aggregate exists)
FAMILIES: dict[str, dict] = {
    "fig1": {"disks": [6, 24], "streams": 2, "queries_per_stream": 1,
             "physical_scale_factor": 0.0005,
             "logical_scale_factor": 1.0, "spindle_groups": 6},
    "fig2": {"scale_factor": 0.0005},
    "batching": {"queries": 4, "rate_per_s": 1.0 / 20.0,
                 "window_seconds": 60.0, "table_rows": 400,
                 "scale": 100.0, "tail_seconds": 60.0},
    "proportionality": {"utilization": [0.25, 0.75],
                        "window_seconds": 10.0},
    "svc_smoke": {"queries": 2_000, "nodes": 4},
    "svc_hetero": {"queries": 1_500, "load": [0.2], "sla_scale": [1.0]},
    "svc_pvc_qed": {"queries": 1_500, "nodes": 4,
                    "sla_headroom": [0.35]},
    "svc_etl": {"load": [1.0], "day_seconds": 240.0,
                "peak_seconds": 120.0, "etl_scale": 0.05,
                "freshness_sla_seconds": 220.0, "nodes": 4},
    "svc_mega_calibration": {"queries": 3_000, "nodes": 8, "load": 4.0},
    "chaos_smoke": {"queries": 2_000, "nodes": 4, "intensity": 20.0},
}

#: the traced family: its points carry TelemetryTrace / SpanNode trees
TRACED = "fig2"


def _all_record_classes() -> list[type]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, stack = [], list(Record.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return sorted(set(found), key=lambda c: (c.__module__, c.__name__))


RECORD_CLASSES = _all_record_classes()


def _walk(obj, into: dict[type, list]) -> None:
    """Collect every Record reachable from ``obj`` (first few per class)."""
    if isinstance(obj, Record):
        seen = into.setdefault(type(obj), [])
        if len(seen) < 3:
            seen.append(obj)
        for f in dataclasses.fields(obj):
            _walk(getattr(obj, f.name), into)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _walk(item, into)
    elif isinstance(obj, dict):
        for item in obj.values():
            _walk(item, into)


def _run_families() -> dict[str, object]:
    return {name: Runner(cache=False, trace=(name == TRACED)).run(
                ExperimentSpec(name, knobs=knobs))
            for name, knobs in FAMILIES.items()}


@pytest.fixture(scope="module")
def runs() -> dict[str, object]:
    return _run_families()


@pytest.fixture(scope="module")
def harvest(runs) -> dict[type, list]:
    into: dict[type, list] = {}
    for run in runs.values():
        _walk(run.spec, into)
        _walk(run.aggregate(), into)
        for point in run.points:
            _walk(point.report, into)
            _walk(point.telemetry, into)
    # the spec / plan / ledger objects the runs above are built from
    fleet = FleetSpec.of(beefy=2, wimpy=3)
    pipeline = default_pipeline(scale=0.05, freshness_sla_seconds=220.0)
    plan = EtlScheduler(mode="delayed", offpeak_start_seconds=120.0
                        ).plan(pipeline, fleet)
    catalog = DatasetCatalog.from_dict({"entries": next(
        p.report.catalog for p in runs["svc_etl"].points
        if p.report.catalog)})
    row = _bench_records(runs["proportionality"])[0]
    drifted = dataclasses.replace(row, metrics={
        **row.metrics, "joules": row.metrics["joules"] * 1.5})
    _walk([fleet, pipeline, plan, catalog, row,
           build_fault_schedule(n_nodes=4, horizon_seconds=600.0,
                                seed=3, intensity=20.0),
           RegressionReport(findings=compare_records([row, drifted]))],
          into)
    return into


def _bench_records(run) -> list[BenchRecord]:
    """Ledger rows for a run with the provenance pinned (the recorder
    stamps git SHA, host and wall clock, which no golden can hold)."""
    axes = sorted(run.spec.sweep_axes())
    rows = []
    for seq, p in enumerate(run.points):
        records, unit = extract_work_units(p.report)
        rows.append(BenchRecord(
            suite="golden", benchmark=run.spec.experiment,
            point=point_label(p.knobs, axes),
            metrics=point_metrics(p.sim_seconds, p.joules, records),
            record_unit=unit, spec_hash=run.spec.spec_hash(),
            git_sha="0000000", host={"python": "3"},
            recorded_at="2026-01-01T00:00:00+00:00", seq=seq))
    return rows


def _instances(harvest, cls):
    assert cls in harvest, f"no {cls.__name__} instance harvested"
    return harvest[cls]


def test_every_record_class_is_harvested(harvest):
    missing = [c.__name__ for c in RECORD_CLASSES if c not in harvest]
    assert not missing, (
        f"no instance of {missing} came out of the harvest runs; extend "
        "FAMILIES (or the harvest fixture) so the codec suite covers it")


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
class TestEveryRecord:
    def test_round_trip(self, harvest, cls):
        for obj in _instances(harvest, cls):
            wire = json.loads(canonical_json(obj.to_dict()))
            back = cls.from_dict(wire)
            assert back == obj
            assert canonical_json(back.to_dict()) == \
                canonical_json(obj.to_dict())

    def test_off_the_wire_fields_stay_off(self, harvest, cls):
        wire = _instances(harvest, cls)[0].to_dict()
        fields = {f.name for f in dataclasses.fields(cls)
                  if f.init and f.compare}
        assert set(wire) == fields | set(cls.DERIVED_KEYS)

    def test_unknown_key_is_rejected(self, harvest, cls):
        wire = _instances(harvest, cls)[0].to_dict()
        with pytest.raises(RecordError, match="unknown key 'no_such_key'"):
            cls.from_dict({**wire, "no_such_key": 1})

    def test_missing_required_key_is_rejected(self, harvest, cls):
        wire = _instances(harvest, cls)[0].to_dict()
        required = [f.name for f in dataclasses.fields(cls)
                    if f.init and f.compare
                    and f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        for name in required:
            pruned = {k: v for k, v in wire.items() if k != name}
            with pytest.raises(RecordError, match=f"missing.*{name!r}"):
                cls.from_dict(pruned)

    def test_wrong_container_shape_is_rejected(self, harvest, cls):
        with pytest.raises(RecordError, match="expected an object"):
            cls.from_dict([])
        wire = _instances(harvest, cls)[0].to_dict()
        for name, value in wire.items():
            if name in cls.DERIVED_KEYS:
                continue
            if isinstance(value, dict):
                wrong = [value]
            elif isinstance(value, list):
                wrong = {"items": value}
            else:
                continue
            with pytest.raises(RecordError, match="expected"):
                cls.from_dict({**wire, name: wrong})


# -- goldens: the wire format of four load-bearing records, pinned ------
#
# Written by the hand-written to_dict methods this codec replaced (see
# CHANGES.md, PR 15).  Regenerate with
# ``python -m tests.integration.test_records`` only when a format
# change is the point of the PR.

def _golden_subjects(runs) -> dict[str, Record]:
    etl = next(p.report for p in runs["svc_etl"].points
               if p.knobs["mode"] == "delayed")
    return {
        "ServiceReport": runs["chaos_smoke"].points[0].report,
        "EtlReport": etl,
        "TelemetryTrace": runs[TRACED].points[0].telemetry,
        "BenchRecord": _bench_records(runs["proportionality"])[0],
    }


@pytest.mark.parametrize("name", ["ServiceReport", "EtlReport",
                                  "TelemetryTrace", "BenchRecord"])
def test_canonical_json_matches_golden(runs, name):
    text = canonical_json(_golden_subjects(runs)[name].to_dict())
    assert text + "\n" == (GOLDEN / f"{name}.json").read_text()


def test_committed_ledgers_load():
    """Every committed BENCH_*.json row decodes and re-encodes to the
    same canonical line."""
    root = Path(__file__).parents[2]
    store = HistoryStore(root)
    assert store.suites(), "no committed ledgers found"
    for suite in store.suites():
        lines = [ln for ln in store.path(suite).read_text().splitlines()
                 if ln.strip()]
        records = store.load(suite)
        assert len(records) == len(lines), f"{suite}: rows were skipped"
        for line, record in zip(lines, records):
            assert canonical_json(record.to_dict()) == line


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for _name, _subject in _golden_subjects(_run_families()).items():
        (GOLDEN / f"{_name}.json").write_text(
            canonical_json(_subject.to_dict()) + "\n")
