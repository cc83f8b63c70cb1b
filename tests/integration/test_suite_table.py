"""The tables that name experiments outside the code, checked here.

``.github/workloads.txt`` is CI's workload table (``tools/ci.py`` runs
it): a misspelt experiment or knob flag in a row would otherwise be
found only when CI runs it.  EXPERIMENTS.md's *Catalog* paragraph lists
the registered sweeps by name.  The committed ``BENCH_*.json`` ledgers
hold the series the table's ledger rows append to.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.observatory.cli import _build_parser as observatory_parser
from repro.observatory.history import HistoryStore
from repro.runner import get_experiment, list_experiments
from repro.runner.cli import _build_parser as runner_parser
from repro.runner.cli import spec_and_cache
from repro.service import PVCPolicy, QEDPolicy, make_policy
from repro.service.engine import (_ROUTERS, CHUNK, _layers,
                                  event_core_unsupported)
from tools import ci

ROOT = Path(__file__).resolve().parents[2]
ROWS = ci.rows()
RECORD_ROWS = [row for row in ROWS if row.check == "ledger"
               and row.argv[0] == "observatory"]
PARSERS = {"runner": runner_parser, "observatory": observatory_parser}

#: committed ledger series, ``(suite, benchmark)``, that no row of the
#: table appends to: the gate reads each one ``new`` on every run
UNGATED_SERIES = {
    ("mega", "svc_mega"):
        "10M queries a point on 256 nodes, minutes a run; recorded by "
        "hand as the full-scale reference",
    ("mega", "svc_mega_calibration"):
        "races both serving engines on a 1M-query stream, minutes a "
        "run; recorded by hand",
    ("mega", "svc_mega_calibration_engines"):
        "the same race's loop and event points; recorded by hand",
    ("svc", "test_svc_policy_sweep"):
        "written by benchmarks/test_svc_serving.py before `pytest "
        "benchmarks` recorded into the core suite, which now holds "
        "the series",
}


def command(row: ci.Row):
    """The parsed argv of the row's own command, as its check runs it,
    and its spec (None for a verb that runs no experiment)."""
    cli, *argv = ci.steps(row, Path("out"), Path("history"))[0].argv
    args, extras = PARSERS[cli]().parse_known_args(argv)
    if not hasattr(args, "experiment"):
        assert not extras
        return args, None
    return args, spec_and_cache(args, extras)[0]


def test_the_suite_table_has_rows():
    assert len(ROWS) >= 20 and len(RECORD_ROWS) >= 8
    assert len({row.name for row in ROWS}) == len(ROWS)


def test_rows_append_to_distinct_series():
    """Two rows on one series would gate one configuration against
    the other's baseline."""
    series = [(args.suite, args.benchmark)
              for args, _ in map(command, RECORD_ROWS)]
    assert len(series) == len(set(series))


@pytest.mark.parametrize("row", [row for row in ROWS
                                 if row.argv[0] != "pytest"],
                         ids=lambda row: row.name)
def test_suite_row_names_a_runnable_spec(row):
    """The row's command parses under its CLI's parser; one that runs
    an experiment names a registered one and sets only knobs of the
    right type its point function takes."""
    args, spec = command(row)
    if spec is not None:
        get_experiment(spec.experiment).validate_knobs(spec.knobs)
        assert spec.points()
    if row.check == "ledger":
        assert args.suite == row.arg and args.no_cache
    if row.check in ("twice", "recording"):
        # the check reads the --json; a warm run must print its hits
        assert args.as_json and (row.check != "twice" or not args.quiet)


def test_every_committed_series_is_appended_to_or_named():
    """Outside ``core`` (the pytest row's suite), each committed series
    is appended to by a ledger row or named in ``UNGATED_SERIES`` with
    its reason, so a new series that nothing gates fails here."""
    appended = {(args.suite, args.benchmark or args.experiment)
                for args, _ in map(command, RECORD_ROWS)}
    store = HistoryStore(ROOT)
    committed = {(suite, benchmark) for suite in store.suites()
                 if suite != "core"
                 for benchmark, _point in store.series(suite)}
    assert committed - appended == set(UNGATED_SERIES)


def test_the_pytest_row_is_the_benchmarks():
    (core,) = [row for row in ROWS if row.argv[0] == "pytest"]
    assert core.check == "ledger" and (ROOT / core.argv[1]).is_dir()


def test_mega_rows_gate_every_kernel_past_one_chunk():
    """The ``svc_mega_smoke`` rows are CI's multi-chunk gate on the
    event core: together they serve every router with a kernel, and
    the PVC governor, on streams longer than one chunk."""
    served = set()
    for row in RECORD_ROWS:
        if row.argv[2:3] == ["svc_mega_smoke"]:
            for point in command(row)[1].points():
                assert point["queries"] > CHUNK
                served.update(map(type, _layers(make_policy(
                    point["policy"]))))
    assert served >= {*_ROUTERS, PVCPolicy}


def test_faults_rows_gate_every_faulted_kernel():
    """The ``faults`` rows are CI's gate on the chaos engine: together
    they serve every router's faulted kernel, the PVC governor and
    QED, and each such point runs on the kernel."""
    served = set()
    for row in RECORD_ROWS:
        if row.arg == "faults":
            for point in command(row)[1].points():
                policy = make_policy(point["policy"])
                assert event_core_unsupported(policy) is None
                served.update(map(type, _layers(policy)))
    assert served >= {*_ROUTERS, PVCPolicy, QEDPolicy}


def test_the_catalog_paragraph_names_the_registered_sweeps():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    paragraph = re.search(r"Sixteen sweeps \((.*?)\)\s+are", text, re.S)
    assert paragraph, "EXPERIMENTS.md lost its Catalog sweep list"
    named = re.findall(r"`(\w+)`", paragraph.group(1))
    builtin = [defn.name for defn in list_experiments()
               if defn.point_fn.__module__.startswith("repro.")]
    assert len(named) == len(set(named)) == 16
    assert sorted(named) == builtin
