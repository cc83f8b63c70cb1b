"""The tables that name experiments outside the code, checked here.

``.github/observatory-suites.txt`` drives the ``observatory-gate`` CI
job: a misspelt experiment or knob flag in a row would otherwise be
found only when that job runs.  EXPERIMENTS.md's *Catalog* paragraph
lists the registered sweeps by name.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.observatory.cli import _build_parser
from repro.runner import get_experiment, list_experiments
from repro.runner.cli import spec_and_cache
from repro.service import PVCPolicy, QEDPolicy, make_policy
from repro.service.engine import (_ROUTERS, CHUNK, _layers,
                                  event_core_unsupported)

ROOT = Path(__file__).resolve().parents[2]
SUITE_ROWS = [line.split(None, 2)
              for line in (ROOT / ".github" / "observatory-suites.txt")
              .read_text().splitlines()
              if line.strip() and not line.startswith("#")]


def series_name(row: list[str]) -> str:
    """The ledger series a row appends to: its ``--benchmark`` when it
    names one, else the experiment."""
    extra = shlex.split(row[2]) if len(row) > 2 else []
    if "--benchmark" in extra:
        return extra[extra.index("--benchmark") + 1]
    return row[0]


def test_the_suite_table_has_rows():
    assert len(SUITE_ROWS) >= 8
    assert all(len(row) >= 2 for row in SUITE_ROWS)


def test_rows_append_to_distinct_series():
    """Two rows on one series would gate one configuration against
    the other's baseline."""
    series = [(row[1], series_name(row)) for row in SUITE_ROWS]
    assert len(series) == len(set(series))


def row_spec(row: list[str]):
    """The parsed argv CI builds from the row, and its spec."""
    experiment, suite, *extra = row
    args, knob_flags = _build_parser().parse_known_args(
        ["record", experiment, "--suite", suite, "--history", ".",
         "--quiet", "--no-cache", *shlex.split(" ".join(extra))])
    spec, _cache = spec_and_cache(args, knob_flags)
    return args, spec


@pytest.mark.parametrize("row", SUITE_ROWS, ids=series_name)
def test_suite_row_names_a_runnable_spec(row):
    """The argv CI builds from the row parses, names a registered
    experiment, and sets only knobs its point function takes."""
    args, spec = row_spec(row)
    assert args.suite == row[1]
    get_experiment(row[0]).validate_knobs(spec.knobs)
    assert spec.points()


def test_mega_rows_gate_every_kernel_past_one_chunk():
    """The ``svc_mega_smoke`` rows are CI's multi-chunk gate on the
    event core: together they serve every router with a kernel, and
    the PVC governor, on streams longer than one chunk."""
    served = set()
    for row in SUITE_ROWS:
        if row[0] == "svc_mega_smoke":
            for point in row_spec(row)[1].points():
                assert point["queries"] > CHUNK
                served.update(map(type, _layers(make_policy(
                    point["policy"]))))
    assert served >= {*_ROUTERS, PVCPolicy}


def test_faults_rows_gate_every_faulted_kernel():
    """The ``faults`` rows are CI's gate on the chaos engine: together
    they serve every router's faulted kernel, the PVC governor and
    QED, and each such point runs on the kernel."""
    served = set()
    for row in SUITE_ROWS:
        if row[1] == "faults":
            for point in row_spec(row)[1].points():
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
