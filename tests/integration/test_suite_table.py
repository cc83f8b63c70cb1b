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


@pytest.mark.parametrize("row", SUITE_ROWS, ids=series_name)
def test_suite_row_names_a_runnable_spec(row):
    """The argv CI builds from the row parses, names a registered
    experiment, and sets only knobs its point function takes."""
    experiment, suite, *extra = row
    args, knob_flags = _build_parser().parse_known_args(
        ["record", experiment, "--suite", suite, "--history", ".",
         "--quiet", "--no-cache", *shlex.split(" ".join(extra))])
    assert args.suite == suite
    spec, _cache = spec_and_cache(args, knob_flags)
    get_experiment(experiment).validate_knobs(spec.knobs)
    assert spec.points()


def test_the_catalog_paragraph_names_the_registered_sweeps():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    paragraph = re.search(r"Sixteen sweeps \((.*?)\)\s+are", text, re.S)
    assert paragraph, "EXPERIMENTS.md lost its Catalog sweep list"
    named = re.findall(r"`(\w+)`", paragraph.group(1))
    builtin = [defn.name for defn in list_experiments()
               if defn.point_fn.__module__.startswith("repro.")]
    assert len(named) == len(set(named)) == 16
    assert sorted(named) == builtin
