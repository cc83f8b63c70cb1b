"""``tools/reach.py``: a def or class is reached when a workload runs it.

The trace runs on a synthetic package, so this file checks the tool's
rules, not the tree; CI's ``reach`` job runs the tool on the tree.  The
tool runs CI's workload table as ``tools/ci.py`` expands it.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "reach_tool", ROOT / "tools" / "reach.py")
reach = sys.modules["reach_tool"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

MODULE = '''"""Helpers; see ``lonely``."""

import enum
from dataclasses import dataclass
from typing import NamedTuple


def lonely():
    """lonely() is named only in prose.

    >>> lonely()
    """


def tested_only():
    return 2


def generated_only():
    return 3


def used():
    # lonely is mentioned in this comment
    exec("generated_only()", globals())
    Pair(1, 2)
    Mode.ON
    try:
        raise Refused()
    except Refused:
        pass
    return Built(1)


@dataclass
class Built:
    x: int


class Pair(NamedTuple):
    a: int
    b: int


class Refused(Exception):
    pass


class Mode(enum.Enum):
    ON = 1


@dataclass
class Unbuilt:
    x: int
'''


@pytest.fixture
def traced(tmp_path):
    """(root, trace) after the synthetic workload ran under the hook."""
    package = tmp_path / "src" / "reach_probe"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from reach_probe.mod import tested_only\n\n\n"
        "def test_it():\n    assert tested_only() == 2\n")
    sys.path.insert(0, str(tmp_path / "src"))
    try:
        import reach_probe.mod
        trace = reach.Trace()
        with trace.installed():
            reach_probe.mod.used()
        yield tmp_path, trace
    finally:
        sys.path.remove(str(tmp_path / "src"))
        for name in ("reach_probe", "reach_probe.mod"):
            sys.modules.pop(name, None)


def test_report_names_exactly_what_no_workload_ran(traced):
    """Prose is not a caller, a test is not a workload, and a dataclass
    nothing builds is unreached; a def called from generated source
    text, a built dataclass or NamedTuple, a raised exception type and
    an enum that code which ran loads are reached."""
    root, trace = traced
    assert [site.name for site in reach.unreached(root, trace)] == [
        "src/reach_probe/mod.py::lonely",
        "src/reach_probe/mod.py::tested_only",
        "src/reach_probe/mod.py::Unbuilt",
    ]


def test_verdict_fails_on_unlisted_reached_and_stale_entries(traced):
    root, trace = traced
    mod = "src/reach_probe/mod.py::"
    assert reach.verdict(root, trace, {
        mod + "lonely": "fixture: a", mod + "tested_only": "oracle: b",
        mod + "Unbuilt": "fixture: c"}) == []
    assert reach.verdict(root, trace, {
        mod + "lonely": "fixture: a", mod + "used": "fixture: b",
        mod + "gone": "fixture: c"}) == [
        f"unreached: {mod}Unbuilt",
        f"unreached: {mod}tested_only",
        f"allowlisted but reached: {mod}used",
        f"allowlisted but gone: {mod}gone",
    ]


def test_allowlist_names_existing_sites_under_the_five_kinds():
    known = {site.name for site in reach.inventory(ROOT)}
    assert sorted(set(reach.ALLOWED) - known) == []
    assert [name for name, reason in reach.ALLOWED.items()
            if not reason.startswith(reach.KINDS)] == []


def test_architecture_glosses_exactly_the_kinds():
    """ARCHITECTURE.md's reach section glosses each kind as `kind` (...),
    so a kind added to or dropped from the tool fails until the doc
    follows."""
    text = (ROOT / "ARCHITECTURE.md").read_text()
    section = text.split("## Reach from the workloads\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    glossed = re.findall(r"`([a-z][a-z -]*)` \(", section)
    assert sorted(glossed) == sorted(reach.KINDS)


def test_the_ci_workload_is_the_table(tmp_path):
    """Reach runs every row of the table as CI expands it: each step
    once at --workers 1, then the pooled ones as written, and each
    ``twice`` row as a cold and a warm run on one cache."""
    (serial, plan), (pooled, pool_plan) = reach.ci_passes(tmp_path)
    history = tmp_path / "history"
    rows = reach.ci.rows()
    expected = [step for row in rows
                for step in reach.ci.steps(row, serial, history)]
    assert [step.argv for step in plan] == [
        reach._serial(step.argv)
        for step in expected + reach.ci.finale(serial, history)]
    assert not any(step.argv[i + 1] != "1" for step in plan
                   for i, arg in enumerate(step.argv) if arg == "--workers")
    assert [step.argv for step in pool_plan] == [
        step.argv for row in rows
        for step in reach.ci.steps(row, pooled, history)
        if "--workers" in step.argv]
    assert any("--workers" in row.argv for row in rows)
    for row in rows:
        if row.check == "twice":
            cold, warm = reach.ci.steps(row, serial, history)
            assert cold.argv == warm.argv and "--cache" in cold.argv
            assert cold.out != warm.out
            assert sum(step.argv == cold.argv for step in expected) == 2
