"""Every ``src/`` def and class has a caller outside ``tests/``.

A static name-reference check: a def is reached when its name appears
in ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` more
often than it is defined there.  Import statements and ``__all__``
lists do not count, so a package re-export is not a caller.  Dunder
methods are called by the language and are skipped.

``ALLOWED`` names the test-only defs that stay on purpose, each with
its reason.  ``PENDING`` lists the test-only helpers whose deletion
takes their unit tests with it; that list may only shrink.  Anything
else that loses its last caller fails here, so a deleted fork cannot
grow back without a caller.
"""

import ast
import re
from collections import Counter, defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

FIXTURE = "fixture: TPC-H plan builders the operator and oracle tests run"
ORACLE = ("oracle: the totals the cost-model and energy-conservation "
          "tests compare against")

ALLOWED = {
    "q14": FIXTURE,
    "q3_spec": FIXTURE,
    "q5_spec": FIXTURE,
    "q10_spec": FIXTURE,
    "total_cpu_cycles": ORACLE,
    "total_io_bytes": ORACLE,
    "active_totals": ORACLE,
}

PENDING = {
    "aggregate_efficiency", "drop_table", "mark_dirty", "mark_time",
    "mean_commit_latency", "pretty_bytes", "pue", "queue_length",
    "recommended_buffer_bytes", "records_per_flush", "reset_accounting",
    "residency_power_watts", "row_size_bytes", "scan_page", "self_joules",
    "set_powered_bytes", "set_statistics", "summary_rows", "table_names",
    "trace_from_json", "trace_to_json", "unregister", "wall_energy_joules",
}


def _is_export(node: ast.AST) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets))


def _scan():
    """(name -> definition sites in src/, name -> references)."""
    defined: dict[str, list[str]] = defaultdict(list)
    references: Counter = Counter()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            tree = ast.parse(text)
            lines = text.splitlines()
            for node in ast.walk(tree):
                if _is_export(node):
                    for i in range(node.lineno - 1, node.end_lineno):
                        lines[i] = ""
            references.update(WORD.findall("\n".join(lines)))
            if top != "src":
                continue
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__")):
                    defined[node.name].append(
                        f"{path.relative_to(ROOT)}:{node.lineno}")
    return defined, references


@cache
def _test_only():
    defined, references = _scan()
    return {name: sites for name, sites in defined.items()
            if references[name] <= len(sites)}


def test_every_def_has_a_caller_outside_tests():
    unreached = {name: sites for name, sites in _test_only().items()
                 if name not in ALLOWED and name not in PENDING}
    assert not unreached, (
        "defined in src/ with no reference outside tests/ (delete it, "
        f"or allowlist it with a reason): {unreached}")


def test_allowlists_name_only_test_only_defs():
    """A listed def that gained a caller, or was deleted, leaves the
    list, so both lists only ever shrink."""
    test_only = _test_only()
    stale = sorted(name for name in (*ALLOWED, *PENDING)
                   if name not in test_only)
    assert not stale, f"no longer test-only, unlist: {stale}"
    assert not set(ALLOWED) & PENDING
