"""Every ``src/`` def and class has a caller outside ``tests/``.

A static name-reference check over code only: a def is reached when its
name appears as a code token in ``src/``, ``benchmarks/``, ``examples/``
or ``perfbench/`` more often than it is defined there.  Comments and
docstrings (doctests included) are prose, not callers, and do not count;
other string literals do, since the event core's kernels are generated
from source fragments held in strings.  Import statements and ``__all__``
lists do not count either, so a package re-export is not a caller.
Dunder methods are called by the language and are skipped.

``ALLOWED`` names the test-only defs that stay on purpose: a fixture or
an oracle, each with its reason.  Anything else that loses its last
caller fails here, so a deleted fork cannot grow back without a caller.
A name-based check cannot see a test-only def whose name a used def
shares; those are found by reading.
"""

import ast
import io
import re
import tokenize
from collections import Counter, defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: an f-string's literal text (Python 3.12+ splits f-strings into tokens)
FSTRING_MIDDLE = getattr(tokenize, "FSTRING_MIDDLE", None)

FIXTURE = "fixture: TPC-H plan builders the operator and oracle tests run"
ORACLE = ("oracle: the totals the cost-model and energy-conservation "
          "tests compare against")
PACKING_ORACLE = ("oracle: the class-ranking rate the packing-router "
                  "oracle re-derives PowerAwarePacking.route from")

ALLOWED = {
    "q14": FIXTURE,
    "q3_spec": FIXTURE,
    "q5_spec": FIXTURE,
    "q10_spec": FIXTURE,
    "total_cpu_cycles": ORACLE,
    "total_io_bytes": ORACLE,
    "active_totals": ORACLE,
    "marginal_cost_rate": PACKING_ORACLE,
}


def _is_export(node: ast.AST) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets))


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int],
                                              tuple[int, int]]]:
    """(start, end) positions of the module, class and function
    docstrings."""
    return [((doc.lineno, doc.col_offset),
             (doc.end_lineno, doc.end_col_offset))
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(doc := node.body[0], ast.Expr)
            and isinstance(doc.value, ast.Constant)
            and isinstance(doc.value.value, str)]


def code_references(text: str) -> Counter:
    """Name references in ``text``'s code: comments, docstrings, imports
    and ``__all__`` lists are skipped."""
    tree = ast.parse(text)
    skipped = set()
    for node in ast.walk(tree):
        if _is_export(node):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    docstrings = _docstrings(tree)
    references: Counter = Counter()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.start[0] in skipped:
            continue
        if token.type == tokenize.NAME:
            references[token.string] += 1
        elif token.type == FSTRING_MIDDLE or (
                token.type == tokenize.STRING
                and not any(start <= token.start and token.end <= end
                            for start, end in docstrings)):
            references.update(WORD.findall(token.string))
    return references


def defined_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every non-dunder def and class in ``tree``."""
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]


def _scan(root: Path):
    """(name -> definition sites in src/, name -> references)."""
    defined: dict[str, list[str]] = defaultdict(list)
    references: Counter = Counter()
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            text = path.read_text()
            references.update(code_references(text))
            if top != "src":
                continue
            for name, line in defined_names(ast.parse(text)):
                defined[name].append(f"{path.relative_to(root)}:{line}")
    return defined, references


def unreached_defs(root: Path) -> dict[str, list[str]]:
    """Defs under ``root / "src"`` that no code under the caller
    directories names more often than they are defined."""
    defined, references = _scan(root)
    return {name: sites for name, sites in defined.items()
            if references[name] <= len(sites)}


@cache
def _test_only():
    return unreached_defs(ROOT)


def test_every_def_has_a_caller_outside_tests():
    unreached = {name: sites for name, sites in _test_only().items()
                 if name not in ALLOWED}
    assert not unreached, (
        "defined in src/ with no reference outside tests/ (delete it, "
        f"or allowlist it with a reason): {unreached}")


def test_allowlists_name_only_test_only_defs():
    """A listed def that gained a caller, or was deleted, leaves the
    list, so it only ever shrinks."""
    test_only = _test_only()
    stale = sorted(name for name in ALLOWED if name not in test_only)
    assert not stale, f"no longer test-only, unlist: {stale}"


def test_prose_is_not_a_caller(tmp_path):
    """A def named only in its own docstring, a doctest and a comment
    elsewhere is reported; one called from code is not."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text('''"""Helpers; see ``lonely``."""


def lonely():
    """lonely() is named only in prose.

    >>> lonely()
    """


def used():
    # lonely is mentioned in this comment
    return 1
''')
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg.mod import lonely, used\n\nused()\n")
    assert unreached_defs(tmp_path) == {"lonely": ["src/pkg/mod.py:4"]}
