"""The documentation's cross-references must resolve.

Every relative markdown link in every tracked ``*.md`` file has to
point at a path that exists, and every ``#anchor`` has to match a
heading (GitHub slug rules) in the target document; and every Sphinx
role in a ``src/`` docstring that names something under ``repro.`` has
to name something importable.  Docs rot silently otherwise — this is
the executable version of the docs pass.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOCS = sorted(REPO.glob("*.md"))

LINK = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"```.*?```", re.DOTALL)
INLINE_CODE = re.compile(r"`[^`\n]*`")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line."""
    text = heading.strip()
    text = text.replace("`", "")
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # link text
    text = re.sub(r"[^\w\- ]", "", text.lower())
    return text.strip().replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    body = FENCE.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(m) for m in HEADING.findall(body)}


def links_of(path: Path):
    body = FENCE.sub("", path.read_text(encoding="utf-8"))
    body = INLINE_CODE.sub("", body)
    for target in LINK.findall(body):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


def test_docs_exist():
    names = {p.name for p in DOCS}
    assert {"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md",
            "OPERATIONS.md", "POLICIES.md", "PIPELINES.md",
            "ROADMAP.md"} <= names


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_markdown_cross_references_resolve(doc):
    broken = []
    for target in links_of(doc):
        path_part, _, anchor = target.partition("#")
        dest = doc if not path_part \
            else (doc.parent / path_part).resolve()
        if path_part and not dest.exists():
            broken.append(f"{target}: no such path")
            continue
        if anchor and dest.suffix == ".md":
            if github_slug(anchor) not in anchors_of(dest):
                broken.append(f"{target}: no heading for anchor")
    assert not broken, f"{doc.name}: {broken}"


SRC = REPO / "src"
ROLE = re.compile(r":(?:func|class|meth|mod|data):`([^`]+)`")


def role_targets(path: Path):
    """Dotted names under ``repro.`` that a Sphinx role in ``path``
    points at (``~`` prefixes, ``title <target>`` forms and targets
    wrapped across lines included)."""
    for body in ROLE.findall(path.read_text(encoding="utf-8")):
        titled = re.search(r"<([^>]+)>\s*$", body)
        target = re.sub(r"\s+", "", titled[1] if titled else body)
        target = target.lstrip("~").removesuffix("()")
        if target.startswith("repro."):
            yield target


def resolves(target: str) -> bool:
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def test_docstring_cross_references_resolve():
    """A ``:func:`repro...``` in a docstring must name something that
    exists — a rename or a deletion otherwise leaves the prose citing
    a ghost."""
    dangling = sorted(
        f"{path.relative_to(SRC)}: {target}"
        for path in SRC.rglob("*.py")
        for target in set(role_targets(path))
        if not resolves(target))
    assert not dangling, dangling
