"""Plan utilities: pretty-printing."""

from __future__ import annotations

from repro.relational.operators.base import Operator


def explain(root: Operator) -> str:
    """Render an operator tree as an indented plan, root first."""
    lines: list[str] = []

    def walk(op: Operator, depth: int) -> None:
        lines.append("  " * depth + "-> " + op.describe())
        for child in op.children():
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)
