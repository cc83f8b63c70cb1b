"""Plan utilities: validation and pretty-printing."""

from __future__ import annotations

from repro.errors import PlanError
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


def validate(root: Operator) -> None:
    """Structural checks: acyclicity and output-column consistency."""
    seen: set[int] = set()

    def walk(op: Operator) -> None:
        if id(op) in seen:
            raise PlanError(
                f"operator {op.describe()} appears twice in the plan; "
                "operator trees must not share nodes")
        seen.add(id(op))
        if not op.output_columns:
            raise PlanError(f"{op.describe()} produces no columns")
        for child in op.children():
            walk(child)

    walk(root)
