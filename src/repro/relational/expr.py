"""Typed expression trees with per-evaluation CPU-cycle costs.

Every node knows how to evaluate itself against a tuple (given a
column-name -> position layout) and how many CPU cycles one evaluation
costs — the executor charges those cycles to the simulated CPU, and the
optimizer's cost model reuses the same numbers.
"""

from __future__ import annotations

import operator as _op
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ExpressionError

Layout = Mapping[str, int]

# Cycle costs per node evaluation; deliberately simple, in the spirit of
# "simple models for device access times work well in practice" (§4.1).
CYCLES_COLUMN_REF = 2.0
CYCLES_LITERAL = 0.0
CYCLES_COMPARE = 4.0
CYCLES_ARITHMETIC = 3.0
CYCLES_BOOL = 2.0
CYCLES_BETWEEN = 6.0
CYCLES_IN_PER_ITEM = 1.5
CYCLES_LIKE_PER_CHAR = 0.5


class Expr:
    """Base expression node."""

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        """Value of this expression for one tuple."""
        raise NotImplementedError

    def cycles(self) -> float:
        """CPU cycles one evaluation costs (recursive)."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns the expression references."""
        raise NotImplementedError

    # -- sugar for building predicates ---------------------------------------
    def __eq__(self, other):  # type: ignore[override]
        return Comparison("=", self, _wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return Comparison("!=", self, _wrap(other))

    def __lt__(self, other):
        return Comparison("<", self, _wrap(other))

    def __le__(self, other):
        return Comparison("<=", self, _wrap(other))

    def __gt__(self, other):
        return Comparison(">", self, _wrap(other))

    def __ge__(self, other):
        return Comparison(">=", self, _wrap(other))

    def __add__(self, other):
        return Arithmetic("+", self, _wrap(other))

    def __sub__(self, other):
        return Arithmetic("-", self, _wrap(other))

    def __mul__(self, other):
        return Arithmetic("*", self, _wrap(other))

    def __truediv__(self, other):
        return Arithmetic("/", self, _wrap(other))

    def __and__(self, other):
        return BoolOp("and", [self, _wrap(other)])

    def __or__(self, other):
        return BoolOp("or", [self, _wrap(other)])

    def __invert__(self):
        return BoolOp("not", [self])

    def __bool__(self):
        raise ExpressionError(
            "expressions are not truthy; use & | ~ to combine predicates")


def _wrap(value: Any) -> Expr:
    return value if isinstance(value, Expr) else Literal(value)


class ColumnRef(Expr):
    """Reference to a column of the input tuple, by name."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ExpressionError("column name cannot be empty")
        self.name = name

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        try:
            return row[layout[self.name]]
        except KeyError:
            raise ExpressionError(
                f"column {self.name!r} not in layout {sorted(layout)}"
            ) from None

    def cycles(self) -> float:
        return CYCLES_COLUMN_REF

    def columns(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"col({self.name})"


def col(name: str) -> ColumnRef:
    """Shorthand constructor: ``col("l_quantity") < 24``."""
    return ColumnRef(name)


class Literal(Expr):
    """A constant."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        return self.value

    def cycles(self) -> float:
        return CYCLES_LITERAL

    def columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": _op.eq, "!=": _op.ne, "<": _op.lt,
    "<=": _op.le, ">": _op.gt, ">=": _op.ge,
}


class Comparison(Expr):
    """Binary comparison; NULL operands compare to NULL (falsy)."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        lhs = self.left.evaluate(row, layout)
        rhs = self.right.evaluate(row, layout)
        if lhs is None or rhs is None:
            return None
        return _COMPARATORS[self.op](lhs, rhs)

    def cycles(self) -> float:
        return CYCLES_COMPARE + self.left.cycles() + self.right.cycles()

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": _op.add, "-": _op.sub, "*": _op.mul, "/": _op.truediv,
}


class Arithmetic(Expr):
    """Binary arithmetic; NULL-propagating."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITHMETIC:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        lhs = self.left.evaluate(row, layout)
        rhs = self.right.evaluate(row, layout)
        if lhs is None or rhs is None:
            return None
        if self.op == "/" and rhs == 0:
            raise ExpressionError("division by zero")
        return _ARITHMETIC[self.op](lhs, rhs)

    def cycles(self) -> float:
        return CYCLES_ARITHMETIC + self.left.cycles() + self.right.cycles()

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BoolOp(Expr):
    """AND / OR / NOT with SQL-ish three-valued NULL handling."""

    def __init__(self, op: str, operands: Sequence[Expr]) -> None:
        if op not in ("and", "or", "not"):
            raise ExpressionError(f"unknown boolean operator {op!r}")
        if op == "not" and len(operands) != 1:
            raise ExpressionError("NOT takes exactly one operand")
        if op != "not" and len(operands) < 2:
            raise ExpressionError(f"{op.upper()} needs >= 2 operands")
        self.op = op
        self.operands = list(operands)

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        if self.op == "not":
            value = self.operands[0].evaluate(row, layout)
            return None if value is None else not value
        saw_null = False
        for operand in self.operands:
            value = operand.evaluate(row, layout)
            if value is None:
                saw_null = True
            elif self.op == "and" and not value:
                return False
            elif self.op == "or" and value:
                return True
        if saw_null:
            return None
        return self.op == "and"

    def cycles(self) -> float:
        return CYCLES_BOOL * len(self.operands) + sum(
            o.cycles() for o in self.operands)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for operand in self.operands:
            out |= operand.columns()
        return out

    def __repr__(self) -> str:
        if self.op == "not":
            return f"not({self.operands[0]!r})"
        joiner = f" {self.op} "
        return "(" + joiner.join(repr(o) for o in self.operands) + ")"


class Between(Expr):
    """``low <= expr <= high`` in one node."""

    def __init__(self, value: Expr, low: Any, high: Any) -> None:
        self.value = value
        self.low = _wrap(low)
        self.high = _wrap(high)

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        v = self.value.evaluate(row, layout)
        lo = self.low.evaluate(row, layout)
        hi = self.high.evaluate(row, layout)
        if v is None or lo is None or hi is None:
            return None
        return lo <= v <= hi

    def cycles(self) -> float:
        return (CYCLES_BETWEEN + self.value.cycles()
                + self.low.cycles() + self.high.cycles())

    def columns(self) -> set[str]:
        return (self.value.columns() | self.low.columns()
                | self.high.columns())

    def __repr__(self) -> str:
        return f"between({self.value!r}, {self.low!r}, {self.high!r})"


class InList(Expr):
    """Membership in a literal list."""

    def __init__(self, value: Expr, items: Iterable[Any]) -> None:
        self.value = value
        self.items = frozenset(items)
        if not self.items:
            raise ExpressionError("IN list cannot be empty")

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        v = self.value.evaluate(row, layout)
        if v is None:
            return None
        return v in self.items

    def cycles(self) -> float:
        return CYCLES_IN_PER_ITEM * len(self.items) + self.value.cycles()

    def columns(self) -> set[str]:
        return self.value.columns()

    def __repr__(self) -> str:
        return f"in({self.value!r}, {sorted(self.items)!r})"


class Case(Expr):
    """``CASE WHEN cond THEN value ... ELSE default END``.

    Conditions are evaluated in order; the first true branch wins.
    """

    def __init__(self, branches: Sequence[tuple[Expr, Any]],
                 default: Any = None) -> None:
        if not branches:
            raise ExpressionError("CASE needs at least one WHEN branch")
        self.branches = [(cond, _wrap(value)) for cond, value in branches]
        self.default = _wrap(default)

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        for condition, value in self.branches:
            if condition.evaluate(row, layout) is True:
                return value.evaluate(row, layout)
        return self.default.evaluate(row, layout)

    def cycles(self) -> float:
        # expected cost: half the branches tested, one value produced
        test_cost = sum(c.cycles() for c, _ in self.branches) / 2.0
        value_cost = max((v.cycles() for _, v in self.branches),
                         default=0.0)
        return CYCLES_BOOL + test_cost + value_cost

    def columns(self) -> set[str]:
        out = self.default.columns()
        for condition, value in self.branches:
            out |= condition.columns() | value.columns()
        return out

    def __repr__(self) -> str:
        parts = " ".join(f"when {c!r} then {v!r}"
                         for c, v in self.branches)
        return f"case({parts} else {self.default!r})"


class Like(Expr):
    """Simple string matching: prefix, suffix, or substring.

    Supports the three common shapes ``abc%``, ``%abc`` and ``%abc%``;
    full LIKE automata are out of scope.
    """

    def __init__(self, value: Expr, pattern: str) -> None:
        if not pattern:
            raise ExpressionError("empty LIKE pattern")
        self.value = value
        self.pattern = pattern
        body = pattern.strip("%")
        if "%" in body:
            raise ExpressionError(
                f"unsupported LIKE pattern {pattern!r}; "
                "only prefix/suffix/substring shapes")
        if pattern.startswith("%") and pattern.endswith("%"):
            self._match = lambda s: body in s
        elif pattern.endswith("%"):
            self._match = lambda s: s.startswith(body)
        elif pattern.startswith("%"):
            self._match = lambda s: s.endswith(body)
        else:
            self._match = lambda s: s == body

    def evaluate(self, row: Sequence[Any], layout: Layout) -> Any:
        v = self.value.evaluate(row, layout)
        if v is None:
            return None
        if not isinstance(v, str):
            raise ExpressionError(f"LIKE applied to non-string {v!r}")
        return self._match(v)

    def cycles(self) -> float:
        return CYCLES_LIKE_PER_CHAR * len(self.pattern) + self.value.cycles()

    def columns(self) -> set[str]:
        return self.value.columns()

    def __repr__(self) -> str:
        return f"like({self.value!r}, {self.pattern!r})"


def fold_constants(expr: Expr) -> Expr:
    """Pre-evaluate constant subtrees (the optimizer's cheapest rewrite).

    Any subtree referencing no columns is evaluated once and replaced by
    a :class:`Literal`, so per-tuple evaluation skips it.  AND/OR trees
    are additionally short-circuited when a folded operand decides them.
    """
    if isinstance(expr, (ColumnRef, Literal)):
        return expr
    if not expr.columns():
        try:
            return Literal(expr.evaluate((), {}))
        except ExpressionError:
            return expr  # e.g. division by zero: leave it to runtime
    if isinstance(expr, Comparison):
        return Comparison(expr.op, fold_constants(expr.left),
                          fold_constants(expr.right))
    if isinstance(expr, Arithmetic):
        return Arithmetic(expr.op, fold_constants(expr.left),
                          fold_constants(expr.right))
    if isinstance(expr, BoolOp):
        if expr.op == "not":
            return BoolOp("not", [fold_constants(expr.operands[0])])
        folded = [fold_constants(o) for o in expr.operands]
        kept: list[Expr] = []
        for operand in folded:
            if isinstance(operand, Literal):
                value = operand.value
                if expr.op == "and" and value is False:
                    return Literal(False)
                if expr.op == "or" and value is True:
                    return Literal(True)
                if value is True and expr.op == "and":
                    continue  # neutral element
                if value is False and expr.op == "or":
                    continue
            kept.append(operand)
        if not kept:
            return Literal(expr.op == "and")
        if len(kept) == 1:
            return kept[0]
        return BoolOp(expr.op, kept)
    if isinstance(expr, Between):
        return Between(fold_constants(expr.value),
                       fold_constants(expr.low),
                       fold_constants(expr.high))
    if isinstance(expr, Case):
        return Case([(fold_constants(c), fold_constants(v))
                     for c, v in expr.branches],
                    default=fold_constants(expr.default))
    return expr


def make_layout(names: Sequence[str]) -> dict[str, int]:
    """Build a name -> position mapping, rejecting duplicates."""
    layout = {name: i for i, name in enumerate(names)}
    if len(layout) != len(names):
        raise ExpressionError(f"duplicate column names in {names}")
    return layout
