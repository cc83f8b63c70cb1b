"""Unit tests for constant folding."""

from repro.relational.expr import (
    Arithmetic,
    Between,
    BoolOp,
    Case,
    Comparison,
    Literal,
    col,
    fold_constants,
    make_layout,
)


LAYOUT = make_layout(["a", "b"])


class TestConstantFolding:
    def evaluate(self, expr, row=(5, 10)):
        return expr.evaluate(row, LAYOUT)

    def test_arithmetic_folds(self):
        expr = fold_constants(Literal(2) + Literal(3))
        assert isinstance(expr, Literal)
        assert expr.value == 5

    def test_partial_fold_inside_comparison(self):
        expr = fold_constants(col("a") < (Literal(2) * Literal(50)))
        assert isinstance(expr, Comparison)
        assert isinstance(expr.right, Literal)
        assert expr.right.value == 100
        assert self.evaluate(expr) is True

    def test_and_short_circuits_false(self):
        expr = fold_constants((col("a") > 0) & Literal(False))
        assert isinstance(expr, Literal)
        assert expr.value is False

    def test_or_short_circuits_true(self):
        expr = fold_constants((col("a") > 0) | Literal(True))
        assert isinstance(expr, Literal)
        assert expr.value is True

    def test_neutral_operands_dropped(self):
        expr = fold_constants((col("a") > 0) & Literal(True))
        assert isinstance(expr, Comparison)  # the AND disappeared

    def test_folding_preserves_semantics(self):
        original = ((col("a") + (Literal(1) + Literal(2)))
                    > (Literal(10) / Literal(5)))
        folded = fold_constants(original)
        for row in [(0, 0), (5, 1), (-10, 2)]:
            assert folded.evaluate(row, LAYOUT) == \
                original.evaluate(row, LAYOUT)

    def test_folded_expression_is_cheaper(self):
        original = col("a") < (Literal(2) * Literal(3) + Literal(4))
        folded = fold_constants(original)
        assert folded.cycles() < original.cycles()

    def test_between_and_case_fold_children(self):
        expr = fold_constants(Between(col("a"), Literal(1) + Literal(1),
                                      Literal(10) * Literal(2)))
        assert isinstance(expr, Between)
        assert isinstance(expr.low, Literal) and expr.low.value == 2
        case = fold_constants(Case(
            [(col("a") > Literal(2) + Literal(2), Literal(1))],
            default=Literal(3) * Literal(3)))
        assert isinstance(case, Case)
        assert case.default.value == 9

    def test_division_by_zero_left_to_runtime(self):
        expr = fold_constants(Arithmetic("/", Literal(1), Literal(0)))
        assert not isinstance(expr, Literal)

    def test_fully_constant_boolop(self):
        expr = fold_constants(BoolOp("and", [Literal(True),
                                             Literal(True)]))
        assert isinstance(expr, Literal)
        assert expr.value is True
