"""Property tests: seeded random formulas checked against brute force."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from presburger.formulas import (  # noqa: E402
    LinearTerm,
    cmp_ge,
    congruence,
    conj,
    disj,
    eval_ground,
    format_formula,
    neg,
)
from presburger.semilinear import to_dnf  # noqa: E402

NAMES = ("x", "y")
BOX = 14


@st.composite
def congruence_formulas(draw):
    """A formula over x, y on one or two congruence groups with bounds."""
    groups = [(LinearTerm.of({"x": 1}), draw(st.sampled_from((4, 6, 8, 9, 12))))]
    if draw(st.booleans()):
        coeffs = draw(st.sampled_from(({"y": 1}, {"x": 1, "y": 2},
                                       {"x": 1, "y": 1})))
        groups.append((LinearTerm.of(coeffs), draw(st.sampled_from((2, 4, 6)))))

    def atom():
        if draw(st.integers(0, 3)) == 0:
            coeffs = draw(st.sampled_from(({"x": 1}, {"y": 1}, {"x": -1},
                                           {"x": 1, "y": -1})))
            return cmp_ge(LinearTerm.of(coeffs, draw(st.integers(-9, 3))))
        term, m = draw(st.sampled_from(groups))
        return congruence(term, m, draw(st.integers(0, m - 1)))

    def formula(depth):
        kind = draw(st.integers(0, 3)) if depth else 0
        if kind == 0:
            return atom()
        if kind == 3:
            return neg(formula(depth - 1))
        parts = [formula(depth - 1) for _ in range(draw(st.integers(2, 3)))]
        return conj(parts) if kind == 1 else disj(parts)

    return formula(3)


@hypothesis.given(congruence_formulas())
def test_dnf_cells_exact_and_disjoint(f):
    s = to_dnf(f, NAMES)
    for pt in itertools.product(range(BOX), repeat=2):
        hits = sum(1 for cell in s.cells if cell.contains(pt))
        assert hits <= 1, (format_formula(f), pt, "cells overlap")
        assert (hits == 1) == eval_ground(f, dict(zip(NAMES, pt))), (
            format_formula(f), pt)
