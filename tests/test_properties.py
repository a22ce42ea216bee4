"""Property tests: seeded random formulas checked against brute force."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import brute_exists, truth_masks, witness_bound  # noqa: E402
from presburger.formulas import (  # noqa: E402
    FALSE,
    TRUE,
    And,
    Cmp,
    Congruence,
    Exists,
    LinearTerm,
    Not,
    Or,
    _simplify_atom,
    atoms_of,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    eval_ground,
    format_formula,
    neg,
    nnf,
    parse,
    simplify,
    substitute,
)
from presburger.genfun import gf_of_formula, hadamard, series_equal  # noqa: E402
from presburger.qelim import eliminate_exists  # noqa: E402
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


@st.composite
def linear_terms(draw, cmax):
    """A linear term whose coefficient on each name is in [-c, c], c from
    the dict cmax, with a constant in [-9, 9]."""
    return LinearTerm.of({n: draw(st.integers(-c, c)) for n, c in cmax.items()},
                         draw(st.integers(-9, 9)))


@st.composite
def qf_formulas(draw, cmax, mmax, depth=2):
    """A quantifier-free formula of the given depth at most with comparison
    and congruence atoms (moduli 2..mmax), and, or and not."""

    def formula(depth):
        kind = draw(st.integers(0, 3)) if depth else 0
        if kind == 0:
            t = draw(linear_terms(cmax))
            op = draw(st.integers(0, 2))
            if op < 2:
                return cmp_ge(t) if op == 0 else cmp_eq(t)
            m = draw(st.integers(2, mmax))
            return congruence(t, m, draw(st.integers(0, m - 1)))
        if kind == 3:
            return neg(formula(depth - 1))
        parts = [formula(depth - 1) for _ in range(draw(st.integers(2, 3)))]
        return conj(parts) if kind == 1 else disj(parts)

    return formula(depth)


XYZ = {"x": 3, "y": 3, "z": 3}


@hypothesis.given(qf_formulas(XYZ, 6), linear_terms(XYZ))
def test_substitute_folds_and_keeps_meaning(f, t):
    g = substitute(f, "x", t)
    if g not in (TRUE, FALSE):
        for a in atoms_of(g):
            assert a not in (TRUE, FALSE), (format_formula(g), a)
            if isinstance(a, Cmp):
                assert _simplify_atom(a) == a, (format_formula(g), a)
    for pt in itertools.product(range(4), repeat=3):
        env = dict(zip(XYZ, pt))
        assert eval_ground(g, env) == eval_ground(
            f, {**env, "x": t.eval(env)}), (format_formula(f), t, env)


@hypothesis.given(qf_formulas({"x": 4, "y": 3}, 12))
def test_eliminate_exists_matches_search(body):
    g = eliminate_exists("x", body)
    for y in range(10):
        assert eval_ground(g, {"y": y}) == brute_exists(body, "x", {"y": y}), (
            format_formula(body), y)


@hypothesis.settings(max_examples=20)  # the profile's other settings hold
@hypothesis.given(qf_formulas({"x": 2, "y": 2}, 4),
                  qf_formulas({"x": 2, "y": 2}, 4))
def test_hadamard_of_two_sets_is_their_intersection(f, g):
    """GF(A) times GF(B) coefficientwise is GF(A & B), on a box."""
    h = hadamard(gf_of_formula(f, NAMES), gf_of_formula(g, NAMES))
    assert series_equal(h, gf_of_formula(conj([f, g]), NAMES), BOX), (
        format_formula(f), format_formula(g))


@hypothesis.given(qf_formulas({"x": 3, "y": 3}, 6),
                  qf_formulas({"x": 2, "y": 2, "z": 2}, 4, depth=1))
def test_general_dnf_cells_exact_and_disjoint(f, body):
    """The to_dnf cells of a formula with equalities, inequalities and
    congruences, and of one E over such a body, are pairwise disjoint and
    hold exactly the formula's solutions on a box."""
    g = Exists("z", body)
    for h in (f, g):
        cells = to_dnf(h, NAMES).cells
        for pt in itertools.product(range(BOX), repeat=2):
            env = dict(zip(NAMES, pt))
            hits = sum(1 for cell in cells if cell.contains(pt))
            assert hits <= 1, (format_formula(h), pt, "cells overlap")
            bound = witness_bound(body, "z", env) if h is g else 0
            assert (hits == 1) == eval_ground(h, env, bound), (
                format_formula(h), pt)


@st.composite
def raw_trees(draw):
    """A tree of And, Or and Not nodes over x, y built without conj, disj
    or neg, so no residue set is merged on the way in.  Its atoms are
    single-residue congruences from one or two groups (one term, a
    modulus in 2..12) and a few bounds."""
    terms = (LinearTerm.var("x"), LinearTerm.var("y"),
             LinearTerm.of({"x": 1, "y": 1}))
    groups = [(draw(st.sampled_from(terms)), draw(st.integers(2, 12)))
              for _ in range(draw(st.integers(1, 2)))]

    def atom():
        if draw(st.integers(0, 4)) == 0:
            term = LinearTerm(((draw(st.sampled_from(NAMES)),
                                draw(st.sampled_from((1, -1)))),),
                              draw(st.integers(-9, 3)))
            return Cmp(term, ">=")
        term, m = draw(st.sampled_from(groups))
        return Congruence(term, m, (draw(st.integers(0, m - 1)),))

    def tree(depth):
        kind = draw(st.integers(0, 3)) if depth else 0
        if kind == 0:
            return atom()
        if kind == 3:
            return Not(tree(depth - 1))
        parts = tuple(tree(depth - 1) for _ in range(draw(st.integers(2, 3))))
        return And(parts) if kind == 1 else Or(parts)

    return tree(3)


def _rebuild(f):
    """f with every node rebuilt by conj, disj and neg."""
    if isinstance(f, Not):
        return neg(_rebuild(f.inner))
    if isinstance(f, (And, Or)):
        parts = [_rebuild(p) for p in f.parts]
        return conj(parts) if isinstance(f, And) else disj(parts)
    return f


@hypothesis.given(raw_trees())
def test_residue_sets_match_an_independent_evaluator(f):
    box = list(itertools.product(range(BOX), repeat=2))
    points = [dict(zip(NAMES, pt)) for pt in box]
    full = (1 << len(points)) - 1
    gs = [_rebuild(f), nnf(f), simplify(f), nnf(Not(f))]
    gs += [parse(format_formula(g)) for g in gs]
    want, *masks = truth_masks([f] + gs, points)
    text = format_formula(f)
    assert want == sum(1 << i for i, env in enumerate(points)
                       if eval_ground(f, env)), text
    assert masks == [want, want, want, full ^ want] * 2, text
    union = 0
    for cell in to_dnf(f, NAMES).cells:
        mask = sum(1 << i for i, pt in enumerate(box) if cell.contains(pt))
        assert not union & mask, (text, "cells overlap")
        union |= mask
    assert union == want, text
