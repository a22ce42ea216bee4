"""Cell decompositions: disjointness, exact membership, round trips."""

import itertools
import random

import pytest

from presburger.formulas import (
    Congruence,
    LinearTerm,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    eval_ground,
    format_formula,
    neg,
    parse,
)
from presburger.polyhedra import has_interior
from presburger.semilinear import (
    SemilinearSet,
    formula_from_semilinear,
    to_dnf,
)


def box(names, hi):
    for pt in itertools.product(range(hi + 1), repeat=len(names)):
        yield pt


def check_exact(f, names, hi=8, bound=0):
    # bound: quantifier range for the reference evaluation; callers pass a
    # value that provably dominates the witnesses of their formula
    s = to_dnf(f, names)
    assert s.names == tuple(names)
    for pt in box(names, hi):
        env = dict(zip(names, pt))
        expected = eval_ground(f, env, bound)
        hits = sum(1 for cell in s.cells if cell.contains(pt))
        assert hits <= 1, (format_formula(f), pt, "cells overlap")
        assert (hits == 1) == expected, (format_formula(f), pt)
    return s


def test_true_false_and_closed():
    s = to_dnf(parse("0 = 1"), ["x"])
    assert s.cells == ()
    t = to_dnf(parse("0 = 0"), ["x"])
    assert len(t.cells) == 1 and t.contains((7,))
    closed = to_dnf(parse("E a. E b. 3*a + 5*b = 8"))
    assert closed.dim == 0 and closed.contains(())


def test_single_inequality():
    s = check_exact(parse("x >= 3"), ["x"], 10)
    assert len(s.cells) == 1
    assert not s.contains((2,))
    assert s.contains((3,))


def test_congruence_cells():
    s = check_exact(parse("x % 2 = 1"), ["x"], 12)
    assert len(s.cells) == 1
    cell = s.cells[0]
    assert cell.coset.lattice.index() == 2


def test_negated_congruence_cells():
    # one cell per residue class other than the excluded one
    s = check_exact(parse("!(x % 199 = 3)"), ["x"], 600)
    assert len(s.cells) == 198
    check_exact(parse("!(x + 2*y % 101 = 5)"), ["x", "y"], 40)
    # several residues of one congruence group, some under a negation
    check_exact(parse("(x % 7 = 1 | x % 7 = 3) & !(x % 7 = 3 & y % 4 = 2)"),
                ["x", "y"], 30)


def test_negated_composite_congruence_cells():
    # one cell per residue whatever the factors of m, each a class mod m
    s = check_exact(parse("!(x % 200 = 3)"), ["x"], 210)
    assert len(s.cells) == 199
    assert {c.coset.lattice.index() for c in s.cells} == {200}
    s = check_exact(parse("!(x + 2*y % 100 = 61)"), ["x", "y"], 40)
    assert len(s.cells) == 99
    s = check_exact(parse("x % 4 = 1 | x % 4 = 3 | x % 4 = 0 & x >= 9"),
                    ["x"], 30)
    assert len(s.cells) == 3


def test_positive_congruence_with_large_prime_modulus():
    # residues no atom names are false, so the split never lists them
    s = to_dnf(parse("x % 1000003 = 5 & y % 999983 = 7"), ["x", "y"])
    assert len(s.cells) == 1
    assert s.contains((1000008, 7)) and not s.contains((5, 8))


def test_congruence_term_with_a_constant_is_rejected():
    # parse and congruence() fold the constant into the residue; a
    # Congruence built directly with one is refused
    with pytest.raises(ValueError, match="constant=5"):
        Congruence(LinearTerm.of({"x": 1}, 5), 3, (1,))
    s = to_dnf(congruence(LinearTerm.of({"x": 1}, 5), 3, 1), ["x"])
    assert [x for x in range(9) if s.contains((x,))] == [2, 5, 8]


def test_odd_after_elimination():
    # witness b = (p-1)/2 never exceeds p, so bound=16 covers the box
    s = check_exact(parse("E b. p = 2*b + 1"), ["p"], 16, bound=16)
    for p in range(40):
        assert s.contains((p,)) == (p % 2 == 1)


def test_two_vars_mixed():
    f = parse("x + 2*y >= 4 & x % 3 = 1")
    check_exact(f, ["x", "y"], 8)
    g = parse("x = y | x >= y + 2")
    check_exact(g, ["x", "y"], 7)


def test_names_superset_allowed():
    # y unused in the formula; cells still live in the (x, y) plane
    s = check_exact(parse("x >= 2"), ["x", "y"], 6)
    assert s.dim == 2


def test_equality_three_way_split_disjoint():
    f = parse("!(x = y)")
    s = check_exact(f, ["x", "y"], 7)
    assert all(not cell.polyhedron.eqs for cell in s.cells)


def test_random_formulas_exact_and_disjoint():
    rng = random.Random(2718)
    names3 = ["x", "y", "z"]
    for trial in range(40):
        d = rng.randint(1, 3)
        names = names3[:d]
        atoms = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {n: rng.randint(-3, 3)
                      for n in rng.sample(names, rng.randint(1, d))}
            term = LinearTerm.of(coeffs, rng.randint(-6, 6))
            kind = rng.randrange(4)
            if kind <= 1:
                atoms.append(cmp_ge(term))
            elif kind == 2:
                atoms.append(cmp_eq(term))
            else:
                m = rng.randint(2, 4)
                atoms.append(congruence(LinearTerm(term.coeffs), m, rng.randrange(m)))
        f = atoms[0]
        for a in atoms[1:]:
            op = rng.randrange(3)
            if op == 0:
                f = conj([f, a])
            elif op == 1:
                f = disj([f, a])
            else:
                f = conj([f, neg(a)])
        check_exact(f, names, 7 if d <= 2 else 5)


def test_split_stops_once_the_formula_is_decided():
    # a branch on which x % 2 = 1 (or x >= 5) holds splits on nothing else
    for text, names in (("x % 2 = 1 | x >= 5", ["x"]),
                        ("x >= 5 | y >= 5", ["x", "y"])):
        assert len(check_exact(parse(text), names, 12).cells) == 2
    # witnesses y <= x/3 and z <= x/5, so bound=30 covers the box
    s = check_exact(parse("E y. E z. x = 3*y + 5*z"), ["x"], 30, bound=30)
    assert len(s.cells) <= 5


def test_semigroup_cells():
    s = to_dnf(parse("E y. E z. E u. x = 4*y + 7*z + 9*u"))
    assert len(s.cells) <= 12
    member = [True] + [False] * 60
    for n in range(1, 61):
        member[n] = any(n >= a and member[n - a] for a in (4, 7, 9))
    for x in range(61):
        hits = sum(1 for cell in s.cells if cell.contains((x,)))
        assert hits == member[x], x


def test_formula_round_trip():
    cases = [
        parse("x >= 3 & x % 2 = 0"),
        parse("x + y >= 4 | x = 2*y"),
        parse("x % 3 = 1 & y % 2 = 1 & x + y >= 3"),
        parse("!(x >= y) | x = y + 1"),
    ]
    for f in cases:
        names = ["x", "y"]
        s = to_dnf(f, names)
        g = formula_from_semilinear(s)
        for pt in box(names, 8):
            env = dict(zip(names, pt))
            assert eval_ground(f, env) == eval_ground(g, env), format_formula(f)


def test_full_dimensional_cells_marked():
    f = parse("x = y | x >= y + 2")
    s = to_dnf(f, ["x", "y"])
    kinds = sorted(has_interior(c.polyhedron) for c in s.cells)
    assert True in kinds and False in kinds
