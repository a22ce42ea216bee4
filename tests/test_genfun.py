"""Generating functions: fixtures with known closed forms, series checks,
Brion decomposition on small polyhedra, specialization at 1."""

import itertools
import random
from fractions import Fraction

import pytest

from oracles import series_oracle
from presburger.formulas import (
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
from presburger.genfun import (
    DivergentSpecialization,
    GFTerm,
    RationalGF,
    _gf_of_cone,
    _gf_of_integer_points,
    cardinality,
    counting_gf,
    gf_add,
    gf_const,
    gf_monomial,
    gf_mul,
    gf_of_cell,
    gf_of_formula,
    gf_of_semilinear,
    make_term,
    monomial_substitute,
    rgf,
    series_coeffs,
    series_equal,
    specialize_ones,
)
from presburger.lattices import Lattice, LatticeCoset
from presburger.polyhedra import Cone, Polyhedron
from presburger.quasipoly import hadamard_univariate, is_zero_univariate
from presburger.semilinear import SemilinearCell, to_dnf


def box(d, hi):
    return itertools.product(range(hi + 1), repeat=d)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def indicator(f, names, hi):
    out = {}
    for pt in box(len(names), hi):
        if eval_ground(f, dict(zip(names, pt))):
            out[pt] = 1
    return out


def test_make_term_flips_lex_negative():
    t = make_term(1, (0,), [(-2,)])
    # 1/(1 - x^-2) = -x^2/(1 - x^2)
    assert t == GFTerm(Fraction(-1), (2,), ((2,),))
    t2 = make_term(3, (1, 0), [(0, -1), (1, -5)])
    assert t2.denom == ((0, 1), (1, -5))
    assert t2.coef == Fraction(-3)
    assert t2.numer == (1, 1)


def test_series_partition_two_parts():
    g = rgf(("x",), [make_term(1, (0,), [(1,), (2,)])])
    got = series_coeffs(g, 20)
    for n in range(21):
        assert got[(n,)] == n // 2 + 1


def test_series_repeated_factor():
    g = rgf(("x",), [make_term(1, (0,), [(1,), (1,)])])
    got = series_coeffs(g, 15)
    assert got == {(n,): n + 1 for n in range(16)}


def test_series_cancellation():
    one_minus = gf_add(gf_const(("x",), 1), gf_monomial(("x",), -1, (1,)))
    geom = rgf(("x",), [make_term(1, (0,), [(1,)])])
    assert series_equal(gf_mul(one_minus, geom), gf_const(("x",), 1), 12)


def test_series_dim_zero():
    assert series_coeffs(gf_const((), 5), 3) == {(): 5}
    assert series_coeffs(rgf((), []), 3) == {}


def test_series_coeffs_random_against_enumeration():
    rng = random.Random(2468)
    for trial in range(150):
        d = 1 + trial % 3
        E = (3, 2, 1)[d - 1]  # largest |entry| of a denominator vector
        terms = []
        for _ in range(rng.randint(1, 2)):
            denoms = []
            for _ in range(rng.randint(0, 3 if d < 3 else 2)):
                b = (0,) * d
                while not any(b):
                    b = tuple(rng.randint(-E, E) for _ in range(d))
                denoms.append(b)
            numer = tuple(rng.randint(-2, 2) for _ in range(d))
            coef = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
            terms.append(make_term(coef, numer, denoms))
        g = rgf(tuple(f"x{i}" for i in range(d)), terms)
        bound = rng.randint(0, 6)
        # tau = ((E+1)^(d-1), ..., 1) has tau.b >= 1 on every lex-positive
        # b with entries in [-E, E], so every k reaching the box has
        # k_j <= (cap - tau.numer) / tau.b_j
        tau = tuple((E + 1) ** (d - 1 - i) for i in range(d))
        cap = bound * sum(tau)
        K = max([0] + [(cap - dot(tau, t.numer)) // dot(tau, b)
                       for t in g.terms for b in t.denom])
        assert series_coeffs(g, bound) == series_oracle(g, bound, K)


def test_cell_odd_at_least_three():
    # {u >= 2} intersected with 1 + 2Z is {3, 5, 7, ...} = x^3/(1 - x^2)
    cell = SemilinearCell(
        Polyhedron.of(1, [((1,), 2)]),
        LatticeCoset(Lattice(1, ((2,),)), (1,)))
    g = gf_of_cell(("u",), cell)
    assert g == RationalGF(("u",), (GFTerm(Fraction(1), (3,), ((2,),)),))
    got = series_coeffs(g, 19)
    assert got == {(n,): 1 for n in range(3, 20, 2)}


def test_cone_fixture():
    # cone over (1,0) and (1,2): parallelepiped holds (0,0) and (1,1)
    cone = Cone((Fraction(0), Fraction(0)), ((1, 0), (1, 2)))
    g = _gf_of_cone(("a", "b"), cone)
    assert set(g.terms) == {
        GFTerm(Fraction(1), (0, 0), ((1, 0), (1, 2))),
        GFTerm(Fraction(1), (1, 1), ((1, 0), (1, 2))),
    }
    got = series_coeffs(g, 8)
    # every integer point of the cone, not just combinations of the rays
    want = {(a, b): 1 for a in range(9) for b in range(9) if b <= 2 * a}
    assert got == want


def test_unit_square_brion():
    rows = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
    g = _gf_of_integer_points(("x", "y"), Polyhedron.of(2, rows))
    assert series_coeffs(g, 4) == {
        (0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_triangle_brion():
    # x >= 0, y >= 0, x + y <= 5: all tangent cone arithmetic is exercised
    rows = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -5)]
    g = _gf_of_integer_points(("x", "y"), Polyhedron.of(2, rows))
    got = series_coeffs(g, 6)
    assert got == {(x, y): 1 for x in range(6) for y in range(6 - x)}


def test_formula_gf_equality_line():
    g = gf_of_formula(parse("3*a + 5*b = 20"), ["a", "b"])
    assert series_coeffs(g, 20) == {(5, 1): 1, (0, 4): 1}
    assert cardinality(g) == 2


def test_formula_gf_congruence_strip():
    f = parse("x % 3 = 1 & x + y <= 7")
    g = gf_of_formula(f, ["x", "y"])
    assert series_coeffs(g, 8) == indicator(f, ["x", "y"], 8)
    assert cardinality(g) == sum(indicator(f, ["x", "y"], 7).values())


def test_monomial_substitute():
    g = rgf(("u",), [make_term(1, (0,), [(1,)])])
    h = monomial_substitute(g, ("x", "y"), [(1, 1)])
    assert series_coeffs(h, 6) == {(n, n): 1 for n in range(7)}
    with pytest.raises(ValueError):
        monomial_substitute(g, ("x", "y"), [(0, 0)])
    with pytest.raises(AssertionError):
        monomial_substitute(g, ("x", "y"), [(-1, 2)])


def test_specialize_keeps_structure():
    g = rgf(("x", "y"), [make_term(1, (0, 0), [(1, 1), (1, 0)])])
    h = specialize_ones(g, [1])
    assert h == rgf(("x",), [make_term(1, (0,), [(1,), (1,)])])
    assert series_coeffs(h, 10) == {(n,): n + 1 for n in range(11)}


def test_specialize_divergent():
    g = rgf(("y",), [make_term(1, (0,), [(1,)])])
    with pytest.raises(DivergentSpecialization):
        specialize_ones(g, [0])


def test_specialize_telescope():
    # (1 - x^1000)/(1 - x) lists 1000 points even though the pole at 1
    # only cancels between the two terms
    g = rgf(("x",), [make_term(1, (0,), [(1,)]),
                     make_term(-1, (1000,), [(1,)])])
    assert cardinality(g) == 1000


def test_specialize_partial_box():
    # sum over the 3x4 box, then only over x: y keeps its exponent
    g = gf_of_formula(parse("x <= 2 & y <= 3"), ["x", "y"])
    h = specialize_ones(g, [0])
    assert series_coeffs(h, 5) == {(y,): 3 for y in range(4)}
    assert cardinality(g) == 12


def test_cardinality_rejects_fractional_count():
    with pytest.raises(ValueError):
        cardinality(gf_const(("x",), Fraction(1, 2)))


def test_counting_gf_interval():
    g = counting_gf(parse("x <= p"), ["x"], ["p"])
    assert g.names == ("p",)
    assert series_coeffs(g, 12) == {(p,): p + 1 for p in range(13)}


def test_counting_gf_divergent():
    f = parse("y >= 0 & p >= 0")
    with pytest.raises(DivergentSpecialization):
        counting_gf(f, ["y"], ["p"])


def test_random_formulas_series_match():
    rng = random.Random(97531)
    names2 = ["x", "y"]
    for trial in range(20):
        d = rng.randint(1, 2)
        names = names2[:d]
        atoms = []
        for _ in range(rng.randint(1, 4)):
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
                atoms.append(congruence(term.drop_constant(), m,
                                        rng.randrange(m)))
        f = atoms[0]
        for a in atoms[1:]:
            op = rng.randrange(3)
            if op == 0:
                f = conj([f, a])
            elif op == 1:
                f = disj([f, a])
            else:
                f = conj([f, neg(a)])
        g = gf_of_semilinear(to_dnf(f, names))
        hi = 8 if d == 2 else 14
        assert series_coeffs(g, hi) == indicator(f, names, hi), \
            format_formula(f)


def test_hadamard_indicator_intersection():
    # 1/(1-x) * 1/(1-x^2) pointwise = indicator of even numbers
    f = rgf(("x",), [make_term(1, (0,), ((1,),))])
    g = rgf(("x",), [make_term(1, (0,), ((2,),))])
    h = hadamard_univariate(f, g)
    assert series_equal(h, g, 30)


def test_hadamard_squares_sequence():
    # (p+1) * (p+1) = (p+1)^2
    f = rgf(("x",), [make_term(1, (0,), ((1,), (1,)))])
    h = hadamard_univariate(f, f)
    table = series_coeffs(h, 25)
    for p in range(26):
        assert table.get((p,), Fraction(0)) == (p + 1) ** 2


def test_hadamard_with_zero():
    f = rgf(("x",), [make_term(1, (0,), ((1,), (2,)))])
    z = rgf(("x",), [])
    assert not hadamard_univariate(f, z).terms


def test_hadamard_periodic_pair():
    f = rgf(("x",), [make_term(1, (0,), ((2,), (3,)))])
    g = rgf(("x",), [make_term(1, (1,), ((2,),))])
    h = hadamard_univariate(f, g)
    tf = series_coeffs(f, 40)
    tg = series_coeffs(g, 40)
    th = series_coeffs(h, 40)
    for p in range(41):
        want = tf.get((p,), Fraction(0)) * tg.get((p,), Fraction(0))
        assert th.get((p,), Fraction(0)) == want, p


def test_is_zero_univariate():
    # 1/(1-x^2) + x/(1-x^2) - 1/(1-x) vanishes identically
    f = rgf(("x",), [make_term(1, (0,), ((2,),)),
                     make_term(1, (1,), ((2,),)),
                     make_term(-1, (0,), ((1,),))])
    assert is_zero_univariate(f)
    g = rgf(("x",), [make_term(1, (0,), ((1,),)),
                     make_term(-1, (1,), ((1,),))])
    assert not is_zero_univariate(g)
    assert is_zero_univariate(rgf(("x",), []))
