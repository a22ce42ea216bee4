"""Acceptance gate: the ten headline behaviors, each exact.

Every test prints one PASS line on success (visible with -s); a failure
shows up as an ordinary pytest failure for that criterion.
"""

import itertools
import json
import random
from fractions import Fraction
from math import comb, gcd

from oracles import count_solutions, partition_count
from presburger.cli import main
from presburger.formulas import (
    LinearTerm,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    eval_ground,
    neg,
    parse,
)
from presburger.genfun import (
    make_term,
    gf_of_cell,
    rgf,
    series_coeffs,
    series_equal,
    specialize_ones,
)
from presburger.lattices import Lattice, full_coset
from presburger.polyhedra import Polyhedron, has_interior
from presburger.qelim import is_quantifier_free, qelim
from presburger.quasipoly import (
    QuasiPolynomial,
    PiecewiseQuasiPolynomial,
    eventual_pqp,
    hadamard_univariate,
    is_zero_univariate,
    pqp_to_rgf,
    rgf_to_pqp,
    synth_formula,
    vpf_pqp,
)
from presburger.semilinear import SemilinearCell, to_dnf
from presburger.serialize import gf_from_obj, pqp_from_obj

F = Fraction

TRIANGLE_EVEN = {(2,): F(1, 8), (1,): F(3, 4), (0,): F(1)}
TRIANGLE_ODD = {(2,): F(1, 8), (1,): F(1, 2), (0,): F(3, 8)}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert rc == 0, argv
    return out


def test_c01_quantifier_elimination_fidelity():
    g = qelim(parse("E b. u > 1 & 2*b + 1 = u"))
    assert is_quantifier_free(g)
    for u in range(201):
        want = u > 1 and u % 2 == 1
        assert eval_ground(g, {"u": u}) == want, u
    print("C1 quantifier elimination fidelity: PASS")


def test_c02_generating_function_of_odd_set(capsys):
    out = run_cli(capsys, "genfun", "u > 1 & u % 2 = 1",
                  "--format", "json")
    g = gf_from_obj(json.loads(out))
    table = series_coeffs(g, 200)
    for u in range(201):
        want = F(1) if (u > 1 and u % 2 == 1) else F(0)
        assert table.get((u,), F(0)) == want, u
    print("C2 generating function of the odd set: PASS")


def test_c03_cone_example():
    # cone spanned by (1,0) and (1,2): points with 0 <= x2 <= 2 x1
    cell = SemilinearCell(
        Polyhedron.of(2, [((0, 1), 0), ((2, -1), 0)]), full_coset(2))
    g = gf_of_cell(("x1", "x2"), cell)
    table = series_coeffs(g, 12)
    for a in range(13):
        for b in range(13):
            want = F(1) if b <= 2 * a else F(0)
            assert table.get((a, b), F(0)) == want, (a, b)
    closed = rgf(("x1", "x2"), [
        make_term(1, (0, 0), ((1, 0), (1, 2))),
        make_term(1, (1, 1), ((1, 0), (1, 2))),
    ])
    assert series_equal(g, closed, 12)
    print("C3 cone generating function: PASS")


def test_c04_triangle_counting_function(capsys):
    out = run_cli(capsys, "count", "2*c1 + 2*c2 <= p",
                  "--count-vars", "c1,c2", "--param-vars", "p",
                  "--as", "qp", "--format", "json")
    g = pqp_from_obj(json.loads(out))
    (cell, q), = g.pieces
    assert q.lattice.basis == ((2,),)
    assert q.constituents == {(0,): TRIANGLE_EVEN, (1,): TRIANGLE_ODD}
    out = run_cli(capsys, "count", "2*c1 + 2*c2 <= p",
                  "--count-vars", "c1,c2", "--param-vars", "p",
                  "--format", "json")
    gf = gf_from_obj(json.loads(out))
    target = rgf(("p",), [make_term(1, (0,), ((1,), (2,), (2,)))])
    assert series_equal(gf, target, 50)
    table = series_coeffs(gf, 4)
    assert [table.get((p,), F(0)) for p in range(5)] == [1, 1, 3, 3, 6]
    print("C4 triangle counting function: PASS")


def test_c05_laurent_specialization():
    g = rgf(("x",), [make_term(1, (0,), ((1,),)),
                     make_term(-1, (1000,), ((1,),))])
    s = specialize_ones(g, [0])
    assert s.dim == 0
    total = sum((t.coef for t in s.terms), F(0))
    assert total == 1000
    print("C5 specialization at 1 of a telescoping difference: PASS")


def test_c06_vector_partition_functions():
    g = vpf_pqp([(1,), (2,), (2,)])
    (cell, q), = g.pieces
    assert q.lattice.basis == ((2,),)
    assert q.constituents == {(0,): TRIANGLE_EVEN, (1,): TRIANGLE_ODD}
    gens = [(1, 0), (0, 1), (1, 1)]
    g2 = vpf_pqp(gens)
    for a in range(13):
        for b in range(13):
            assert g2.eval((a, b)) == partition_count(gens, (a, b)), (a, b)
    print("C6 vector partition functions: PASS")


def test_c07_rgf_pqp_round_trips():
    rng = random.Random(1317)
    for trial in range(20):
        terms = []
        for _ in range(rng.randrange(1, 3)):
            shift = rng.randrange(0, 6)
            dens = tuple(sorted((rng.randrange(1, 7),)
                                for _ in range(rng.randrange(1, 4))))
            terms.append(make_term(rng.randrange(1, 5), (shift,), dens))
        f = rgf(("x",), terms)
        g = rgf_to_pqp(f)
        table = series_coeffs(f, 40)
        for p in range(41):
            assert g.eval((p,)) == table.get((p,), F(0)), (trial, p)
        assert series_equal(pqp_to_rgf(g, names=("x",)), f, 40), trial
    linear = PiecewiseQuasiPolynomial(1, ((
        Polyhedron.of(1, [((1,), 0)]),
        QuasiPolynomial(1, Lattice.standard(1),
                        {(0,): {(1,): F(1), (0,): F(1)}})),))
    target = rgf(("p",), [make_term(1, (0,), ((1,), (1,)))])
    assert series_equal(pqp_to_rgf(linear), target, 40)
    print("C7 rgf/pqp round trips: PASS")


def test_c08_formula_synthesis():
    ray = Polyhedron.of(1, [((1,), 0)])

    def poly_qp(poly):
        return PiecewiseQuasiPolynomial(1, ((
            ray, QuasiPolynomial(1, Lattice.standard(1), {(0,): poly})),))

    cases = [
        (poly_qp({(2,): F(1)}), lambda p: p * p),
        (poly_qp({(2,): F(2), (1,): F(-3), (0,): F(1)}),
         lambda p: 2 * p * p - 3 * p + 1),
        (poly_qp({(0,): F(5)}), lambda p: 5),
        (PiecewiseQuasiPolynomial(1, ((
            ray, QuasiPolynomial(1, Lattice(1, ((2,),)),
                                 {(0,): TRIANGLE_EVEN,
                                  (1,): TRIANGLE_ODD})),)),
         lambda p: (p // 2 + 1) * (p // 2 + 2) // 2),
    ]
    for g, expect in cases:
        formula, counted = synth_formula(g)
        for p in range(31):
            got = count_solutions(formula, "p", p, counted)
            assert got == expect(p), (expect(30), p, got)
    print("C8 counting-function synthesis: PASS")


def _hyperplane_count(atoms):
    seen = set()
    for a in atoms:
        coeffs = tuple(c for _, c in a.term.coeffs)
        rhs = -a.term.constant
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        g = gcd(g, rhs)
        if g:
            coeffs = tuple(c // g for c in coeffs)
            rhs //= g
        lead = next((c for c in coeffs if c), 1)
        if lead < 0:
            coeffs = tuple(-c for c in coeffs)
            rhs = -rhs
        seen.add((coeffs, rhs))
    return len(seen)


def test_c09_semilinear_oracle_equivalence():
    rng = random.Random(90210)
    for trial in range(50):
        d = rng.randint(1, 3)
        names = ("x", "y", "z")[:d]
        ineq_only = trial % 3 == 0
        atoms = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {n: rng.randint(-3, 3)
                      for n in rng.sample(names, rng.randint(1, d))}
            term = LinearTerm.of(coeffs, rng.randint(-6, 6))
            kind = 0 if ineq_only else rng.randrange(5)
            if kind <= 2:
                atoms.append(cmp_ge(term))
            elif kind == 3:
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
        s = to_dnf(f, names)
        for pt in itertools.product(range(9), repeat=d):
            inside = [c for c in s.cells if c.contains(pt)]
            assert len(inside) <= 1, (trial, pt)
            assert bool(inside) == eval_ground(
                f, dict(zip(names, pt))), (trial, pt)
        if ineq_only:
            n_planes = _hyperplane_count(atoms)
            cap = sum(comb(n_planes, i) for i in range(d + 1))
            full_dim = sum(1 for c in s.cells
                           if has_interior(c.polyhedron))
            assert full_dim <= cap, (trial, full_dim, cap)
    print("C9 semilinear decomposition vs oracle: PASS")


def test_c10_hadamard_and_zero_test():
    rng = random.Random(555)

    def random_gf():
        terms = []
        for _ in range(rng.randrange(1, 3)):
            dens = tuple(sorted((rng.randrange(1, 5),)
                                for _ in range(rng.randrange(1, 3))))
            terms.append(make_term(rng.randrange(1, 4),
                                   (rng.randrange(0, 6),), dens))
        return rgf(("x",), terms)

    for _ in range(10):
        f, g = random_gf(), random_gf()
        h = hadamard_univariate(f, g)
        tf = series_coeffs(f, 25)
        tg = series_coeffs(g, 25)
        th = series_coeffs(h, 25)
        for p in range(26):
            want = tf.get((p,), F(0)) * tg.get((p,), F(0))
            assert th.get((p,), F(0)) == want, p

    cases = []
    for m in range(2, 7):
        # sum of residue-class slices minus everything
        terms = [make_term(1, (r,), ((m,),)) for r in range(m)]
        terms.append(make_term(-1, (0,), ((1,),)))
        cases.append((rgf(("x",), terms), True))
    for m in range(2, 7):
        terms = [make_term(1, (r,), ((m,),)) for r in range(m - 1)]
        terms.append(make_term(-1, (0,), ((1,),)))
        cases.append((rgf(("x",), terms), False))
    assert len(cases) == 10
    for f, want in cases:
        assert is_zero_univariate(f) == want
    print("C10 Hadamard product and zero test: PASS")
