import math
import random
from fractions import Fraction

from oracles import count_solutions, partition_count
from presburger.genfun import make_term, rgf, series_coeffs, series_equal
from presburger.lattices import Lattice
from presburger.polyhedra import Polyhedron
from presburger.quasipoly import (
    PiecewiseQuasiPolynomial,
    QuasiPolynomial,
    StepPolynomial,
    eventual_form,
    eventual_pqp,
    poly_compose_affine,
    poly_eval,
    poly_mul,
    pqp_to_rgf,
    qp_to_step,
    qp_zero,
    rgf_to_pqp,
    step_eval,
    synth_formula,
    vpf_gf,
    vpf_pqp,
)

F = Fraction


def ray_pqp(q, lo=0):
    return PiecewiseQuasiPolynomial(1, ((Polyhedron.of(1, [((1,), lo)]), q),))


def triangle_qp():
    # solutions of 2a + 2b <= p
    return QuasiPolynomial(1, Lattice(1, ((2,),)), {
        (0,): {(2,): F(1, 8), (1,): F(3, 4), (0,): F(1)},
        (1,): {(2,): F(1, 8), (1,): F(1, 2), (0,): F(3, 8)},
    })


def test_poly_basics():
    p = {(1,): F(2), (0,): F(1)}          # 2x + 1
    q = {(1,): F(1), (0,): F(-1)}         # x - 1
    assert poly_mul(p, q) == {(2,): F(2), (1,): F(-1), (0,): F(-1)}
    assert poly_eval(poly_mul(p, q), (3,)) == 7 * 2
    # substitute x := 2y + z - 1 into x^2
    comp = poly_compose_affine({(2,): F(1)}, [((F(2), F(1)), F(-1))])
    assert poly_eval(comp, (3, 4)) == (2 * 3 + 4 - 1) ** 2


def test_rgf_to_pqp_partition_parts_1_2_2():
    f = rgf(("x",), [make_term(1, (0,), ((1,), (2,), (2,)))])
    g = rgf_to_pqp(f)
    assert len(g.pieces) == 1
    cell, q = g.pieces[0]
    assert cell.ineqs == (((1,), 0),)
    assert q == triangle_qp()


def test_rgf_to_pqp_indicator_multiples_of_3():
    f = rgf(("x",), [make_term(1, (0,), ((3,),))])
    g = rgf_to_pqp(f)
    (cell, q), = g.pieces
    assert cell.ineqs == (((1,), 0),)
    assert q.lattice.basis == ((3,),)
    assert q.constituents == {(0,): {(0,): F(1)}, (1,): {}, (2,): {}}


def test_rgf_to_pqp_shifted_step():
    f = rgf(("x",), [make_term(1, (2,), ((1,),))])
    g = rgf_to_pqp(f)
    assert [g.eval((p,)) for p in range(5)] == [0, 0, 1, 1, 1]
    (cell, q), = g.pieces
    assert cell.ineqs == (((1,), 2),)
    assert q.constituents == {(0,): {(0,): F(1)}}


def test_eventual_form_shrinks_initial():
    q = QuasiPolynomial(1, Lattice.standard(1),
                        {(0,): {(1,): F(1), (0,): F(1)}})
    g = eventual_pqp([5, 0, 7, 4], q)     # 4 agrees with q at p=3
    initial, q2 = eventual_form(g)
    assert initial == (5, 0, 7)
    assert q2 == q
    assert [g.eval((p,)) for p in range(6)] == [5, 0, 7, 4, 5, 6]


def test_eventual_form_of_points_only():
    g = eventual_pqp([0, 7], qp_zero(1))
    initial, q = eventual_form(g)
    assert initial == (0, 7)
    assert q.is_zero()
    assert g.eval((1,)) == 7 and g.eval((5,)) == 0


def test_pqp_to_rgf_linear():
    q = QuasiPolynomial(1, Lattice.standard(1),
                        {(0,): {(1,): F(1), (0,): F(1)}})
    f = pqp_to_rgf(ray_pqp(q))
    target = rgf(("p",), [make_term(1, (0,), ((1,), (1,)))])
    assert series_equal(f, target, 40)


def test_pqp_to_rgf_points():
    f = pqp_to_rgf(eventual_pqp([0, 5], qp_zero(1)))
    assert series_coeffs(f, 10) == {(1,): F(5)}


def test_pqp_to_rgf_triangle_roundtrip():
    f = rgf(("x",), [make_term(1, (0,), ((1,), (2,), (2,)))])
    back = pqp_to_rgf(ray_pqp(triangle_qp()), names=("x",))
    assert series_equal(back, f, 30)


def test_pqp_to_rgf_periodic():
    q = QuasiPolynomial(1, Lattice(1, ((3,),)), {
        (0,): {(1,): F(1)}, (1,): {}, (2,): {(0,): F(2)}})
    g = ray_pqp(q, lo=2)
    f = pqp_to_rgf(g)
    coeffs = series_coeffs(f, 20)
    for p in range(21):
        assert coeffs.get((p,), F(0)) == g.eval((p,))


def test_rgf_pqp_random_roundtrips():
    rng = random.Random(24680)
    for _ in range(20):
        terms = []
        for _ in range(rng.randrange(1, 3)):
            shift = rng.randrange(0, 5)
            dens = tuple(sorted((rng.randrange(1, 7),)
                                for _ in range(rng.randrange(1, 4))))
            terms.append(make_term(rng.randrange(1, 4), (shift,), dens))
        f = rgf(("x",), terms)
        g = rgf_to_pqp(f)
        table = series_coeffs(f, 40)
        for p in range(41):
            assert g.eval((p,)) == table.get((p,), F(0))
        assert series_equal(pqp_to_rgf(g, names=("x",)), f, 40)


def test_pqp_to_rgf_two_parameters():
    g = vpf_pqp([(1, 0), (0, 1), (1, 1)])
    f = pqp_to_rgf(g, names=("x", "y"))
    table = series_coeffs(f, 8)
    for a in range(9):
        for b in range(9):
            assert table.get((a, b), F(0)) == min(a, b) + 1, (a, b)


def test_vpf_gf_structure_and_errors():
    f = vpf_gf([(1,), (2,), (2,)])
    assert f == rgf(("x",), [make_term(1, (0,), ((1,), (2,), (2,)))])
    for bad in ([], [(0, 0)], [(1, -1)], [(1,), (2, 2)]):
        try:
            vpf_gf(bad)
            assert False, bad
        except ValueError:
            pass


def test_partition_count_agrees_with_series():
    gens = [(1,), (2,), (2,)]
    table = series_coeffs(vpf_gf(gens), 15)
    for p in range(16):
        assert partition_count(gens, (p,)) == table.get((p,), F(0))


def test_vpf_pqp_univariate():
    g = vpf_pqp([(1,), (2,), (2,)])
    (cell, q), = g.pieces
    assert q == triangle_qp()
    g2 = vpf_pqp([(2,), (3,)])
    vals = [g2.eval((p,)) for p in range(8)]
    assert vals == [1, 0, 1, 1, 1, 1, 2, 1]
    (_, q2), = g2.pieces
    assert q2.lattice.basis == ((6,),)


def test_vpf_pqp_2d_min_plus_one():
    gens = [(1, 0), (0, 1), (1, 1)]
    g = vpf_pqp(gens)
    assert len(g.pieces) == 2
    for a in range(13):
        for b in range(13):
            assert g.eval((a, b)) == min(a, b) + 1, (a, b)


def test_vpf_pqp_2d_generic():
    gens = [(1, 0), (1, 2), (2, 1)]
    g = vpf_pqp(gens)
    for a in range(11):
        for b in range(11):
            assert g.eval((a, b)) == partition_count(gens, (a, b)), (a, b)


def test_vpf_pqp_2d_ray():
    g = vpf_pqp([(2, 3)])
    for a in range(13):
        for b in range(13):
            want = 1 if (a % 2 == 0 and 3 * a == 2 * b) else 0
            assert g.eval((a, b)) == want, (a, b)
    g2 = vpf_pqp([(2, 3), (4, 6)])
    gens = [(2, 3), (4, 6)]
    for a in range(17):
        for b in range(17):
            assert g2.eval((a, b)) == partition_count(gens, (a, b)), (a, b)


def test_vpf_pqp_2d_random_against_brute_force():
    rng = random.Random(1357)
    checked = 0
    while checked < 10:
        gens = [tuple(rng.randint(0, 3) for _ in range(2))
                for _ in range(rng.randint(3, 4))]
        dets = [abs(u[0] * v[1] - u[1] * v[0]) for u in gens for v in gens]
        if not all(any(g) for g in gens) or not any(dets):
            continue
        # cost grows with the period m, the lcm of the 2x2 minors: m^2
        # cosets are interpolated from a series table of size about m^2
        if math.lcm(*(x for x in dets if x)) > 6:
            continue
        g = vpf_pqp(gens)
        for a in range(11):
            for b in range(11):
                assert g.eval((a, b)) == partition_count(gens, (a, b)), \
                    (gens, a, b)
        checked += 1


def test_vpf_pqp_dimension_guard():
    try:
        vpf_pqp([(1, 0, 0), (0, 1, 1)])
        assert False
    except ValueError:
        pass


def test_qp_to_step_matches_qp():
    for q in (triangle_qp(),
              QuasiPolynomial(1, Lattice(1, ((3,),)),
                              {(0,): {(0,): F(1)}, (1,): {}, (2,): {}}),
              QuasiPolynomial(1, Lattice.standard(1),
                              {(0,): {(2,): F(2), (0,): F(-3)}})):
        s = qp_to_step(q)
        for p in range(61):
            assert step_eval(s, (p,)) == q.eval((p,)), p


def test_qp_to_step_constant_has_no_floors():
    q = QuasiPolynomial(1, Lattice.standard(1), {(0,): {(0,): F(5)}})
    s = qp_to_step(q)
    assert s == StepPolynomial(1, ((F(5), ()),))


def test_step_eval_residue_indicator():
    s = StepPolynomial(1, (
        (F(1), (((F(1, 3),), F(0)),)),
        (F(-1), (((F(1, 3),), F(-1, 3)),)),
    ))
    assert [step_eval(s, (p,)) for p in range(7)] == [1, 0, 0, 1, 0, 0, 1]


# -- synthesis ---------------------------------------------------------------


def check_synth(g, expect, top):
    formula, counted = synth_formula(g)
    for p in range(top + 1):
        got = count_solutions(formula, "p", p, counted)
        assert got == expect(p), (p, got, expect(p))


def test_synth_square():
    q = QuasiPolynomial(1, Lattice.standard(1), {(0,): {(2,): F(1)}})
    check_synth(ray_pqp(q), lambda p: p * p, 30)


def test_synth_with_negative_coefficient():
    q = QuasiPolynomial(1, Lattice.standard(1),
                        {(0,): {(2,): F(2), (1,): F(-3), (0,): F(1)}})
    check_synth(ray_pqp(q), lambda p: 2 * p * p - 3 * p + 1, 30)


def test_synth_constant():
    q = QuasiPolynomial(1, Lattice.standard(1), {(0,): {(0,): F(5)}})
    check_synth(ray_pqp(q), lambda p: 5, 20)


def test_synth_triangle():
    tri = triangle_qp()
    check_synth(ray_pqp(tri), lambda p: int(tri.eval((p,))), 40)


def test_synth_initial_values():
    g = eventual_pqp([0, 9], QuasiPolynomial(
        1, Lattice.standard(1), {(0,): {(1,): F(1)}}))
    check_synth(g, lambda p: 9 if p == 1 else p, 15)


def test_synth_rejects_non_natural():
    q = QuasiPolynomial(1, Lattice.standard(1), {(0,): {(1,): F(1, 2)}})
    try:
        synth_formula(ray_pqp(q))
        assert False
    except ValueError as e:
        assert "integer" in str(e)
    q2 = QuasiPolynomial(1, Lattice.standard(1),
                         {(0,): {(1,): F(1), (0,): F(-3)}})
    try:
        synth_formula(ray_pqp(q2))
        assert False
    except ValueError as e:
        assert "outside" in str(e) or "negative" in str(e)


def test_synth_counted_solutions_are_ground():
    q = QuasiPolynomial(1, Lattice(1, ((2,),)),
                        {(0,): {(1,): F(1, 2)}, (1,): {(0,): F(1)}})
    formula, counted = synth_formula(ray_pqp(q))
    # p even -> p/2 solutions, p odd -> 1
    for p in range(17):
        want = p // 2 if p % 2 == 0 else 1
        assert count_solutions(formula, "p", p, counted) == want, p
