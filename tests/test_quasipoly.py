import math
import random
from fractions import Fraction
from itertools import product

import pytest
from oracles import (
    count_solutions,
    hadamard_pqp_oracle,
    interpolate_cosets_oracle,
    partition_count,
    product_on_box,
    qp_to_step_oracle,
)
from presburger import quasipoly
from presburger.formulas import Congruence, atoms_of, format_formula, parse
from presburger.genfun import (
    _series_table,
    gf_is_zero,
    hadamard,
    make_term,
    rgf,
    series_coeffs,
    series_equal,
)
from presburger.lattices import Lattice
from presburger.polyhedra import Polyhedron
from presburger.quasipoly import (
    PiecewiseQuasiPolynomial,
    QuasiPolynomial,
    StepPolynomial,
    _interpolate,
    _vpf_chambers,
    eventual_form,
    eventual_pqp,
    poly_eval,
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
    cell = Polyhedron.of(1, [((1,), lo)])
    return PiecewiseQuasiPolynomial(("p",), ((cell, q),))


def triangle_qp():
    # solutions of 2a + 2b <= p
    return QuasiPolynomial(1, Lattice(1, ((2,),)), {
        (0,): {(2,): F(1, 8), (1,): F(3, 4), (0,): F(1)},
        (1,): {(2,): F(1, 8), (1,): F(1, 2), (0,): F(3, 8)},
    })


def test_poly_basics():
    p = {(2,): F(2), (1,): F(-1), (0,): F(-1)}   # (2x + 1)(x - 1)
    assert poly_eval(p, (3,)) == 7 * 2
    assert poly_eval({(1, 2): F(1, 2)}, (3, 4)) == 24
    # a Fraction point gives the same value as the integer formula
    assert poly_eval(p, (F(3, 2),)) == (2 * F(3, 2) + 1) * (F(3, 2) - 1)
    assert poly_eval({(1, 2): F(1, 2)}, (F(-1, 3), F(3, 2))) == F(-3, 8)
    assert poly_eval({}, (F(1, 2),)) == 0


def random_frac(rng, size=9):
    return F(rng.randint(-size, size), rng.randint(1, size))


def newton_extend(r, D, samples):
    """samples on the grid of exponents of total degree <= D in r variables,
    followed by the values at the layer of total degree D + 1 of the
    polynomial of degree <= D through them: Newton's sum_e Delta^e f(0)
    prod_i C(t_i, e_i), integers at integer points."""
    grid = [e for e in product(range(D + 1), repeat=r) if sum(e) <= D]
    f = dict(zip(grid, samples))
    delta = {e: sum((-1) ** (sum(e) - sum(k)) * math.prod(map(math.comb, e, k))
                    * f[k] for k in grid if all(a <= b for a, b in zip(k, e)))
             for e in grid}
    layer = [x for x in product(range(D + 2), repeat=r) if sum(x) == D + 1]
    return samples + [sum(d * math.prod(map(math.comb, x, e))
                          for e, d in delta.items()) for x in layer]


def random_cosets(rng, r, D, k, count, zero=0.0):
    """count (start, samples) pairs for _interpolate over k variables, with
    integer samples at random on the grid and Newton-extended to its check
    layer, each coset's all zero with probability zero."""
    size = math.comb(r + D, D)
    return [(tuple(rng.randint(-20, 20) for _ in range(k)),
             newton_extend(r, D, [0] * size if rng.random() < zero else
                           [rng.randint(-50, 50) for _ in range(size)]))
            for _ in range(count)]


def test_interpolate_matches_vandermonde_oracle():
    rng = random.Random(8642)
    for r in (1, 2, 3):
        for D in range(5):
            for _ in range(3):
                k = rng.randint(1, 3)
                adj = tuple(tuple(rng.randint(-5, 5) for _ in range(k))
                            for _ in range(r))
                det = rng.choice([-1, 1]) * rng.randint(1, 9)
                cosets = random_cosets(rng, r, D, k, rng.randint(1, 3))
                den = rng.randint(1, 50)
                assert _interpolate(r, D, adj, det, cosets, den) == \
                    interpolate_cosets_oracle(r, D, adj, det, cosets, den), \
                    (r, D, adj, det, den)
    # samples of a polynomial give it back
    assert _interpolate(1, 2, ((1,),), 1, [((0,), [0, 1, 4, 9])], 1) == \
        [{(2,): F(1)}]
    assert _interpolate(1, 2, ((1,),), 1, [((0,), [0, 1, 4, 9])], 3) == \
        [{(2,): F(1, 3)}]


def test_interpolate_rejects_a_wrong_check_sample():
    """One perturbed sample on the layer of degree D + 1 raises, for any
    layer point and any coset of the call."""
    rng = random.Random(1357)
    for r, D in [(1, 0), (1, 3), (2, 1), (2, 2), (3, 2)]:
        cosets = random_cosets(rng, r, D, r, 3)
        size = math.comb(r + D, D)
        unit = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        for i, (start, samples) in enumerate(cosets):
            for j in range(size, len(samples)):
                bad = list(cosets)
                bad[i] = (start, samples[:j] + [samples[j] + 1]
                          + samples[j + 1:])
                with pytest.raises(RuntimeError, match="too small"):
                    _interpolate(r, D, unit, 1, bad, 1)
        _interpolate(r, D, unit, 1, cosets, 1)
    # a lattice of many cosets whose last coset alone has a wrong check
    # sample, and the empty coset list
    for r, D in [(1, 2), (2, 2)]:
        unit = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        cosets = random_cosets(rng, r, D, r, 120, 0.3)
        start, samples = cosets[-1]
        for j in range(math.comb(r + D, D), len(samples)):
            bad = cosets[:-1] + [(start, samples[:j] + [samples[j] - 1]
                                  + samples[j + 1:])]
            with pytest.raises(RuntimeError, match="too small"):
                _interpolate(r, D, unit, 1, bad, 1)
        assert len(_interpolate(r, D, unit, 1, cosets, 1)) == 120
        assert _interpolate(r, D, unit, 1, [], 1) == []


def test_interpolate_lattices_match_oracle_coset_by_coset(monkeypatch):
    """The kernel on every coset of a 1-d lattice (rgf_to_pqp's call: one
    per residue, starting past T > 0) and on the chambers of 2-d and 3-d
    vector partition functions, against the Vandermonde oracle."""
    rng = random.Random(2468)
    for period in range(1, 31):
        D = rng.randint(0, 3)
        T = rng.randint(1, 9)
        cosets = [((T + (r - T) % period,), samples) for r, (_, samples)
                  in enumerate(random_cosets(rng, 1, D, 1, period, 0.3))]
        den = rng.randint(1, 9)
        assert _interpolate(1, D, ((1,),), period, cosets, den) == \
            interpolate_cosets_oracle(1, D, ((1,),), period, cosets, den), \
            period
    # bench-sized lattices, a third of the cosets all zero
    for period, D in product((60, 140, 168, 210), range(7)):
        T = rng.randint(1, 9)
        cosets = [((T + (r - T) % period,), samples) for r, (_, samples)
                  in enumerate(random_cosets(rng, 1, D, 1, period, 0.3))]
        assert _interpolate(1, D, ((1,),), period, cosets, 7) == \
            interpolate_cosets_oracle(1, D, ((1,),), period, cosets, 7), \
            (period, D)
    # the top-degree coefficient vanishes on some cosets only
    D, period = 4, 168
    cosets = [((r,), newton_extend(1, D, newton_extend(1, D - 1, [
        rng.randint(-50, 50) for _ in range(D)]) if r % 3 else [
        rng.randint(-50, 50) for _ in range(D + 1)])) for r in range(period)]
    got = _interpolate(1, D, ((1,),), period, cosets, 5)
    assert got == interpolate_cosets_oracle(1, D, ((1,),), period, cosets, 5)
    assert [(D,) in poly for poly in got] == [r % 3 == 0
                                              for r in range(period)]
    calls = []

    def record(*args):
        calls.append(args)
        return _interpolate(*args)

    monkeypatch.setattr(quasipoly, "_interpolate", record)
    for gens in ([(1, 0), (0, 1), (1, 2), (2, 1)], [(2, 1), (1, 3), (1, 1)],
                 [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                 [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]):
        vpf_pqp(gens)
    assert {len(adj[0]) for _, _, adj, _, _, _ in calls} == {2, 3}
    assert any(len(cosets) > 1 for *_, cosets, _ in calls)
    for args in calls:
        got = _interpolate(*args)
        assert got == interpolate_cosets_oracle(*args), args
        # monomials come in the order of the grid, as written out
        order = [e for e in product(range(args[1] + 1), repeat=len(args[2][0]))
                 if sum(e) <= args[1]]
        assert all(list(poly) == sorted(poly, key=order.index)
                   for poly in got), args


def random_univariate_gf(rng):
    """Terms c x^a / prod (1 - x^e) with Fraction c and repeated e; some
    written as the difference of two terms with numerator shift a - e_0,
    which may be negative, so the series still vanishes below 0."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = random_frac(rng)
        a = rng.randint(0, 4)
        dens = tuple((rng.choice((1, 2, 2, 3, 4)),)
                     for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.5:
            (e,), rest = dens[0], dens[1:]
            terms.append(make_term(c, (a - e,), dens))
            terms.append(make_term(-c, (a - e,), rest))
        else:
            terms.append(make_term(c, (a,), dens))
    return rgf(("x",), terms)


def test_rgf_to_pqp_matches_oracle_path(monkeypatch):
    rng = random.Random(1122)
    gfs = [random_univariate_gf(rng) for _ in range(25)]
    assert any(t.numer[0] < 0 for f in gfs for t in f.terms)
    got = [rgf_to_pqp(f) for f in gfs]
    calls = []

    def oracle(*args):
        calls.append(args)
        return interpolate_cosets_oracle(*args)

    monkeypatch.setattr(quasipoly, "_interpolate", oracle)
    for f, g in zip(gfs, got):
        assert g == rgf_to_pqp(f), f
        table = series_coeffs(f, 30)
        for p in range(31):
            assert g.eval((p,)) == table.get((p,), 0), (f, p)
    assert len(calls) == len(gfs)


def random_trim_gf(rng):
    """A univariate GF with numerator exponents above 0, so T > 0: terms
    c x^a / prod(1 - x^e), whose series often agrees with q below T
    already; a polynomial, or x^a (1 - x^e) / (1 - x^e), so q is zero;
    or x^a / (1 - x^d) spread over the residues of a period k d, which
    reduces to d."""
    kind = rng.choice(["shifted", "zero", "reduces"])
    terms = []
    for _ in range(rng.randint(1, 3)):
        c, a = random_frac(rng), rng.randint(1, 9)
        if kind == "shifted":
            dens = tuple((rng.choice((1, 2, 3, 4, 6)),)
                         for _ in range(rng.randint(1, 3)))
            terms.append(make_term(c, (a,), dens))
        elif kind == "zero":
            e = rng.randint(1, 5)
            terms += [make_term(c, (a,), ((e,),)),
                      make_term(-c, (a + e,), ((e,),))] if rng.random() < 0.5 \
                else [make_term(c, (a,), ())]
        else:
            d, k = rng.randint(1, 3), rng.randint(2, 3)
            terms += [make_term(c, (a + r * d,), ((k * d,),))
                      for r in range(k)]
    return rgf(("x",), terms)


def test_rgf_to_pqp_trims_the_series_row(monkeypatch):
    """The trim on the integer series row leaves what the Fraction route,
    eventual_pqp on every value below T, leaves, and hands eventual_pqp
    nothing more to trim; the pqp is the series on [0, T + 3 period];
    eventual_form gives back the same initial values and q, trimming
    nothing more; and the step form of q is q."""
    handed = []

    def recorded(names, initial, q):
        handed.append(initial)
        return eventual_pqp(names, initial, q)

    monkeypatch.setattr(quasipoly, "eventual_pqp", recorded)
    rng = random.Random(3838)
    tally = dict.fromkeys(["trimmed", "kept", "zero", "reduced"], 0)
    for _ in range(150):
        f = random_trim_gf(rng)
        T = max([0, *(t.numer[0] + 1 for t in f.terms)])
        period = math.lcm(*(e for t in f.terms for (e,) in t.denom))
        g = rgf_to_pqp(f)
        ray = [(cell.ineqs[0][1], q) for cell, q in g.pieces if not cell.eqs]
        points = [cell.eqs[0][1] for cell, _ in g.pieces if cell.eqs]
        lo, q = ray[0] if ray else (max(points, default=-1) + 1, qp_zero(1))
        series = series_coeffs(f, T + 3 * period)
        values = [F(series.get((p,), 0)) for p in range(T + 3 * period + 1)]
        assert g == eventual_pqp(f.names, values[:T], q), f
        assert [g.eval((p,)) for p in range(len(values))] == values, f
        assert handed.pop() == values[:lo], f
        initial, q2 = eventual_form(g)
        assert initial == tuple(values[:lo]) and q2 == q, f
        s = qp_to_step(q)
        for p in range(-2, T + 3 * period):
            assert step_eval(s, (p,)) == q.eval((p,)), (f, p)
        tally["trimmed"] += bool(ray) and lo < T
        tally["kept"] += bool(ray) and lo > 0
        tally["zero"] += not ray
        tally["reduced"] += bool(ray) and q.lattice.basis[0][0] < period
    assert min(tally.values()) >= 15, tally


def random_hadamard_gf(rng):
    """The zero GF, an all-polynomial GF, or terms c x^a / prod(1 - x^e)
    with a in [-2, 8], e in [1, 6] and some without a denominator; a term
    may come with its copy less one factor, negated, which cancels the
    negative exponents when a + e >= 0."""
    kind = rng.random()
    terms = []
    for _ in range(0 if kind < 0.05 else rng.randint(1, 3)):
        c, a = random_frac(rng, 4), rng.randint(-2, 8)
        dens = () if kind < 0.15 or rng.random() < 0.2 else tuple(
            (rng.randint(1, 6),) for _ in range(rng.randint(1, 2)))
        if dens and rng.random() < 0.5:
            terms.append(make_term(-c, (a,), dens[1:]))
        terms.append(make_term(c, (a,), dens))
    return rgf(("x",), terms)


def has_negative_coefficient(f):
    """Whether the series of f is nonzero somewhere below exponent 0."""
    k = -min((t.numer[0] for t in f.terms), default=0)
    return k > 0 and any(series_coeffs(rgf(f.names, [
        make_term(t.coef, (t.numer[0] + k,), t.denom) for t in f.terms]),
        k - 1).values())


def test_hadamard_is_the_product_of_the_series():
    """On seeded univariate pairs, negative exponents included, the series
    of hadamard is the product of the series on a box from the lowest
    exponent; where neither series reaches below exponent 0 it is also
    the GF of the quasi-polynomial route."""
    rng = random.Random(97531)
    negative = polynomial = 0
    for _ in range(200):
        f, g = random_hadamard_gf(rng), random_hadamard_gf(rng)
        polynomial += all(not t.denom for t in f.terms)
        h = hadamard(f, g)
        got, want = product_on_box(f, g, h, 40)
        assert got == want, (f, g)
        if has_negative_coefficient(f) or has_negative_coefficient(g):
            negative += 1
            continue
        old = hadamard_pqp_oracle(f, g)
        assert gf_is_zero(rgf(h.names, h.terms + tuple(
            t._replace(coef=-t.coef) for t in old.terms))), (f, g)
    assert 10 < negative < 100 and polynomial > 10


def test_qp_to_step_matches_oracle():
    rng = random.Random(4455)
    for _ in range(40):
        m = rng.randint(1, 6)
        pool = [{}] + [{(e,): random_frac(rng)
                        for e in rng.sample(range(4), rng.randint(1, 3))}
                       for _ in range(2)]
        # constituents drawn from a small pool, so floors cancel
        q = QuasiPolynomial(1, Lattice(1, ((m,),)),
                            {(r,): dict(rng.choice(pool)) for r in range(m)})
        s = qp_to_step(q)
        assert s == qp_to_step_oracle(q), q
        for p in range(-3, 20):
            assert step_eval(s, (p,)) == q.eval((p,)), (q, p)



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
    g = eventual_pqp(("p",), [5, 0, 7, 4], q)     # 4 agrees with q at p=3
    initial, q2 = eventual_form(g)
    assert initial == (5, 0, 7)
    assert q2 == q
    assert [g.eval((p,)) for p in range(6)] == [5, 0, 7, 4, 5, 6]


def test_eventual_form_of_points_only():
    g = eventual_pqp(("p",), [0, 7], qp_zero(1))
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
    f = pqp_to_rgf(eventual_pqp(("p",), [0, 5], qp_zero(1)))
    assert series_coeffs(f, 10) == {(1,): F(5)}


def test_pqp_to_rgf_triangle_roundtrip():
    f = rgf(("p",), [make_term(1, (0,), ((1,), (2,), (2,)))])
    back = pqp_to_rgf(ray_pqp(triangle_qp()))
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
        assert series_equal(pqp_to_rgf(g), f, 40)


def test_pqp_to_rgf_long_bounded_piece():
    # p + 1 on [0, 10000], zero above: no point is listed one by one
    q = QuasiPolynomial(1, Lattice.standard(1),
                        {(0,): {(1,): F(1), (0,): F(1)}})
    cell = Polyhedron.of(1, [((1,), 0), ((-1,), -10000)])
    f = pqp_to_rgf(PiecewiseQuasiPolynomial(("p",), ((cell, q),)))
    assert len(f.terms) <= 4
    table = series_coeffs(f, 10002)
    assert table == {(p,): F(p + 1) for p in range(10001)}


def test_pqp_to_rgf_cuts_cells_to_the_orthant():
    # the cell p >= -3 holds p = -3..-1 too, which NN-indexed series omit
    q = QuasiPolynomial(1, Lattice(1, ((2,),)),
                        {(0,): {(1,): F(1)}, (1,): {(0,): F(3)}})
    g = ray_pqp(q, lo=-3)
    f = pqp_to_rgf(g)
    assert all(t.numer[0] >= 0 for t in f.terms)
    table = series_coeffs(f, 20)
    assert [table.get((p,), F(0)) for p in range(21)] == \
        [g.eval((p,)) for p in range(21)]


def test_rgf_to_pqp_negative_exponents():
    # x^-1: a coefficient below 0 cannot be read as a pqp on NN
    try:
        rgf_to_pqp(rgf(("x",), [make_term(1, (-1,), ())]))
        assert False
    except ValueError as e:
        assert "negative exponent" in str(e)
    # x^-1/(1 - x) - x^-1 = 1/(1 - x): the negative exponents cancel
    f = rgf(("x",), [make_term(1, (-1,), ((1,),)), make_term(-1, (-1,), ())])
    g = rgf_to_pqp(f)
    assert [g.eval((p,)) for p in range(6)] == [1] * 6


def test_eventual_form_reduces_the_period():
    # 1/(1 - x^2) + x/(1 - x^2) = 1/(1 - x), sampled with period 2
    f = rgf(("x",), [make_term(1, (0,), ((2,),)), make_term(1, (1,), ((2,),))])
    initial, q = eventual_form(rgf_to_pqp(f))
    assert initial == ()
    assert q.lattice.basis == ((1,),)
    assert q.constituents == {(0,): {(0,): F(1)}}


def test_pqp_to_rgf_two_parameters():
    g = vpf_pqp([(1, 0), (0, 1), (1, 1)])
    f = pqp_to_rgf(g)
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


def test_vpf_chambers_in_one_dimension():
    """The chamber route runs in 1-d too, where the wall normals come from
    an empty matrix: its kernel is all of Q^1.  It agrees with the 1-d
    route vpf_pqp takes, rgf_to_pqp of the vpf GF."""
    for gens in ([(2,), (3,), (5,), (7,)], [(1,), (2,), (2,)], [(4,)]):
        chambers = _vpf_chambers(gens, ("p",))
        series = rgf_to_pqp(vpf_gf(gens, ("p",)))
        assert [chambers.eval((p,)) for p in range(41)] == \
            [series.eval((p,)) for p in range(41)], gens


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
        if not all(any(g) for g in gens):
            continue
        check_vpf(gens, 10)
        checked += 1
    check_vpf([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)], 12)


def test_vpf_pqp_3d_random_against_series():
    rng = random.Random(2468)
    checked = 0
    while checked < 8:
        gens = [tuple(rng.randint(0, 2) for _ in range(3))
                for _ in range(rng.randint(1, 4))]
        if not all(any(g) for g in gens):
            continue
        check_vpf(gens, 5)
        checked += 1


def test_vpf_pqp_rank_deficient():
    for gens, bound in [([(2, 3), (4, 6)], 12),
                        ([(1, 0, 1), (0, 1, 1), (1, 1, 2)], 6)]:
        for cell, _ in check_vpf(gens, bound).pieces:
            (a, b), = cell.eqs  # the cells lie in the span of the gens
            assert b == 0 and not any(
                sum(u * v for u, v in zip(a, x)) for x in gens)


def check_vpf(gens, bound):
    """vpf_pqp against the series of vpf_gf on the box [0, bound]^n, its
    cells pairwise disjoint on [-2, bound]^n (eval stops at the first cell
    that holds a point, so an overlap would go unseen), and its GF exactly
    that of vpf_gf."""
    g = vpf_pqp(gens)
    f = vpf_gf(gens)
    table = series_coeffs(f, bound)
    for p in product(range(-2, bound + 1), repeat=g.n):
        assert sum(cell.contains(p) for cell, _ in g.pieces) <= 1, (gens, p)
        if min(p) >= 0:
            assert g.eval(p) == table.get(p, F(0)), (gens, p)
    back = pqp_to_rgf(g)
    assert gf_is_zero(rgf(f.names, back.terms + tuple(
        make_term(-t.coef, t.numer, t.denom) for t in f.terms))), gens
    return g


def test_vpf_pqp_2d_checks_survive_optimization(monkeypatch):
    """A wrong value in the series table is caught by the kernel's check
    layer with an explicit error, not an assert that python -O strips."""
    def wrong_table(g, bound):
        table, den = _series_table(g, bound)
        table[(0,)][0] += 1  # the start of every chamber's zero coset
        return table, den
    monkeypatch.setattr(quasipoly, "_series_table", wrong_table)
    with pytest.raises(RuntimeError, match="period or degree too small"):
        vpf_pqp([(1, 0), (0, 1), (1, 1)])


def test_vpf_pqp_three_dimensions():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    g = check_vpf(gens, 5)
    for p in product(range(6), repeat=3):
        assert g.eval(p) == min(p) + 1, p


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


def test_synth_binomial():
    # C(p, 2): the forward differences at 0 are 0, 0, 1
    q = QuasiPolynomial(1, Lattice.standard(1),
                        {(0,): {(2,): F(1, 2), (1,): F(-1, 2)}})
    check_synth(ray_pqp(q), lambda p: math.comb(p, 2), 30)


def test_synth_initial_values():
    g = eventual_pqp(("p",), [0, 9], QuasiPolynomial(
        1, Lattice.standard(1), {(0,): {(1,): F(1)}}))
    check_synth(g, lambda p: 9 if p == 1 else p, 15)


def test_synth_keeps_the_period():
    # triangle_qp has period 2 and coefficient denominators 8: the formula
    # keeps p % 2 and negates nothing
    formula, _ = synth_formula(ray_pqp(triangle_qp()))
    text = format_formula(formula)
    assert "!" not in text
    assert {a.modulus for a in atoms_of(formula)
            if isinstance(a, Congruence)} == {2}


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


def test_synth_negative_witness_is_negative():
    # 100 on [0, 99], then 50 - p: the witness lies past the initial values
    g = eventual_pqp(("p",), [100] * 100, QuasiPolynomial(
        1, Lattice.standard(1), {(0,): {(1,): F(-1), (0,): F(50)}}))
    with pytest.raises(ValueError, match="negative value at p=") as err:
        synth_formula(g)
    w = int(str(err.value).rsplit("=", 1)[1])
    assert g.eval((w,)) < 0


def test_count_solutions_needs_a_bound_on_every_counted_variable():
    counted = ("s", "u", "c1", "c2")
    chain = "s = 3 & u = 1 & c1 >= 1 & c2 >= c1 + 1 & p >= c2"
    with pytest.raises(ValueError, match="no bound"):
        count_solutions(parse(chain), "p", 5, counted)
    bounded = parse(chain + " & p >= c1")
    assert count_solutions(bounded, "p", 5, counted) == math.comb(5, 2)
    # an Or bounds a variable only when every live disjunct does
    with pytest.raises(ValueError, match="no bound"):
        count_solutions(parse("u <= 3 | u >= p"), "p", 5, ("u",))


def test_synth_counted_solutions_are_ground():
    q = QuasiPolynomial(1, Lattice(1, ((2,),)),
                        {(0,): {(1,): F(1, 2)}, (1,): {(0,): F(1)}})
    formula, counted = synth_formula(ray_pqp(q))
    # p even -> p/2 solutions, p odd -> 1
    for p in range(17):
        want = p // 2 if p % 2 == 0 else 1
        assert count_solutions(formula, "p", p, counted) == want, p
