"""Quasi-polynomial counting functions.

A QuasiPolynomial attaches one polynomial (dict exponent-tuple -> Fraction)
to each coset of a full-rank lattice in parameter space; a
PiecewiseQuasiPolynomial attaches quasi-polynomials to disjoint polyhedral
cells, with everything off the cells counting as zero.  This module
converts univariate rational generating functions to and from that form,
takes Hadamard products and zero tests of univariate series through it,
computes vector partition functions (chamber decomposition in parameter
dimension two), rewrites quasi-polynomials as step polynomials built from
floors, and synthesizes counting formulas whose solution count realizes a
given quasi-polynomial.  Constituents are recovered from series
coefficients (genfun.series_coeffs) by one interpolation helper on the
grid of exponents of bounded total degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import product
from math import factorial, gcd, lcm

from .formulas import (
    FALSE,
    LinearTerm,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    neg,
)
from .genfun import (
    gf_add,
    gf_monomial,
    gf_of_cell,
    gf_scale,
    gf_zero,
    make_term,
    rgf,
    series_coeffs,
    specialize_ones,
)
from .lattices import Lattice, LatticeCoset, mat_vec, rat_inv
from .polyhedra import Polyhedron
from .semilinear import SemilinearCell


# ---------------------------------------------------------------------------
# small exact polynomial arithmetic: dict exponent-tuple -> Fraction


def poly_norm(p):
    return {e: c for e, c in p.items() if c != 0}


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return poly_norm(out)


def poly_scale(p, k):
    k = Fraction(k)
    if k == 0:
        return {}
    return {e: c * k for e, c in p.items()}


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return poly_norm(out)


def poly_eval(p, pt):
    total = Fraction(0)
    for e, c in p.items():
        v = c
        for x, k in zip(pt, e):
            if k:
                v *= Fraction(x) ** k
        total += v
    return total


def poly_const(n, c):
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def poly_compose_affine(p, forms):
    """Substitute variable i of p by the affine form forms[i] = (coeffs,
    const) over a new tuple of variables."""
    k = len(forms[0][0])
    form_polys = []
    for coeffs, const in forms:
        poly = {}
        for i, a in enumerate(coeffs):
            if a:
                poly[tuple(1 if j == i else 0 for j in range(k))] = Fraction(a)
        if const:
            key = (0,) * k
            poly[key] = poly.get(key, Fraction(0)) + Fraction(const)
        form_polys.append(poly)
    total = {}
    for e, c in p.items():
        mono = {(0,) * k: Fraction(1)}
        for i, deg in enumerate(e):
            for _ in range(deg):
                mono = poly_mul(mono, form_polys[i])
        total = poly_add(total, poly_scale(mono, c))
    return total


@lru_cache(maxsize=None)
def _grid(n, D):
    """Exponents of total degree <= D in n variables, which double as the
    sample points, and the inverse of their Vandermonde matrix."""
    grid = [e for e in product(range(D + 1), repeat=n) if sum(e) <= D]
    vander = [[math.prod(Fraction(x) ** k for x, k in zip(pt, e))
               for e in grid] for pt in grid]
    return grid, rat_inv(vander)


def _interpolate(n, D, samples, forms):
    """Polynomial of total degree <= D in n variables taking samples[i] at
    the i-th point of _grid(n, D), with variable i then replaced by the
    affine form forms[i]."""
    grid, inv = _grid(n, D)
    coeffs = mat_vec(inv, samples)
    return poly_compose_affine(poly_norm(dict(zip(grid, coeffs))), forms)


# ---------------------------------------------------------------------------
# domain types


@dataclass(eq=True)
class QuasiPolynomial:
    """One polynomial per coset of a full-rank lattice in ZZ^n."""

    n: int
    lattice: Lattice
    constituents: dict  # coset representative tuple -> polynomial dict

    def eval(self, p):
        rep = self.lattice.reduce(tuple(p))
        return poly_eval(self.constituents.get(rep, {}), p)

    def is_zero(self):
        return all(not poly for poly in self.constituents.values())


def qp_zero(n):
    return QuasiPolynomial(n, Lattice.standard(n), {(0,) * n: {}})


@dataclass(eq=True)
class PiecewiseQuasiPolynomial:
    """Quasi-polynomials on disjoint polyhedral cells; zero elsewhere."""

    n: int
    pieces: tuple  # (cell: Polyhedron, qp: QuasiPolynomial) pairs

    def eval(self, p):
        p = tuple(p)
        for cell, q in self.pieces:
            if cell.contains(p):
                return q.eval(p)
        return Fraction(0)


@dataclass(frozen=True)
class StepPolynomial:
    """Sum of coef * prod floor(affine form); exact at integer points."""

    n: int
    terms: tuple  # (coef, factors); factor = (coeff tuple, const Fraction)


def step_eval(s, p):
    total = Fraction(0)
    for coef, factors in s.terms:
        v = Fraction(coef)
        for coeffs, const in factors:
            v *= math.floor(sum(Fraction(a) * x for a, x in zip(coeffs, p))
                            + Fraction(const))
        total += v
    return total


# ---------------------------------------------------------------------------
# univariate eventual normal form


def _interval_of(cell):
    """Integer interval [lo, hi] of a 1-d cell; hi None when unbounded,
    None altogether when the cell has no points in NN."""
    lo, hi = 0, None
    rows = list(cell.ineqs)
    for a, b in cell.eqs:
        rows.append((a, b))
        rows.append((tuple(-c for c in a), -b))
    for (k,), b in rows:
        if k == 0:
            if b > 0:
                return None
        elif k > 0:
            lo = max(lo, -(-b // k))
        else:
            v = b // k  # floor for negative k
            hi = v if hi is None else min(hi, v)
    if hi is not None and hi < lo:
        return None
    return lo, hi


def _reduce_period(q):
    """Smallest divisor period with identical constituent pattern."""
    if q.n != 1:
        return q
    m = q.lattice.basis[0][0]
    for m2 in range(1, m + 1):
        if m % m2:
            continue
        if all(q.constituents[(r,)] == q.constituents[(r % m2,)]
               for r in range(m)):
            if m2 == m:
                return q
            return QuasiPolynomial(
                1, Lattice(1, ((m2,),)),
                {(r,): q.constituents[(r,)] for r in range(m2)})
    return q


def eventual_form(g):
    """(initial values, eventual qp) of a univariate pqp.

    Supports one-point and interval cells plus at most one upward ray;
    initial lists the values below the ray threshold.
    """
    if g.n != 1:
        raise ValueError("eventual form is univariate only")
    ray = None
    points = {}
    for cell, q in g.pieces:
        iv = _interval_of(cell)
        if iv is None:
            continue
        lo, hi = iv
        if hi is None:
            if ray is not None:
                raise ValueError("two unbounded pieces")
            ray = (lo, q)
        else:
            if hi - lo > 4096:
                raise ValueError("bounded piece too long to enumerate")
            for p in range(lo, hi + 1):
                points[p] = q.eval((p,))
    if ray is None:
        T = max(points, default=-1) + 1
        q = qp_zero(1)
    else:
        T, q = ray
        T = max(T, max((p + 1 for p in points if p >= T), default=0))
    initial = [points.get(p, Fraction(0)) for p in range(T)]
    while initial and q.eval((len(initial) - 1,)) == initial[-1]:
        initial.pop()
    return tuple(initial), _reduce_period(q)


def eventual_pqp(initial, q):
    """Univariate pqp from explicit initial values and an eventual qp."""
    initial = [Fraction(v) for v in initial]
    while initial and q.eval((len(initial) - 1,)) == initial[-1]:
        initial.pop()
    T = len(initial)
    pieces = []
    for p, v in enumerate(initial):
        if v != 0:
            cell = Polyhedron.of(1, [((1,), 0)], [((1,), p)])
            const = QuasiPolynomial(1, Lattice.standard(1),
                                    {(0,): poly_const(1, v)})
            pieces.append((cell, const))
    if not q.is_zero():
        pieces.append((Polyhedron.of(1, [((1,), T)]), _reduce_period(q)))
    return PiecewiseQuasiPolynomial(1, tuple(pieces))


# ---------------------------------------------------------------------------
# rational generating function -> piecewise quasi-polynomial


def rgf_to_pqp(f):
    """Eventual quasi-polynomial of a univariate series.

    Each term c x^a / prod(1 - x^e_i) has a coefficient sequence that is
    quasi-polynomial with period lcm(e_i) and degree < #factors from p = a
    on, so sampling past every shift and interpolating per residue is
    exact.
    """
    if f.dim != 1:
        raise ValueError("rgf_to_pqp is univariate only")
    if not f.terms:
        return PiecewiseQuasiPolynomial(1, ())
    period = 1
    degree = 0
    T = 0
    for t in f.terms:
        for (e,) in t.denom:
            period = lcm(period, e)
        degree = max(degree, len(t.denom) - 1)
        T = max(T, t.numer[0] + 1)
    table = series_coeffs(f, T + period * (degree + 1))

    def at(p):
        return table.get((p,), Fraction(0))

    constituents = {}
    for r in range(period):
        p0 = T + (r - T) % period
        samples = [at(p0 + period * i) for i in range(degree + 1)]
        form = ((Fraction(1, period),), Fraction(-p0, period))
        constituents[(r,)] = _interpolate(1, degree, samples, [form])
    q = QuasiPolynomial(1, Lattice(1, ((period,),)), constituents)
    return eventual_pqp([at(p) for p in range(T)], q)


# ---------------------------------------------------------------------------
# piecewise quasi-polynomial -> rational generating function


def _monomial_piece_gf(names, cell, lattice, rep, exps):
    """GF of sum over the cell's coset class of prod p_i^exps[i] * x^p.

    Each power of p_i becomes a counted variable ranging over [1, p_i];
    the counted variables are then specialized to 1.
    """
    n = len(names)
    E = sum(exps)
    ext = n + E
    rows = [(a + (0,) * E, b) for a, b in cell.ineqs]
    eqs = [(a + (0,) * E, b) for a, b in cell.eqs]
    for i in range(n):
        rows.append((tuple(1 if j == i else 0 for j in range(ext)), 0))
    col = n
    for i, e in enumerate(exps):
        for _ in range(e):
            rows.append((tuple(1 if j == col else 0 for j in range(ext)), 1))
            rows.append((tuple((1 if j == i else 0) - (1 if j == col else 0)
                               for j in range(ext)), 0))
            col += 1
    basis = [tuple(b) + (0,) * E for b in lattice.basis]
    for j in range(E):
        basis.append((0,) * n + tuple(1 if i == j else 0 for i in range(E)))
    ext_lat = Lattice(ext, tuple(basis))
    coset = LatticeCoset(ext_lat, tuple(rep) + (0,) * E)
    cellx = SemilinearCell(Polyhedron.of(ext, rows, eqs), coset)
    cnames = tuple(f"_c{j}" for j in range(E))
    gfx = gf_of_cell(tuple(names) + cnames, cellx)
    return specialize_ones(gfx, range(n, ext))


@lru_cache(maxsize=None)
def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _ray_gf(names, lo, q):
    """GF of a univariate eventual piece [lo, inf).

    Within one residue class p = p0 + m t the value is polynomial in t;
    expanding t^j over binomial coefficients gives sum_t C(t,i) y^t =
    y^i / (1-y)^(i+1) with y = x^m.
    """
    m = q.lattice.basis[0][0]
    terms = []
    for (r,), poly in sorted(q.constituents.items()):
        if not poly:
            continue
        p0 = lo + (r - lo) % m
        tpoly = poly_compose_affine(poly, [((Fraction(m),), Fraction(p0))])
        for (j,), a in sorted(tpoly.items()):
            for i in range(j + 1):
                c = a * _stirling2(j, i) * factorial(i)
                if c:
                    terms.append(make_term(c, (p0 + m * i,),
                                           ((m,),) * (i + 1)))
    return rgf(names, terms)


def pqp_to_rgf(g, names=None):
    """Rational GF whose series lists g's values: sum_p g(p) x^p."""
    if names is None:
        names = ("p",) if g.n == 1 else tuple(f"p{i + 1}" for i in range(g.n))
    names = tuple(names)
    total = gf_zero(names)
    for cell, q in g.pieces:
        if g.n == 1:
            iv = _interval_of(cell)
            if iv is None:
                continue
            lo, hi = iv
            if hi is None:
                total = gf_add(total, _ray_gf(names, lo, q))
            else:
                if hi - lo > 4096:
                    raise ValueError("bounded piece too long to enumerate")
                for p in range(lo, hi + 1):
                    v = q.eval((p,))
                    if v:
                        total = gf_add(total,
                                       gf_scale(gf_monomial(names, 1, (p,)),
                                                v))
            continue
        for rep in sorted(q.constituents):
            poly = q.constituents[rep]
            for exps in sorted(poly):
                piece = _monomial_piece_gf(names, cell, q.lattice, rep, exps)
                total = gf_add(total, gf_scale(piece, poly[exps]))
    return total


# ---------------------------------------------------------------------------
# Hadamard product and zero test


def hadamard_univariate(f, g):
    """Coefficientwise product of two univariate series, exactly.

    Both series are brought to eventual quasi-polynomial form, multiplied
    pointwise, and converted back to a rational function.
    """
    ia, qa = eventual_form(rgf_to_pqp(f))
    ib, qb = eventual_form(rgf_to_pqp(g))
    ma = qa.lattice.basis[0][0]
    mb = qb.lattice.basis[0][0]
    m = lcm(ma, mb)
    cons = {(r,): poly_mul(qa.constituents[(r % ma,)],
                           qb.constituents[(r % mb,)])
            for r in range(m)}
    prod = QuasiPolynomial(1, Lattice(1, ((m,),)), cons)

    def val(init, q, p):
        return init[p] if p < len(init) else q.eval((p,))

    T = max(len(ia), len(ib))
    initial = [val(ia, qa, p) * val(ib, qb, p) for p in range(T)]
    return pqp_to_rgf(eventual_pqp(initial, prod), names=f.names)


def is_zero_univariate(f):
    """Exact zero test for a univariate series."""
    initial, q = eventual_form(rgf_to_pqp(f))
    return not any(initial) and q.is_zero()


# ---------------------------------------------------------------------------
# vector partition functions


def _check_generators(gens):
    gens = [tuple(int(c) for c in g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    for g in gens:
        if len(g) != n:
            raise ValueError("mixed generator dimensions")
        if any(c < 0 for c in g):
            raise ValueError("generators must be nonnegative")
        if all(c == 0 for c in g):
            raise ValueError("zero generator not allowed")
    return gens, n


def vpf_gf(gens, names=None):
    """GF of the partition counter: 1 / prod(1 - x^a_i)."""
    gens, n = _check_generators(gens)
    if names is None:
        names = ("x",) if n == 1 else tuple(f"x{i + 1}" for i in range(n))
    return rgf(tuple(names), [make_term(1, (0,) * n, gens)])


def partition_count(gens, p):
    """#{lam in NN^d : sum lam_i a_i = p}, read off the series of vpf_gf.

    Not called inside the package; kept only because bench/tracing.py
    wraps it by name."""
    p = tuple(int(c) for c in p)
    return int(series_coeffs(vpf_gf(gens), max(p, default=0)).get(p, 0))


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _vpf_ray(gens, g0):
    """All generators parallel: reduce to a univariate partition count
    along the ray t * g0."""
    s = g0[0] + g0[1]
    contents = [(g[0] + g[1]) // s for g in gens]
    initial, q1 = eventual_form(rgf_to_pqp(vpf_gf([(c,) for c in contents])))
    m1 = q1.lattice.basis[0][0]
    M = m1 * s
    lat = Lattice(2, ((M, 0), (0, M)))
    constituents = {}
    for rho in lat.coset_representatives():
        t0 = next((t for t in range(M)
                   if (t * g0[0] - rho[0]) % M == 0
                   and (t * g0[1] - rho[1]) % M == 0), None)
        if t0 is None:
            constituents[rho] = {}
        else:
            base = q1.constituents[(t0 % m1,)]
            constituents[rho] = poly_compose_affine(
                base, [((Fraction(1, s), Fraction(1, s)), Fraction(0))])
    pieces = []
    for t_val, v in enumerate(initial):
        if v:
            cell = Polyhedron.of(2, [((1, 0), 0), ((0, 1), 0)],
                                 [((1, 0), t_val * g0[0]),
                                  ((0, 1), t_val * g0[1])])
            const = QuasiPolynomial(2, Lattice.standard(2),
                                    {(0, 0): poly_const(2, v)})
            pieces.append((cell, const))
    q2 = QuasiPolynomial(2, lat, constituents)
    if not q2.is_zero():
        T = len(initial)
        ray_cell = Polyhedron.of(
            2,
            [((1, 0), 0), ((0, 1), 0), ((1, 1), T * s)],
            [((-g0[1], g0[0]), 0)])
        pieces.append((ray_cell, q2))
    return PiecewiseQuasiPolynomial(2, tuple(pieces))


def _vpf_pqp_2d(gens):
    """Chamber decomposition: walls are the generator rays; on each closed
    chamber the partition counter is one quasi-polynomial, recovered by
    interpolation on a lattice-translated triangular grid.  All samples
    come from one series table of vpf_gf, taken out to the largest sample
    coordinate."""
    d = len(gens)
    prim = []
    for g in gens:
        c = gcd(g[0], g[1])
        p = (g[0] // c, g[1] // c)
        if p not in prim:
            prim.append(p)
    prim.sort(key=cmp_to_key(
        lambda u, v: -1 if _cross(u, v) > 0 else (1 if _cross(u, v) < 0
                                                  else 0)))
    if len(prim) == 1:
        return _vpf_ray(gens, prim[0])
    m = 1
    for i in range(d):
        for j in range(i + 1, d):
            det = abs(_cross(gens[i], gens[j]))
            if det:
                m = lcm(m, det)
    D = d - 2
    grid, _ = _grid(2, D)
    checks = [(D + 1, 0), (0, D + 1), (D + 1, 1)]
    lat = Lattice(2, ((m, 0), (0, m)))
    chambers = []
    for j in range(len(prim) - 1):
        u, v = prim[j], prim[j + 1]
        last = j == len(prim) - 2
        cell = Polyhedron.of(2, [((-u[1], u[0]), 0),
                                 ((v[1], -v[0]), 0 if last else 1),
                                 ((1, 0), 0), ((0, 1), 0)])
        cruv = _cross(u, v)
        den = Fraction(1, m * cruv)
        cosets = []
        for rho in lat.coset_representatives():
            S = 1 + max(abs(_cross(u, rho)),
                        abs(_cross(rho, v))) // (m * cruv)
            points = [(rho[0] + m * (al + S) * u[0] + m * (be + S) * v[0],
                       rho[1] + m * (al + S) * u[1] + m * (be + S) * v[1])
                      for al, be in grid + checks]
            fa = ((v[1] * den, -v[0] * den),
                  Fraction(-v[1] * rho[0] + v[0] * rho[1], m * cruv) - S)
            fb = ((-u[1] * den, u[0] * den),
                  Fraction(u[1] * rho[0] - u[0] * rho[1], m * cruv) - S)
            cosets.append((rho, points, [fa, fb]))
        chambers.append((cell, cosets))
    B = max(c for _, cosets in chambers for _, points, _ in cosets
            for pt in points for c in pt)
    table = series_coeffs(vpf_gf(gens), B)
    pieces = []
    for cell, cosets in chambers:
        constituents = {}
        for rho, points, forms in cosets:
            values = [table.get(pt, Fraction(0)) for pt in points]
            q = _interpolate(2, D, values[:len(grid)], forms)
            for pt, val in list(zip(points, values))[len(grid):]:
                assert poly_eval(q, pt) == val, "chamber period too small"
            constituents[rho] = q
        pieces.append((cell, QuasiPolynomial(2, lat, constituents)))
    return PiecewiseQuasiPolynomial(2, tuple(pieces))


def vpf_pqp(gens):
    """Vector partition function as a piecewise quasi-polynomial (n <= 2)."""
    gens, n = _check_generators(gens)
    if n == 1:
        return rgf_to_pqp(vpf_gf(gens))
    if n != 2:
        raise ValueError("parameter dimension above 2 not supported")
    return _vpf_pqp_2d(gens)


# ---------------------------------------------------------------------------
# step polynomials


def qp_to_step(q):
    """Rewrite a univariate quasi-polynomial with floors.

    Residue r mod m is indicated by floor((p-r)/m) - floor((p-r-1)/m);
    powers of p become repeated floor(p) factors.
    """
    if q.n != 1:
        raise ValueError("qp_to_step is univariate only")
    m = q.lattice.basis[0][0]
    acc = {}

    def add(coef, factors):
        key = tuple(sorted(factors))
        acc[key] = acc.get(key, Fraction(0)) + coef

    for (r,) in sorted(q.constituents):
        poly = q.constituents[(r,)]
        for (e,), c in sorted(poly.items()):
            base = (((Fraction(1),), Fraction(0)),) * e
            if m == 1:
                add(c, base)
            else:
                add(c, base + (((Fraction(1, m),), Fraction(-r, m)),))
                add(-c, base + (((Fraction(1, m),), Fraction(-r - 1, m)),))
    terms = tuple((c, k) for k, c in sorted(acc.items()) if c != 0)
    return StepPolynomial(1, terms)


# ---------------------------------------------------------------------------
# synthesis of counting formulas


def _units(name, k):
    return cmp_eq(LinearTerm.of({name: 1}, -k))


def synth_formula(g, param="p"):
    """Formula whose solution count over the counted variables equals g.

    Returns (formula, counted_names).  For each residue class the eventual
    polynomial is rewritten in p = m t + r with integer coefficients; a
    positive coefficient b at degree j becomes a tagged box with b choices
    of a multiplicity variable and j coordinates in [1, t]; negative
    coefficients are removed from the top-degree box by negating disjoint
    marked patterns inside it.  Values below the threshold become explicit
    one-point clauses.  Raises ValueError with a witness parameter when g
    takes a value outside NN.
    """
    initial, q = eventual_form(g)
    m0 = q.lattice.basis[0][0]
    m = m0
    for poly in q.constituents.values():
        for c in poly.values():
            m = lcm(m, c.denominator)

    classes = {}
    D = 0
    B_p = len(initial)
    for r in range(m):
        poly = q.constituents[(r % m0,)]
        qt = poly_compose_affine(poly, [((Fraction(m),), Fraction(r))])
        by_deg = {e[0]: c for e, c in qt.items()}
        deg = max(by_deg, default=0)
        coeffs = [by_deg.get(j, Fraction(0)) for j in range(deg + 1)]
        for c in coeffs:
            if c.denominator != 1:
                w = len(initial) + (r - len(initial)) % m
                raise ValueError(
                    f"value {q.eval((w,))} at p={w} is not an integer")
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            continue
        if coeffs[-1] < 0:
            t = 1
            while poly_eval(qt, (t,)) >= 0:
                t *= 2
            raise ValueError(f"negative value at p={m * t + r}")
        negs = {j: -c for j, c in enumerate(coeffs[:-1]) if c < 0}
        B_t = 3
        if negs:
            B_t = max(B_t, 2 + max(negs.values()),
                      -(-sum(negs.values()) // coeffs[-1]))
        classes[r] = (coeffs, negs, B_t)
        D = max(D, len(coeffs) - 1)
        B_p = max(B_p, m * B_t + r)

    counted = ["s", "u"] + [f"c{i}" for i in range(1, D + 1)]
    if param in counted:
        raise ValueError(f"parameter name {param!r} collides with a "
                         "counted variable")

    def value_at(p):
        return initial[p] if p < len(initial) else q.eval((p,))

    disjuncts = []
    for p0 in range(B_p):
        val = value_at(p0)
        if val.denominator != 1 or val < 0:
            raise ValueError(f"value {val} at p={p0} is outside NN")
        val = int(val)
        if val == 0:
            continue
        parts = [cmp_eq(LinearTerm.of({param: 1}, -p0)), _units("s", 0),
                 cmp_ge(LinearTerm.of({"u": 1}, -1)),
                 cmp_ge(LinearTerm.of({"u": -1}, val))]
        parts.extend(_units(c, 0) for c in counted[2:])
        disjuncts.append(conj(parts))

    for r in sorted(classes):
        coeffs, negs, _ = classes[r]
        top = len(coeffs) - 1
        guard = [cmp_ge(LinearTerm.of({param: 1}, -B_p))]
        if m > 1:
            guard.append(congruence(LinearTerm.var(param), m, r))
        for j, bj in enumerate(coeffs):
            if bj <= 0:
                continue
            parts = list(guard)
            parts.append(_units("s", j + 1))
            parts.append(cmp_ge(LinearTerm.of({"u": 1}, -1)))
            parts.append(cmp_ge(LinearTerm.of({"u": -1}, bj)))
            for i in range(1, j + 1):
                # c_i in [1, t] where p = m t + r
                parts.append(cmp_ge(LinearTerm.of({f"c{i}": 1}, -1)))
                parts.append(cmp_ge(LinearTerm.of({param: 1, f"c{i}": -m},
                                                  -r)))
            for i in range(j + 1, D + 1):
                parts.append(_units(f"c{i}", 0))
            if j == top:
                for jp in sorted(negs):
                    pat = [_units("u", 1),
                           cmp_ge(LinearTerm.of({f"c{jp + 1}": 1}, -3)),
                           cmp_ge(LinearTerm.of({f"c{jp + 1}": -1},
                                                negs[jp] + 2))]
                    if jp <= top - 2:
                        pat.append(_units(f"c{jp + 2}", 2))
                        pat.extend(_units(f"c{i}", 1)
                                   for i in range(jp + 3, top + 1))
                    parts.append(neg(conj(pat)))
            disjuncts.append(conj(parts))

    if not disjuncts:
        return FALSE, tuple(counted)
    return disj(disjuncts), tuple(counted)
