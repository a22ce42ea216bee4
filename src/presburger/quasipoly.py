"""Quasi-polynomial counting functions.

A QuasiPolynomial attaches one polynomial (dict exponent-tuple -> Fraction)
to each coset of a full-rank lattice in parameter space; a
PiecewiseQuasiPolynomial attaches quasi-polynomials to disjoint polyhedral
cells, with everything off the cells counting as zero; it names its
parameters, as a RationalGF its variables, once where it is made.  It reads
the eventual form of a univariate rational generating function, turns a
piecewise quasi-polynomial in any dimension back into one (the GF of each
coset of each cell, then Euler operators x_i d/dx_i), computes vector
partition functions (one chamber decomposition in any dimension), rewrites
quasi-polynomials as step polynomials built from floors, and synthesizes
counting formulas whose solution count realizes a given quasi-polynomial.
Constituents are recovered from integer series coefficients over one
denominator (genfun._series_table) one lattice at a time: every coset
shares the grid of exponents of bounded total degree and the linear part
of the affine forms, so the kernel (_interpolate) runs sample-major: each
Newton difference and each monomial column of a basis product is one
integer list over the cosets, and constituent dicts share one Fraction
per distinct coefficient.  This kernel is the only place that builds or
checks a quasi-polynomial.  Each coset brings one more layer of samples,
of total degree D + 1, whose Newton differences must vanish, else
RuntimeError.  Synthesis needs no kernel: it takes the forward
differences of each residue class q(m t + r) in t straight from q's
values, with m the period of q.  rgf_to_pqp trims initial values on the
integer series row, and qp_to_step shares one floor per residue offset.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, count, product, repeat
from math import lcm
from operator import add, mul, sub

from .formulas import (
    LinearTerm,
    check_modulus,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    record,
)
from .genfun import (
    GFTerm,
    _series_table,
    gf_euler,
    gf_of_cell,
    make_term,
    rgf,
    series_coeffs,
)
from .lattices import (
    Lattice,
    LatticeCoset,
    affine_lattice,
    coset_intersect,
    int_inverse,
    int_rref,
    mat_vec,
    primitive,
    solve_int,
    vadd,
    vdot,
    vneg,
    vscale,
    vsub,
)
from .polyhedra import Polyhedron, dd_cut, dd_positive, dd_space
from .semilinear import SemilinearCell


# ---------------------------------------------------------------------------
# polynomials (dict exponent-tuple -> Fraction) and the integer Newton kernel


def poly_eval(p, pt):
    total = Fraction(0)
    for e, c in p.items():
        v = c
        for x, k in zip(pt, e):
            if k:
                v *= x ** k
        total += v
    return total


@lru_cache(maxsize=None)
def _grid(n, D):
    """Exponents of total degree <= D in n variables."""
    return [e for e in product(range(D + 1), repeat=n) if sum(e) <= D]


@lru_cache(maxsize=None)
def _samples(r, D):
    """The sample points of _interpolate: _grid(r, D), then the layer of
    total degree D + 1 that checks the interpolant."""
    return _grid(r, D) + [e for e in _grid(r, D + 1) if sum(e) == D + 1]


@lru_cache(maxsize=None)
def _newton_plan(r, n, D):
    """Index plan of _interpolate: the forward differences (j, k), vals[j]
    -= vals[k] in order on _samples(r, D) (backwards, so each point goes
    before the one below it); per later point e of _grid(r, D), (parent e
    - u_i, i, e_i - 1, D! / prod e_i!, D - |e|) for its first nonzero i;
    per variable v, the index of x_v times each monomial of _grid(n, D)."""
    pts = _samples(r, D)
    at = {e: j for j, e in enumerate(pts)}
    down = [[at.get(e[:i] + (e[i] - 1,) + e[i + 1:]) for i in range(r)]
            for e in pts]
    diffs = [(j, down[j][i]) for i in range(r) for level in range(1, D + 2)
             for j in reversed(range(len(pts))) if pts[j][i] >= level]
    fact = math.factorial(D)
    steps = [(down[j][i], i, e[i] - 1,
              fact // math.prod(map(math.factorial, e)), D - sum(e))
             for j, e in enumerate(_grid(r, D)[1:], 1)
             for i in [next(i for i, x in enumerate(e) if x)]]
    monos = {e: k for k, e in enumerate(_grid(n, D))}
    return diffs, steps, [[monos.get(e[:v] + (e[v] + 1,) + e[v + 1:])
                           for e in monos] for v in range(n)]


def _axpy(y, t, a, x):
    """y[t] += a x elementwise over the cosets, an absent y[t] being zero."""
    u = y.get(t)
    y[t] = list(map(mul, a, x)) if u is None else list(
        map(add, u, map(mul, a, x)))


def _interpolate(r, D, adj, det, cosets, den):
    """Constituents of degree <= D on the cosets of one lattice, one per
    (start, samples) in order: the integer samples[j] / den is the value at
    the j-th point of _samples(r, D) in t_i = adj_i . (p - start) / det.
    Newton's sum_e Delta^e f(0) prod_i C(t_i, e_i) over one denominator:
    integer forward differences, and each basis product prod_i prod_{m <
    e_i} (adj_i . (p - start) - m det) one linear factor times its
    parent's; vals[j] and each monomial column are integer lists over the
    cosets, and a monomial no term has reached has no column.  A nonzero
    difference on the layer of degree D + 1 means the samples are not one
    polynomial of degree <= D: RuntimeError, as the period or degree was
    too small.  Equal coefficients share one Fraction across the cosets."""
    if not cosets:
        return []
    monos = _grid(len(adj[0]), D)
    diffs, steps, shifts = _newton_plan(r, len(adj[0]), D)
    unit = math.factorial(D) * det ** D
    starts, samples = zip(*cosets)
    vals = list(zip(*samples))
    for j, k in diffs:
        vals[j] = list(map(sub, vals[j], vals[k]))
    if any(map(any, vals[len(steps) + 1:])):
        raise RuntimeError("samples are not one quasi-polynomial: "
                           "period or degree too small")
    consts = [[-vdot(row, start) for start in starts] for row in adj]
    acc = {0: [v * unit for v in vals[0]]}
    basis = [{0: [1] * len(starts)}]
    for v, (parent, i, m, w, k) in zip(vals[1:], steps):
        lead = [c - m * det for c in consts[i]]
        cur = {}
        for t, col in basis[parent].items():
            _axpy(cur, t, lead, col)
            for a, shift in zip(adj[i], shifts):
                if a:
                    _axpy(cur, shift[t], repeat(a), col)
        basis.append(cur)
        if any(v):
            w *= det ** k
            vw = [x * w for x in v]
            for t, col in cur.items():
                _axpy(acc, t, vw, col)
    den *= unit
    es, cols = zip(*((monos[t], col) for t, col in sorted(acc.items())))
    fracs = {c: Fraction(c, den) for c in set().union(*cols)}
    return [{e: fracs[c] for e, c in zip(es, row) if c} for row in zip(*cols)]


# ---------------------------------------------------------------------------
# domain types


class QuasiPolynomial(record("QuasiPolynomial", "n lattice constituents")):
    """One polynomial per coset of a full-rank lattice in ZZ^n:
    constituents maps each coset representative tuple to a polynomial
    dict.  It holds a dict, so it is not hashable."""

    __slots__ = ()
    __hash__ = None

    def eval(self, p):
        rep = self.lattice.reduce(tuple(p))
        return poly_eval(self.constituents.get(rep, {}), p)

    def is_zero(self):
        return all(not poly for poly in self.constituents.values())


def qp_zero(n):
    return QuasiPolynomial(n, Lattice.standard(n), {(0,) * n: {}})


def default_names(base, n):
    """base for one variable, base1, ..., basen for n of them."""
    return (base,) if n == 1 else tuple(f"{base}{i + 1}" for i in range(n))


class PiecewiseQuasiPolynomial(
        record("PiecewiseQuasiPolynomial", "names pieces")):
    """Quasi-polynomials on disjoint polyhedral cells, zero elsewhere, in
    the parameters names: pieces is a tuple of (cell: Polyhedron, qp:
    QuasiPolynomial) pairs.  Like its quasi-polynomials it is unhashable."""

    __slots__ = ()
    __hash__ = None

    @property
    def n(self):
        return len(self.names)

    def eval(self, p):
        p = tuple(p)
        for cell, q in self.pieces:
            if cell.contains(p):
                return q.eval(p)
        return Fraction(0)


class StepPolynomial(record("StepPolynomial", "n terms")):
    """Sum of coef * prod floor(affine form); exact at integer points.
    terms is a tuple of (coef, factors), each factor a (coeff tuple,
    const Fraction) pair."""

    __slots__ = ()


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
    m, cons = q.lattice.basis[0][0], q.constituents
    m2 = next((d for d in range(1, m) if m % d == 0 and all(
        cons[(r,)] == cons[(r % d,)] for r in range(d, m))), m)
    return q if m2 == m else QuasiPolynomial(
        1, Lattice(1, ((m2,),)), {(r,): cons[(r,)] for r in range(m2)})


def eventual_form(g):
    """(initial values, eventual qp) of a univariate pqp.

    Supports one-point and interval cells plus at most one upward ray;
    initial lists the values below the ray threshold.  An interval of
    more than MODULUS_LIMIT points raises ModulusTooLarge.
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
            check_modulus(hi - lo + 1, "enumerating a bounded piece")
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


def eventual_pqp(names, initial, q):
    """Univariate pqp in names from explicit initial values and a qp."""
    initial = [Fraction(v) for v in initial]
    while initial and q.eval((len(initial) - 1,)) == initial[-1]:
        initial.pop()
    T = len(initial)
    pieces = []
    for p, v in enumerate(initial):
        if v != 0:
            cell = Polyhedron.of(1, [((1,), 0)], [((1,), p)])
            const = QuasiPolynomial(1, Lattice.standard(1),
                                    {(0,): {(0,): v}})
            pieces.append((cell, const))
    if not q.is_zero():
        pieces.append((Polyhedron.of(1, [((1,), T)]), _reduce_period(q)))
    return PiecewiseQuasiPolynomial(tuple(names), tuple(pieces))


# ---------------------------------------------------------------------------
# rational generating function -> piecewise quasi-polynomial


def rgf_to_pqp(f):
    """Eventual quasi-polynomial of a univariate series, read from its
    integer coefficients past every shift, so interpolation is exact.

    From p = T on, each term c x^a / prod(1 - x^e_i) has a coefficient
    sequence that is quasi-polynomial with period lcm(e_i) and degree <
    #factors (a term with no factor counts as degree 0), so one
    _interpolate call reads every residue of the lattice period * ZZ,
    each checked on one more sample.  The series must vanish at negative
    exponents: with -k the lowest numerator exponent, x^k f is read on
    [0, k - 1], and ValueError is raised if any of those coefficients is
    nonzero.  Initial values that q gives are trimmed on the integer row:
    q(p) = row[p] / den iff the row's (degree + 1)-th difference at step
    period vanishes from p.  The parameter is named as f's variable.
    """
    if f.dim != 1:
        raise ValueError("rgf_to_pqp is univariate only")
    k = -min((t.numer[0] for t in f.terms), default=0)
    if k > 0:
        shifted = rgf(f.names, [GFTerm(t.coef, (t.numer[0] + k,), t.denom)
                                for t in f.terms])
        if any(map(any, _series_table(shifted, k - 1)[0].values())):
            raise ValueError("series has a nonzero coefficient at a "
                             "negative exponent")
    T = max([0, *(t.numer[0] + 1 for t in f.terms)])
    period = lcm(*(e for t in f.terms for (e,) in t.denom))
    degree = max([1, *(len(t.denom) for t in f.terms)]) - 1
    bound = T + period * (degree + 2)
    table, den = _series_table(f, bound)
    row = table.get((), [0] * (bound + 1))
    polys = _interpolate(1, degree, ((1,),), period, [
        ((p0,), row[p0:p0 + period * (degree + 2):period])
        for p0 in (T + (r - T) % period for r in range(period))], den)
    q = QuasiPolynomial(1, Lattice(1, ((period,),)),
                        {(r,): poly for r, poly in enumerate(polys)})
    binom = [(-1) ** j * math.comb(degree + 1, j) for j in range(degree + 2)]
    while T and not sum(map(mul, binom, row[T - 1::period])):
        T -= 1
    return eventual_pqp(f.names, [Fraction(c, den) for c in row[:T]], q)


# ---------------------------------------------------------------------------
# piecewise quasi-polynomial -> rational generating function


def pqp_to_rgf(g):
    """Rational GF in g's names whose series is sum_p g(p) x^p.

    Any number of parameters.  Each piece's cell, cut down to NN^n, and
    each coset of its lattice with a nonzero constituent make one
    SemilinearCell, summed once by gf_of_cell.  Its terms are scaled by
    the constituent's coefficients and grouped by monomial p^e.  As
    sum_p p^e x^p = (x d/dx)^e sum_p x^p and the operator is linear, each
    group then takes e_i Euler operators x_i d/dx_i, once per exponent e
    however many cosets it sums.
    """
    orthant = [(tuple(int(i == j) for j in range(g.n)), 0)
               for i in range(g.n)]
    by_exp = {}  # monomial exponent e -> terms of sum over its cosets
    for cell, q in g.pieces:
        cell = Polyhedron.of(g.n, list(cell.ineqs) + orthant, cell.eqs)
        for rep, poly in q.constituents.items():
            if not poly:
                continue
            coset = SemilinearCell(cell, LatticeCoset(q.lattice, rep))
            terms = gf_of_cell(g.names, coset).terms
            for e, c in poly.items():
                by_exp.setdefault(e, []).extend(
                    GFTerm(t.coef * c, t.numer, t.denom) for t in terms)
    out = []
    for e, terms in by_exp.items():
        f = rgf(g.names, terms)
        for i, k in enumerate(e):
            for _ in range(k):
                f = gf_euler(f, i)
        out.extend(f.terms)
    return rgf(g.names, out)


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
    names = default_names("x", n) if names is None else tuple(names)
    return rgf(names, [make_term(1, (0,) * n, gens)])


def partition_count(gens, p):
    """#{lam in NN^d : sum lam_i a_i = p}, read off the series of vpf_gf.

    Not called inside the package; kept only because bench/tracing.py
    wraps it by name."""
    p = tuple(int(c) for c in p)
    return int(series_coeffs(vpf_gf(gens), max(p, default=0)).get(p, 0))


def _vpf_chambers(gens, names):
    """Vector partition function in n >= 2 parameters, one quasi-polynomial
    per region of the wall arrangement of its generators B.

    With r = rank B and E an integer basis of the normal space of B, each
    wall is the primitive normal of r - 1 generators together with E; the
    walls with every generator on one side are the facets of cone(B), and
    the regions are the sign cells of the others inside it whose relative
    interior is not empty.  Each region carries the double description of
    its cone, cut one wall side at a time from that of cone(B): a side s
    keeps a relative interior iff some line has s.l != 0 or some ray has
    s.y > 0, and the region's rays are its sorted extreme rays.  A region's
    cell keeps its facet rows only, each made half-open by one generic w
    inside cone(B), so every lattice point of cone(B) lies in exactly one
    cell.  Each region lies in a chamber, whose quasi-polynomial holds on
    its closure and is periodic modulo the intersection of the lattices
    spanned by sigma and E over the bases sigma whose open cone contains it
    (Sturmfels 1995; Brion and Vergne 1997).  On each coset that meets
    span(B), the constituent is interpolated from a triangular grid along r
    rays of the region, each scaled into the lattice, from a start in the
    closed region, and checked on the grid's next layer; all samples come
    from one series table of vpf_gf.
    """
    n = len(gens[0])
    E = affine_lattice(gens, [0] * len(gens), n)[1]
    r = n - len(E)
    uniq = sorted(set(gens))
    facets, walls = set(), set()
    for S in combinations(sorted({primitive(g) for g in uniq}), r - 1):
        normal = affine_lattice([*S, *E], [0] * (len(S) + len(E)), n)[1]
        if len(normal) == 1:
            a = primitive(normal[0])
            signs = {vdot(a, g) > 0 for g in uniq if vdot(a, g)}
            if len(signs) == 2:
                walls.add(max(a, vneg(a)))
            else:
                facets.add(a if signs == {True} else vneg(a))
    eqs = [(e, 0) for e in E]
    regions = [(sorted(facets), reduce(dd_cut, [*facets, *E, *map(vneg, E)],
                                       dd_space(n)))]
    for a in sorted(walls):
        regions = [(rows + [s], dd_cut(dd, s)) for rows, dd in regions
                   for s in (a, vneg(a)) if dd_positive(dd, s)]
    # a.w is a base-M number whose digits a.g are not all 0, so no wall
    # holds w
    M = 1 + max((abs(vdot(a, g)) for a in walls for g in uniq), default=0)
    w = reduce(vadd, (vscale(M ** i, g) for i, g in enumerate(uniq)))
    bases = []
    for sigma in combinations(uniq, r):
        adj, det = int_inverse(tuple(zip(*sigma, *E)))
        if det:
            lat = Lattice.from_generators(n, [*sigma, *E])
            bases.append((adj, det, LatticeCoset(lat, (0,) * n)))
    D = len(gens) - r
    chambers = []
    for rows, (_, rays, _) in regions:
        rays = sorted(u for u, _ in rays)
        cell = Polyhedron.of(n, [
            (a, 0 if vdot(a, w) > 0 else 1) for a in rows
            if len(int_rref([u for u in rays if not vdot(a, u)], n)) == r - 1
        ], eqs)
        inner = reduce(vadd, rays)
        lat = reduce(coset_intersect, [
            c for adj, det, c in bases
            if all(x * det > 0 for x in mat_vec(adj, inner)[:r])]).lattice
        # r independent rays of the region, each scaled into the lattice
        steps = [next(vscale(k, rays[i]) for k in count(1)
                      if lat.contains(vscale(k, rays[i])))
                 for i in int_rref([list(c) for c in zip(*rays)], len(rays))]
        adj, det = int_inverse(tuple(zip(*steps, *E)))
        step_mat = tuple(zip(*steps))
        # rho + L meets span(B) when E (rho + basis z) = 0 for some integer z
        e_basis = tuple(zip(*(mat_vec(E, b) for b in lat.basis)))
        cosets = []
        for rho in lat.coset_representatives():
            z = solve_int(e_basis, vneg(mat_vec(E, rho)))
            if z is None:
                cosets.append((rho, [], None))
                continue
            p0 = reduce(vadd, map(vscale, z, lat.basis), rho)
            start = vsub(p0, mat_vec(step_mat, [c // det for c in
                                                mat_vec(adj[:r], p0)]))
            cosets.append((rho, [vadd(start, mat_vec(step_mat, e))
                                 for e in _samples(r, D)], start))
        chambers.append((cell, lat, adj[:r], det, cosets))
    table, den = _series_table(vpf_gf(gens), max(
        c for *_, cosets in chambers for _, points, _ in cosets
        for pt in points for c in pt))
    pieces = []
    for cell, lat, adj, det, cosets in chambers:
        polys = iter(_interpolate(r, D, adj, det, [
            (start, [table[pt[:-1]][pt[-1]] if pt[:-1] in table else 0
                     for pt in points])
            for _, points, start in cosets if points], den))
        constituents = {rho: next(polys) if points else {}
                        for rho, points, _ in cosets}
        pieces.append((cell, QuasiPolynomial(n, lat, constituents)))
    return PiecewiseQuasiPolynomial(names, tuple(pieces))


def vpf_pqp(gens):
    """Vector partition function as a piecewise quasi-polynomial in the
    parameters p (one) or p1, ..., pn, in any dimension."""
    gens, n = _check_generators(gens)
    names = default_names("p", n)
    if n == 1:
        # the same pqp as the chamber route, in 1.4 ms, not 4.5 ms, for
        # (2, 3, 5, 7) on an Intel Xeon
        return rgf_to_pqp(vpf_gf(gens, names))
    return _vpf_chambers(gens, names)


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
    L = lcm(*(c.denominator for poly in q.constituents.values()
              for c in poly.values()))
    acc = {}  # (-k, e), in output order -> L * coeff of floor((p-k)/m) p^e
    for (r,), poly in q.constituents.items():
        for (e,), c in poly.items():
            c = c.numerator * (L // c.denominator)
            acc[-r, e] = acc.get((-r, e), 0) + c
            if m > 1:
                acc[-r - 1, e] = acc.get((-r - 1, e), 0) - c
    one, step = ((Fraction(1),), Fraction(0)), (Fraction(1, m),)
    floors = {neg: ((step, Fraction(neg, m)),) if m > 1 else ()
              for neg in range(-m, 1)}
    coefs = {c: Fraction(c, L) for c in set(acc.values())}
    return StepPolynomial(1, tuple(
        (coefs[c], floors[neg] + (one,) * e)
        for (neg, e), c in sorted(acc.items()) if c))


# ---------------------------------------------------------------------------
# synthesis of counting formulas


def _units(name, k):
    return cmp_eq(LinearTerm.of({name: 1}, -k))


def synth_formula(g):
    """Formula in g's parameter whose count over the counted variables is g.

    Returns (formula, counted_names).  With m the period of g's eventual
    quasi-polynomial q, each residue class q_r(t) = q(m t + r) is written
    in Newton's form q(m (T + t) + r) = sum_j b_rj C(t, j), b_rj = Delta^j
    q_r(T), where T is the first t >= len(initial) / m at which every b_rj
    is a natural number.  C(t, j) counts the chains 1 <= c1 < ... < cj <=
    t, so each b_rj > 0 becomes one clause tagged s = j + 1 with b_rj
    choices of u, and each p < m T with g(p) > 0 a one-point clause tagged
    s = 0.  Raises ValueError with a witness parameter when g takes a
    value outside NN.
    """
    initial, q = eventual_form(g)
    param = g.names[0]
    m = q.lattice.basis[0][0]
    D = max((e for poly in q.constituents.values() for (e,) in poly),
            default=0)
    T = -(-len(initial) // m)
    diffs = []  # per residue r, [Delta^j q_r(T) for j in 0..D]
    for r in range(m):
        b = []
        for w in range(m * T + r, m * (T + D + 1), m):
            v = q.eval((w,))
            if v.denominator != 1:
                raise ValueError(f"value {v} at p={w} is not an integer")
            b.append(int(v))
        for k in range(D):
            for j in range(D, k, -1):
                b[j] -= b[j - 1]
        if next((x for x in reversed(b) if x), 0) < 0:
            t = T
            while q.eval((m * t + r,)) >= 0:
                t = 2 * t + 1
            raise ValueError(f"negative value at p={m * t + r}")
        diffs.append(b)
    # every top difference is positive, so each b_rj is eventually too
    while any(x < 0 for b in diffs for x in b):
        T += 1
        for b in diffs:
            for j in range(D):
                b[j] += b[j + 1]

    counted = ["s", "u"] + [f"c{i}" for i in range(1, D + 1)]
    if param in counted:
        raise ValueError(f"parameter name {param!r} collides with a "
                         "counted variable")

    def clause(guard, tag, b, j=0, low=0):
        """guard, s = tag, 1 <= u <= b, the chain 1 <= c1 < ... < cj with
        p >= m ci + low for each i, and ci = 0 for i > j."""
        parts = [*guard, _units("s", tag),
                 cmp_ge(LinearTerm.of({"u": 1}, -1)),
                 cmp_ge(LinearTerm.of({"u": -1}, b))]
        least = LinearTerm.const(1)
        for i in range(1, j + 1):
            c = LinearTerm.var(f"c{i}")
            parts += [cmp_ge(c - least),
                      cmp_ge(LinearTerm.of({param: 1, f"c{i}": -m}, -low))]
            least = c + LinearTerm.const(1)
        parts.extend(_units(f"c{i}", 0) for i in range(j + 1, D + 1))
        return conj(parts)

    disjuncts = []
    for p0 in range(m * T):
        val = initial[p0] if p0 < len(initial) else q.eval((p0,))
        if val.denominator != 1 or val < 0:
            raise ValueError(f"value {val} at p={p0} is outside NN")
        if val:
            disjuncts.append(clause(
                [cmp_eq(LinearTerm.of({param: 1}, -p0))], 0, int(val)))
    guard = [cmp_ge(LinearTerm.of({param: 1}, -m * T))] if T else []
    for r, b in enumerate(diffs):
        # congruence() is TRUE when m = 1, and conj drops it
        congr = congruence(LinearTerm.var(param), m, r)
        disjuncts.extend(clause([*guard, congr], j + 1, bj, j, r + m * T)
                         for j, bj in enumerate(b) if bj)
    return disj(disjuncts), tuple(counted)
