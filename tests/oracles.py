"""Shared brute-force oracles for the test suite."""

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from presburger.formulas import (
    And,
    Cmp,
    Congruence,
    Exists,
    ForAll,
    LinearTerm,
    Not,
    Or,
    atoms_of,
    eval_ground,
)
from presburger.genfun import (
    GFTerm,
    _gf_of_cone,
    _positive_functional,
    _series_table,
    make_term,
    rgf,
    series_coeffs,
)
from presburger.lattices import (
    Lattice,
    LatticeCoset,
    affine_lattice,
    full_coset,
    mat_vec,
    primitive,
    residue_cosets,
    solve_int,
    vadd,
    vdot,
    vneg,
    vsub,
    zero_vec,
)
from presburger.polyhedra import (
    NonPointedError,
    Polyhedron,
    _homogenized,
    implicit_equalities,
    vertex_cones,
)
from presburger.quasipoly import (
    QuasiPolynomial,
    _interpolate,
    StepPolynomial,
    eventual_pqp,
    pqp_to_rgf,
)
from presburger.semilinear import SemilinearCell, SemilinearSet
from presburger.serialize import parse_frac, polyhedron_from_obj


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over Fractions, the reference for the package's
# fraction-free integer kernel (lattices.int_rref)


def _rref(rows, n):
    """Gauss-Jordan elimination in place on lists of Fractions, pivoting
    in the first n columns; returns the pivot columns.  Row r ends with a
    1 in column pivots[r] and 0 in every other row there."""
    pivots = []
    for c in range(n):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [a * inv for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(c)
    return pivots


def rat_rank(M):
    if not M:
        return 0
    return len(_rref([[Fraction(a) for a in row] for row in M], len(M[0])))


def rat_solve(M, rhs):
    """The unique solution of M x = rhs as a Fraction tuple, or None when
    the system is inconsistent or underdetermined."""
    if not M:
        return None
    n = len(M[0])
    rows = [[Fraction(a) for a in row] + [Fraction(b)]
            for row, b in zip(M, rhs)]
    rank = len(_rref(rows, n))
    if rank < n or any(row[n] != 0 for row in rows[rank:]):
        return None
    return tuple(row[n] for row in rows[:n])


def fraction_nullspace(M, n=None):
    """Kernel basis of M, one Fraction vector per free column."""
    if n is None:
        n = len(M[0]) if M else 0
    rows = [[Fraction(a) for a in row] for row in M]
    pivots = _rref(rows, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def fraction_inverse(M):
    """Inverse of a square matrix over Fractions; ValueError if singular."""
    n = len(M)
    rows = [[Fraction(a) for a in row] + [Fraction(int(i == j))
                                          for j in range(n)]
            for i, row in enumerate(M)]
    if len(_rref(rows, n)) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def lll_defects(vectors, delta=Fraction(3, 4)):
    """Where a basis fails to be LLL-reduced, by a Gram-Schmidt in
    Fractions: the pairs (i, j), j < i, with |mu_ij| > 1/2, and the k with
    |b*_k|^2 < (delta - mu_k,k-1^2) |b*_(k-1)|^2 (Lovasz)."""
    star, mu = [], {}
    for i, v in enumerate(vectors):
        w = [Fraction(a) for a in v]
        for j, s in enumerate(star):
            mu[i, j] = sum(map(operator.mul, v, s)) / sum(a * a for a in s)
            w = [a - mu[i, j] * b for a, b in zip(w, s)]
        star.append(w)
    norms = [sum(a * a for a in s) for s in star]
    size = [ij for ij, m in mu.items() if abs(m) > Fraction(1, 2)]
    lovasz = [k for k in range(1, len(star))
              if norms[k] < (delta - mu[k, k - 1] ** 2) * norms[k - 1]]
    return size, lovasz


def clear_denominators(v):
    """Scale a Fraction vector to a primitive integer vector, same
    direction."""
    den = math.lcm(*(a.denominator for a in v))
    return primitive(tuple(int(a * den) for a in v))


def count_solutions(formula, param, p0, counted):
    """Enumerate satisfying assignments of the counted variables directly.

    Each counted variable v ranges over [0, cap(formula)], where cap is a
    bound on v in every solution with the parameter set to p0: an atom
    that mentions v alone among the counted variables bounds it from
    above, an And takes the least bound of its parts and an Or the
    greatest, a subformula that p0 alone decides is -1 when false and
    unbounded when true, and negations and quantifiers bound nothing.
    ValueError when some counted variable has no bound.  eval_partial
    prunes dead branches early.  Nothing is substituted or simplified: the
    formula is only evaluated.
    """
    env = {param: p0}

    def cap(f, v):
        decided = eval_partial(f, env)
        if decided is not None:
            return None if decided else -1
        if isinstance(f, (And, Or)):
            caps = [cap(g, v) for g in f.parts]
            if isinstance(f, And):
                return min((c for c in caps if c is not None), default=None)
            return None if None in caps else max(caps)
        if not isinstance(f, Cmp):
            return None
        coeffs = [(n, c) for n, c in f.term.coeffs if n != param]
        if [n for n, _ in coeffs] != [v]:
            return None
        c = coeffs[0][1]
        const = f.term.constant + f.term.coeff(param) * p0
        if f.op == ">=":
            return const // -c if c < 0 else None
        return -const // c if -const % c == 0 and -const // c >= 0 else -1

    caps = {v: cap(formula, v) for v in counted}
    unbounded = [v for v, c in caps.items() if c is None]
    if unbounded:
        raise ValueError(f"no bound on {unbounded} at {param} = {p0}")
    total = 0

    def rec(i):
        nonlocal total
        v = eval_partial(formula, env)
        if v is False:
            return
        if i == len(counted):
            if v is True:
                total += 1
            return
        name = counted[i]
        for x in range(caps[name] + 1):
            env[name] = x
            rec(i + 1)
        del env[name]

    rec(0)
    return total


def witness_bound(body, var, env):
    """W such that (E var in N. body) holds iff it holds with var <= W.

    An atom c*var + t(env) changes truth only at var = -t/c, so above
    T = max over atoms of ceil(|t(env)|/|c|) every comparison atom is
    constant, while congruence atoms repeat with period D = lcm of their
    moduli.  A least witness therefore lies in [0, T + D].  The extra +2
    absorbs the one-unit threshold shifts of atoms sitting under a
    negation.  The argument only uses the atoms, not the elimination.
    """
    T, D = 0, 1
    for a in atoms_of(body):
        c = a.term.coeff(var)
        if c == 0:
            continue
        if isinstance(a, Congruence):
            D = math.lcm(D, a.modulus)
            continue
        rest = LinearTerm(
            tuple((n, v) for n, v in a.term.coeffs if n != var), a.term.constant)
        val = abs(rest.eval(env))
        T = max(T, -(-val // abs(c)))
    return T + D + 2


def brute_exists(body, var, env):
    W = witness_bound(body, var, env)
    return any(eval_ground(body, {**env, var: k}) for k in range(W + 1))


def brute_forall(body, var, env):
    # dual of brute_exists; the same W works for the negated body
    W = witness_bound(body, var, env)
    return all(eval_ground(body, {**env, var: k}) for k in range(W + 1))


def partition_count(gens, p):
    """#{lam in NN^d : sum lam_i a_i = p} by direct bounded search over
    nonnegative generators."""
    gens = [tuple(g) for g in gens]
    n = len(p)

    def rec(i, rest):
        if i == len(gens):
            return 1 if all(c == 0 for c in rest) else 0
        a = gens[i]
        cap = min(rest[c] // a[c] for c in range(n) if a[c])
        total = 0
        for k in range(cap + 1):
            total += rec(i + 1, tuple(r - k * ac for r, ac in zip(rest, a)))
        return total

    if any(c < 0 for c in p):
        return 0
    return rec(0, tuple(p))


def knapsack_count(coeffs, bound):
    """#{x in NN^d : sum a_i x_i <= bound} by the coin-change recurrence."""
    ways = [1] + [0] * bound
    for a in coeffs:
        for n in range(a, bound + 1):
            ways[n] += ways[n - a]
    return sum(ways)


def knapsack_points(coeffs, bound):
    """The points x in NN^d with sum a_i x_i <= bound, by search."""
    if not coeffs:
        return [()] if bound >= 0 else []
    a, rest = coeffs[0], coeffs[1:]
    return [(k,) + p for k in range(bound // a + 1)
            for p in knapsack_points(rest, bound - a * k)]


PRIME = 2 ** 61 - 1


def _monomial_mod(point, e):
    out = 1
    for x, k in zip(point, e):
        out = out * pow(x, k, PRIME) % PRIME  # k < 0 inverts
    return out


def gf_value_mod(g, point):
    """g evaluated at an integer point mod PRIME, term by term; None when
    a denominator vanishes there."""
    total = 0
    for t in g.terms:
        den = t.coef.denominator
        for b in t.denom:
            den = den * (1 - _monomial_mod(point, b)) % PRIME
        if not den:
            return None
        total += (t.coef.numerator * _monomial_mod(point, t.numer)
                  * pow(den, -1, PRIME))
    return total % PRIME


def points_value_mod(points, point):
    """sum over the points s of point^s, mod PRIME."""
    return sum(_monomial_mod(point, s) for s in points) % PRIME


def series_oracle(g, bound, K):
    """Series coefficients of g on [0, bound]^dim by expanding every term
    coef * x^numer / prod_j (1 - x^b_j) over all k in [0, K]^J.

    Exact whenever no k_j above K reaches the box."""
    out = {}
    for t in g.terms:
        for ks in itertools.product(range(K + 1), repeat=len(t.denom)):
            e = list(t.numer)
            for k, b in zip(ks, t.denom):
                e = [x + k * y for x, y in zip(e, b)]
            if all(0 <= x <= bound for x in e):
                out[tuple(e)] = out.get(tuple(e), Fraction(0)) + t.coef
    return {k: v for k, v in out.items() if v != 0}


def series_coeffs_oracle(g, bound):
    """genfun.series_coeffs by one dictionary table per term over one
    tau-slab: tau is a linear functional with tau.b >= 1 on every
    denominator vector of g, so any exponent on the way to a box point has
    tau.e <= cap = bound * sum(tau).  Starting from the numerator
    monomial, each factor 1/(1 - x^b) turns the table into running sums
    along the chains e, e + b, e + 2b, ... below cap, with no pruning."""
    vectors = {b for t in g.terms for b in t.denom}
    tau = _positive_functional(vectors, g.dim)
    cap = bound * sum(tau)
    den = math.lcm(*(t.coef.denominator for t in g.terms))
    levels = {}  # exponent -> tau . exponent
    out = {}
    for t in g.terms:
        levels[t.numer] = vdot(tau, t.numer)
        if levels[t.numer] > cap:
            continue
        table = {t.numer: t.coef.numerator * (den // t.coef.denominator)}
        for b in t.denom:
            step = vdot(tau, b)
            summed = {}
            for start in sorted(table, key=levels.__getitem__):
                if start in summed:
                    continue  # on the chain of a lower point
                e, level, run = start, levels[start], 0
                while level <= cap:
                    run += table.get(e, 0)
                    summed[e] = run
                    levels[e] = level
                    e = vadd(e, b)
                    level += step
            table = summed
        for e, c in table.items():
            if all(0 <= x <= bound for x in e):
                out[e] = out.get(e, 0) + c
    return {e: Fraction(c, den) for e, c in out.items() if c}


def scalar_inverse(r, depth):
    """Inverse of a series with r[0] != 0 to the given depth, in Fraction
    arithmetic: the reference for genfun._int_series_inverse."""
    inv0 = Fraction(1) / r[0]
    out = [inv0]
    for n in range(1, depth + 1):
        s = Fraction(0)
        for j in range(1, n + 1):
            if j < len(r):
                s += r[j] * out[n - j]
        out.append(-inv0 * s)
    return out


def mixed_pole_oracle(m, ydepth, sdepth):
    """[y^i s^n] of 1/(1 - y (1+s)^m) for i <= ydepth and n <= sdepth, by
    Fraction long division of the double series in (y, s): the reference
    for genfun._mixed_series.  (1+s)^m for m < 0 is the inverse of
    (1+s)^-m."""
    power = [Fraction(math.comb(abs(m), n)) for n in range(sdepth + 1)]
    if m < 0:
        power = scalar_inverse(power, sdepth)
    denom = {(0, 0): Fraction(1)}
    denom.update(((1, n), -c) for n, c in enumerate(power))
    out = {}
    for i in range(ydepth + 1):
        for n in range(sdepth + 1):
            s = sum(denom.get((i - a, n - b), 0) * out[a, b]
                    for a in range(i + 1) for b in range(n + 1)
                    if (a, b) != (i, n))
            out[i, n] = (((i, n) == (0, 0)) - s) / denom[0, 0]
    return out


def halfopen_simplicial_oracle(names, apex, gens, ginv, excluded):
    """GF of apex + cone(gens) minus the facets in `excluded`, one term per
    coset of the generator lattice: the point is apex + G frac(ginv (rep -
    apex)) in Fraction arithmetic, with 1 for 0 on excluded facets."""
    d = len(gens)
    grows = tuple(tuple(g[i] for g in gens) for i in range(d))
    terms = []
    for rep in Lattice.from_generators(d, gens).coset_representatives():
        t = mat_vec(ginv, vsub(tuple(Fraction(c) for c in rep),
                               tuple(Fraction(c) for c in apex)))
        tt = []
        for i, ti in enumerate(t):
            fr = ti - math.floor(ti)
            if i in excluded and fr == 0:
                fr = Fraction(1)
            tt.append(fr)
        pt = vadd(apex, mat_vec(grows, tt))
        if any(c.denominator != 1 for c in pt):
            raise AssertionError(f"parallelepiped point {pt} not integral")
        terms.append(make_term(1, pt, gens))
    return rgf(names, terms)


def vertices_oracle(p):
    """Vertices of a polyhedron by solving its equalities together with
    every subset of d - rank(eqs) inequality rows; NonPointedError when the
    row normals have rank below d, ValueError when no solution lies in p."""
    d = p.dim
    if rat_rank([a for a, _ in p.ineqs + p.eqs]) < d:
        raise NonPointedError(f"polyhedron in dim {d} contains a line")
    k = d - rat_rank([a for a, _ in p.eqs])
    out = set()
    for sub in itertools.combinations(p.ineqs, k):
        rows = p.eqs + sub
        x = (rat_solve([a for a, _ in rows], [b for _, b in rows])
             if rows else ())  # no rows only when d = 0
        if x is not None and p.contains(x):
            out.add(x)
    if not out:
        raise ValueError("empty polyhedron has no vertices")
    return sorted(out)


def rays_oracle(ge_normals, eq_normals, dim):
    """Extreme rays of {y : g.y >= 0, e.y = 0} (sorted), one candidate per
    subset of dim - 1 - rank(eqs) rows g whose kernel with the e rows is a
    line; NonPointedError when the cone contains a line."""
    if rat_rank(list(ge_normals) + list(eq_normals)) < dim:
        raise NonPointedError("cone contains a line")
    k = dim - 1 - rat_rank(list(eq_normals))
    if k < 0:
        return []  # the cone is {0}
    rays = set()
    for sub in itertools.combinations(ge_normals, k):
        ns = fraction_nullspace(list(eq_normals) + list(sub), dim)
        if len(ns) != 1:
            continue
        v = clear_denominators(ns[0])
        for cand in (v, vneg(v)):
            if all(vdot(g, cand) >= 0 for g in ge_normals):
                rays.add(cand)
                break
    return sorted(rays)


def placing_triangulation(generators):
    """polyhedra.triangulate by the placing loop over Fractions: the
    sorted generators' first linearly independent subset is the initial
    simplex, and each later generator, in coordinates in that basis, is
    joined to every boundary facet of the pieces so far that it sees
    strictly, its normal from a Fraction kernel.  A boundary facet has
    one piece until it has two, so its oriented normal is kept."""
    gens = sorted(set(tuple(g) for g in generators))
    if not gens:
        return [()]
    rows = [[Fraction(c) for c in col] for col in zip(*gens)]
    basis_idx = _rref(rows, len(gens))
    r = len(basis_idx)
    pieces = [tuple(basis_idx)]
    coords = list(zip(*rows[:r]))
    normals = {}  # a boundary facet's normal, positive on its one piece
    for idx in range(len(gens)):
        if idx in basis_idx:
            continue
        counts, owner = {}, {}
        for piece in pieces:
            for j in range(len(piece)):
                facet = piece[:j] + piece[j + 1:]
                counts[facet] = counts.get(facet, 0) + 1
                owner[facet] = piece[j]
        for facet, cnt in sorted(counts.items()):
            if cnt != 1:
                continue
            if facet not in normals:
                (n,) = fraction_nullspace([coords[i] for i in facet], r)
                normals[facet] = (n if vdot(n, coords[owner[facet]]) > 0
                                  else vneg(n))
            if vdot(normals[facet], coords[idx]) < 0:
                pieces.append(tuple(sorted(facet + (idx,))))
    return sorted(tuple(gens[i] for i in piece) for piece in pieces)


def poly_norm(p):
    return {e: c for e, c in p.items() if c != 0}


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return poly_norm(out)


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


def compose_affine_oracle(p, forms):
    """p with variable i replaced by the affine form forms[i] = (coeffs,
    const), by repeated poly_mul of Fraction polynomials: each monomial of
    p is multiplied out form by form."""
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
def _vandermonde_inverse(n, D):
    grid = [e for e in itertools.product(range(D + 1), repeat=n)
            if sum(e) <= D]
    vander = [[math.prod(Fraction(x) ** k for x, k in zip(pt, e))
               for e in grid] for pt in grid]
    return grid, fraction_inverse(vander)


def interpolate_oracle(n, D, samples, forms):
    """quasipoly._interpolate by the Vandermonde matrix of the grid of
    exponents of total degree <= D (the grid points are the sample
    points), then compose_affine_oracle."""
    grid, inv = _vandermonde_inverse(n, D)
    coeffs = mat_vec(inv, samples)
    return compose_affine_oracle(
        {e: c for e, c in zip(grid, coeffs) if c}, forms)


def interpolate_cosets_oracle(r, D, adj, det, cosets, den):
    """quasipoly._interpolate coset by coset through interpolate_oracle,
    on the values samples[j] / den at the first C(r + D, D) samples, the
    grid points (the kernel's check layer follows them), with the affine
    forms t_i = adj_i . (p - start) / det."""
    size = math.comb(r + D, D)
    return [interpolate_oracle(r, D, [Fraction(s, den)
                                      for s in samples[:size]], [
        (tuple(Fraction(a, det) for a in row),
         Fraction(-vdot(row, start), det)) for row in adj])
        for start, samples in cosets]


def hadamard_pqp_oracle(f, g):
    """Coefficientwise product of two univariate series that vanish at
    negative exponents, through a quasi-polynomial: from T, past every
    numerator exponent, on, the product of the coefficient sequences is
    quasi-polynomial with period m, the lcm of every denominator exponent,
    and degree D, the sum of the degrees of f and g (the most factors of a
    term, less one).  Every residue class is interpolated from the
    product of the two integer coefficient rows (quasipoly._interpolate),
    and the eventual form goes back to a GF by pqp_to_rgf."""
    terms = f.terms + g.terms
    T = max([0, *(t.numer[0] + 1 for t in terms)])
    m = math.lcm(*(e for t in terms for (e,) in t.denom))
    D = sum(max([1, *(len(t.denom) for t in x.terms)]) - 1 for x in (f, g))
    bound = T + m * (D + 2)
    (ta, da), (tb, db) = (_series_table(x, bound) for x in (f, g))
    zero = [0] * (bound + 1)
    row = list(map(operator.mul, ta.get((), zero), tb.get((), zero)))
    polys = _interpolate(1, D, ((1,),), m, [
        ((p0,), row[p0:p0 + m * (D + 2):m])
        for p0 in (T + (r - T) % m for r in range(m))], da * db)
    q = QuasiPolynomial(1, Lattice(1, ((m,),)), {
        (r,): poly for r, poly in enumerate(polys)})
    return pqp_to_rgf(eventual_pqp(
        f.names, [Fraction(c, da * db) for c in row[:T]], q))


def product_on_box(f, g, h, bound):
    """(series of h, product of the series of f and g) on the box lo +
    [0, bound]^dim, lo the lowest numerator exponent of the three GFs in
    each coordinate (at most 0), as dicts of nonzero coefficients."""
    lo = tuple(min([0, *(t.numer[i] for x in (f, g, h) for t in x.terms)])
               for i in range(f.dim))
    a, b, c = ({vadd(e, lo): v for e, v in series_coeffs(rgf(x.names, [
        t._replace(numer=vsub(t.numer, lo)) for t in x.terms]),
        bound).items()} for x in (f, g, h))
    return c, {e: v * b[e] for e, v in a.items() if e in b}


def qp_to_step_oracle(q):
    """quasipoly.qp_to_step with Fraction factor tuples as keys: residue r
    mod m is floor((p-r)/m) - floor((p-r-1)/m), p^e is e floor(p)
    factors, and the terms come in the order of their sorted factors."""
    m = q.lattice.basis[0][0]
    acc = {}

    def add(coef, factors):
        key = tuple(sorted(factors))
        acc[key] = acc.get(key, Fraction(0)) + coef

    for (r,) in sorted(q.constituents):
        for (e,), c in sorted(q.constituents[(r,)].items()):
            base = (((Fraction(1),), Fraction(0)),) * e
            if m == 1:
                add(c, base)
            else:
                add(c, base + (((Fraction(1, m),), Fraction(-r, m)),))
                add(-c, base + (((Fraction(1, m),), Fraction(-r - 1, m)),))
    return StepPolynomial(1, tuple((c, k) for k, c in sorted(acc.items())
                                   if c != 0))


# ---------------------------------------------------------------------------
# public helpers that only the tests call, moved out of the package


def eval_partial(f, env, bound=0):
    """Three-valued evaluation: True / False / None (undetermined).

    Atoms mentioning unassigned variables evaluate to None; and/or/not use
    Kleene logic, and quantifiers range over [0, bound].  Used by
    enumeration oracles to prune search.  Reads the nodes directly, as
    truth_masks does, so it checks eval_ground from outside.
    """
    def ev(g, env):
        if isinstance(g, (Cmp, Congruence)):
            if any(n not in env for n, _ in g.term.coeffs):
                return None
            v = g.term.constant + sum(c * env[n] for n, c in g.term.coeffs)
            if isinstance(g, Congruence):
                return v % g.modulus in g.residues
            return v >= 0 if g.op == ">=" else v == 0
        if isinstance(g, Not):
            v = ev(g.inner, env)
            return None if v is None else not v
        if isinstance(g, (And, Or)):
            values = (ev(p, env) for p in g.parts)
        elif isinstance(g, (Exists, ForAll)):
            values = (ev(g.body, {**env, g.var: k}) for k in range(bound + 1))
        else:
            raise TypeError(f"not a formula: {g!r}")
        # stop decides the node: True for Or and Exists, False otherwise
        stop, unknown = isinstance(g, (Or, Exists)), False
        for v in values:
            if v is stop:
                return stop
            unknown = unknown or v is None
        return None if unknown else not stop

    return ev(f, env)


def truth_masks(formulas, points):
    """Per quantifier-free formula, bit i set iff it holds at points[i].

    Reads the nodes directly: a congruence holds when its term's value
    mod m is one of its residues.  It calls nothing from formulas, so it
    checks eval_ground and the smart constructors from outside.
    """
    full = (1 << len(points)) - 1
    atoms = {}

    def holds(a, env):
        v = a.term.constant + sum(c * env[n] for n, c in a.term.coeffs)
        if isinstance(a, Congruence):
            return v % a.modulus in a.residues
        return v >= 0 if a.op == ">=" else v == 0

    def mask(g):
        if isinstance(g, (Cmp, Congruence)):
            if g not in atoms:
                atoms[g] = sum(1 << i for i, env in enumerate(points)
                               if holds(g, env))
            return atoms[g]
        if isinstance(g, Not):
            return full ^ mask(g.inner)
        if isinstance(g, And):
            acc = full
            for p in g.parts:
                acc &= mask(p)
            return acc
        if isinstance(g, Or):
            acc = 0
            for p in g.parts:
                acc |= mask(p)
            return acc
        raise TypeError(f"not a quantifier-free formula: {g!r}")

    return [mask(f) for f in formulas]


def monomial_substitute(g, new_names, images):
    """Substitute x_j -> y^images[j] with nonnegative exponent vectors.

    Each distinct denominator is mapped once, its lex flips folded into
    the sign and exponent of a unit term that its numerators then reuse.
    """
    if len(images) != g.dim or any(len(v) != len(new_names) for v in images):
        raise ValueError("one image of length len(new_names) per variable")
    if any(c < 0 for v in images for c in v):
        raise ValueError("exponent images must be nonnegative")
    rows = tuple(zip(*images)) or ((),) * len(new_names)
    units, terms = {}, []
    for t in g.terms:
        if t.denom not in units:
            denoms = [mat_vec(rows, b) for b in t.denom]
            if not all(any(b) for b in denoms):
                raise ValueError("denominator vector maps to zero")
            units[t.denom] = make_term(1, zero_vec(len(new_names)), denoms)
        u = units[t.denom]
        terms.append(GFTerm(t.coef * u.coef,
                            vadd(mat_vec(rows, t.numer), u.numer), u.denom))
    return rgf(new_names, terms)


def reference_cell_leaves(cell):
    """genfun._cell_leaves with a second double description: the cell's
    polyhedron p in z, x = rep + B z, is rewritten as q in the coordinates
    t of its affine hull z = z0 + W t, and vertex_cones reads q's vertex
    cones off q's own double description.  The leaf records come out as
    _cell_leaves gives them, (leaf, images, mapped, unit)."""
    basis, rep = cell.coset.lattice.basis, cell.coset.rep
    d = len(rep)

    def in_z(a, b):
        return tuple(vdot(a, v) for v in basis), b - vdot(a, rep)

    p = Polyhedron.of(d, [in_z(a, b) for a, b in cell.polyhedron.ineqs],
                      [in_z(a, b) for a, b in cell.polyhedron.eqs])
    # an empty p makes every row an equality, which solve_int then refutes
    eq_rows = sorted(set(p.eqs) | set(implicit_equalities(p)))
    A, rhs = tuple(a for a, _ in eq_rows), tuple(b for _, b in eq_rows)
    z0 = solve_int(A, rhs) if A else zero_vec(d)
    if z0 is None:
        return []
    kernel = affine_lattice(A, rhs, d)[1]
    # an implicit equality becomes the trivial row 0 >= 0, dropped
    q = Polyhedron.of(len(kernel), [
        (tuple(vdot(a, w) for w in kernel), b - vdot(a, z0))
        for a, b in p.ineqs])
    B = cell.coset.lattice.basis_matrix()
    images = [mat_vec(B, w) for w in kernel]
    shift, rows = vadd(rep, mat_vec(B, z0)), tuple(zip(*images))
    out = []
    for ray, gens in vertex_cones(q, _homogenized(q)):
        for leaf in _gf_of_cone(ray, gens):
            mapped = [mat_vec(rows, g) for g in leaf[1]]
            out.append((leaf, images, mapped, make_term(leaf[5], shift,
                                                        mapped)))
    return out


def congruence_coset(coeffs, residue, modulus, dim):
    """Solution coset of a single congruence  coeffs . x = residue (mod modulus).

    Returns a LatticeCoset, or None when the congruence has no solution.
    """
    return residue_cosets(full_coset(dim), coeffs, modulus)[2](residue)


def semilinear_from_obj(obj):
    """Reader of serialize.semilinear_to_obj's document."""
    names = tuple(obj["names"])
    cells = []
    for c in obj["cells"]:
        poly = polyhedron_from_obj(c["polyhedron"])
        lat = Lattice(poly.dim,
                      tuple(tuple(int(x) for x in b) for b in c["lattice"]))
        coset = LatticeCoset(lat, tuple(int(x) for x in c["rep"]))
        cells.append(SemilinearCell(poly, coset))
    return SemilinearSet(names, tuple(cells))


def step_from_obj(obj):
    """Reader of serialize.step_to_obj's document."""
    n = int(obj["n"])
    terms = []
    for t in obj["terms"]:
        factors = tuple((tuple(parse_frac(a) for a in f["coeffs"]),
                         parse_frac(f["const"])) for f in t["factors"])
        terms.append((parse_frac(t["coef"]), factors))
    return StepPolynomial(n, tuple(terms))
