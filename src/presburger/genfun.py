"""Exact rational generating functions of semilinear sets.

A RationalGF is a finite sum of terms

    coef * x^numer / prod_b (1 - x^b)

with Fraction coef, integer exponent vectors numer (negative entries are
allowed in intermediate results) and nonzero lex-positive denominator
vectors b.  The GF of a cell is computed by changing coordinates along the
coset lattice, splitting off the affine hull over Z, and running Brion's
vertex-cone decomposition on the full-dimensional remainder: each tangent
cone is triangulated, the pieces are made half-open towards a generic
reference vector so facets are never counted twice, and each half-open
simplicial cone is summed exactly by enumerating the integer points of its
fundamental parallelepiped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattices import (
    Lattice,
    clear_denominators,
    hnf_kernel,
    lex_positive,
    mat_vec,
    rat_inv,
    solve_int,
    vadd,
    vdot,
    vneg,
    vsub,
    zero_vec,
)
from .polyhedra import (
    Polyhedron,
    implicit_equalities,
    is_feasible,
    tangent_cone,
    triangulate,
    vertices,
)
from .semilinear import to_dnf


class DivergentSpecialization(ValueError):
    """The substituted series has a genuine pole at 1 (infinite value)."""


@dataclass(frozen=True)
class GFTerm:
    coef: Fraction
    numer: tuple   # int exponent vector
    denom: tuple   # sorted tuple of nonzero lex-positive int vectors


@dataclass(frozen=True)
class RationalGF:
    names: tuple
    terms: tuple

    @property
    def dim(self):
        return len(self.names)


def make_term(coef, numer, denoms):
    """Build a GFTerm, flipping lex-negative denominator vectors.

    1/(1 - x^b) = -x^(-b)/(1 - x^(-b)) moves each flip into the sign and
    the numerator exponent.
    """
    coef = Fraction(coef)
    numer = tuple(int(c) for c in numer)
    out = []
    for b in denoms:
        b = tuple(int(c) for c in b)
        if not any(b):
            raise ValueError("zero vector in denominator")
        if not lex_positive(b):
            b = vneg(b)
            coef = -coef
            numer = vadd(numer, b)
        out.append(b)
    return GFTerm(coef, numer, tuple(sorted(out)))


def rgf(names, terms):
    """Coalesce terms with equal (numer, denom) and drop zero coefficients."""
    acc = {}
    for t in terms:
        key = (t.numer, t.denom)
        acc[key] = acc.get(key, Fraction(0)) + t.coef
    out = [GFTerm(c, n, d) for (n, d), c in sorted(acc.items()) if c != 0]
    return RationalGF(tuple(names), tuple(out))


def gf_zero(names):
    return RationalGF(tuple(names), ())


def gf_const(names, c):
    if c == 0:
        return gf_zero(names)
    return RationalGF(tuple(names),
                      (GFTerm(Fraction(c), zero_vec(len(names)), ()),))


def gf_monomial(names, coef, exp):
    return rgf(names, [GFTerm(Fraction(coef), tuple(exp), ())])


def gf_add(*gs):
    names = gs[0].names
    terms = []
    for g in gs:
        assert g.names == names
        terms.extend(g.terms)
    return rgf(names, terms)


def gf_scale(g, c):
    return rgf(g.names, [GFTerm(t.coef * c, t.numer, t.denom) for t in g.terms])


def gf_mul(g1, g2):
    assert g1.names == g2.names
    terms = []
    for t1 in g1.terms:
        for t2 in g2.terms:
            terms.append(make_term(t1.coef * t2.coef,
                                   vadd(t1.numer, t2.numer),
                                   t1.denom + t2.denom))
    return rgf(g1.names, terms)


# ---------------------------------------------------------------------------
# series extraction


def _positive_functional(vectors, d):
    """Integer tau with tau.b >= 1 for every (lex-positive) b given."""
    M = 2
    while True:
        tau = tuple(M ** (d - 1 - i) for i in range(d))
        if all(vdot(tau, b) >= 1 for b in vectors):
            return tau
        M *= 2


def _series_coeffs_1d(g, bound):
    # univariate fast path: one prefix-sum pass per geometric factor
    out = {}
    for t in g.terms:
        off = t.numer[0]
        if off > bound:
            continue
        lo = min(off, 0)
        arr = [Fraction(0)] * (bound - lo + 1)
        arr[off - lo] = t.coef
        for (e,) in t.denom:
            for i in range(e, len(arr)):
                arr[i] += arr[i - e]
        for p in range(bound + 1):
            if arr[p - lo]:
                out[(p,)] = out.get((p,), Fraction(0)) + arr[p - lo]
    return {k: v for k, v in out.items() if v != 0}


def series_coeffs(g, bound):
    """Power-series coefficients of g on the box [0, bound]^dim.

    Expands every term as numer * prod_b (sum_k x^(k b)); a linear
    functional positive on all denominator vectors bounds the search.
    """
    d = g.dim
    if d == 1:
        return _series_coeffs_1d(g, bound)
    vectors = {b for t in g.terms for b in t.denom}
    tau = _positive_functional(vectors, d) if d else ()
    cap = bound * sum(tau)
    out = {}

    def walk(denoms, i, exp, coef):
        if vdot(tau, exp) > cap:
            return
        if i == len(denoms):
            if all(0 <= e <= bound for e in exp):
                out[exp] = out.get(exp, Fraction(0)) + coef
            return
        e = exp
        while vdot(tau, e) <= cap:
            walk(denoms, i + 1, e, coef)
            e = vadd(e, denoms[i])

    for t in g.terms:
        walk(t.denom, 0, t.numer, t.coef)
    return {k: v for k, v in out.items() if v != 0}


def series_equal(g1, g2, bound):
    return series_coeffs(g1, bound) == series_coeffs(g2, bound)


# ---------------------------------------------------------------------------
# monomial substitution


def _substitute_exponents(g, new_names, images, shift=None):
    """x_j -> y^images[j] (integer vectors), optionally shifted by y^shift."""
    D = len(new_names)
    if shift is None:
        shift = zero_vec(D)
    terms = []
    for t in g.terms:
        numer = tuple(shift)
        for j, e in enumerate(t.numer):
            if e:
                numer = vadd(numer, tuple(e * c for c in images[j]))
        denoms = []
        for b in t.denom:
            nb = zero_vec(D)
            for j, e in enumerate(b):
                if e:
                    nb = vadd(nb, tuple(e * c for c in images[j]))
            if all(c == 0 for c in nb):
                raise ValueError(
                    "denominator vector maps to zero; substitute with "
                    "specialize_ones instead")
            denoms.append(nb)
        terms.append(make_term(t.coef, numer, denoms))
    return rgf(new_names, terms)


def monomial_substitute(g, new_names, images):
    """Substitute x_j -> y^images[j] with nonnegative exponent vectors."""
    assert len(images) == g.dim
    for v in images:
        assert len(v) == len(new_names)
        assert all(c >= 0 for c in v), "exponent images must be nonnegative"
    return _substitute_exponents(g, new_names, [tuple(v) for v in images])


# ---------------------------------------------------------------------------
# generating function of a cell (Brion decomposition)


def _gf_halfopen_simplicial(names, apex, gens, ginv, excluded):
    """GF of apex + cone(gens) with facets in `excluded` removed.

    gens are linearly independent and span the ambient space, and ginv is
    the inverse of the matrix with the gens as columns; the integer points
    split into lattice cosets of the generator lattice, one point per
    coset inside the half-open fundamental parallelepiped.
    """
    d = len(gens)
    grows = tuple(tuple(g[i] for g in gens) for i in range(d))
    lat = Lattice.from_generators(d, gens)
    terms = []
    for rep in lat.coset_representatives():
        t = mat_vec(ginv, vsub(tuple(Fraction(c) for c in rep),
                               tuple(Fraction(c) for c in apex)))
        tt = []
        for i, ti in enumerate(t):
            fr = ti - math.floor(ti)
            if i in excluded and fr == 0:
                fr = Fraction(1)
            tt.append(fr)
        pt = vadd(apex, mat_vec(grows, tt))
        ipt = tuple(int(c) for c in pt)
        assert all(a == b for a, b in zip(ipt, pt)), "parallelepiped point " \
            "is not integral"
        terms.append(make_term(1, ipt, gens))
    return rgf(names, terms)


def _gf_of_cone(names, cone):
    """GF of the integer points of a pointed full-dimensional cone."""
    d = len(cone.apex)
    pieces = triangulate(cone.generators)
    data = []
    for piece in pieces:
        grows = tuple(tuple(g[i] for g in piece) for i in range(d))
        ginv = rat_inv(grows)
        normals = [clear_denominators(row) for row in ginv]
        data.append((piece, ginv, normals))
    first = pieces[0]
    M = 1
    while True:
        w = zero_vec(d)
        for i, h in enumerate(first):
            w = vadd(w, tuple(M ** i * c for c in h))
        if all(vdot(n, w) != 0 for _, _, normals in data for n in normals):
            break
        M *= 2
    total = gf_zero(names)
    for piece, ginv, normals in data:
        excluded = {i for i, n in enumerate(normals) if vdot(n, w) < 0}
        total = gf_add(total,
                       _gf_halfopen_simplicial(names, cone.apex, piece, ginv,
                                               excluded))
    return total


def _gf_of_integer_points(names, p):
    """GF listing the integer points of a pointed polyhedron."""
    d = p.dim
    if not is_feasible(p):
        return gf_zero(names)
    if d == 0:
        return gf_const(names, 1)

    eq_rows = sorted(set(p.eqs) | set(implicit_equalities(p)))
    if eq_rows:
        A = tuple(a for a, _ in eq_rows)
        rhs = tuple(b for _, b in eq_rows)
        x0 = solve_int(A, rhs)
        if x0 is None:
            return gf_zero(names)
        w_cols = hnf_kernel(A)
        k = len(w_cols)
        if k == 0:
            if p.contains(x0):
                return gf_monomial(names, 1, x0)
            return gf_zero(names)
        eq_set = set(eq_rows)
        rows = []
        for a, b in p.ineqs:
            if (a, b) in eq_set:
                continue
            aw = tuple(vdot(a, wc) for wc in w_cols)
            rows.append((aw, b - vdot(a, x0)))
        inner_names = tuple(f"_t{i}" for i in range(k))
        sub = _gf_of_integer_points(inner_names, Polyhedron.of(k, rows))
        return _substitute_exponents(sub, names, w_cols, shift=x0)

    total = gf_zero(names)
    for v in vertices(p):
        total = gf_add(total, _gf_of_cone(names, tangent_cone(p, v)))
    return total


def gf_of_cell(names, cell):
    """GF of the integer points of polyhedron-intersect-coset."""
    d = len(names)
    basis = cell.coset.lattice.basis  # basis[j] is the j-th basis vector
    rep = cell.coset.rep
    rows = [(tuple(vdot(a, basis[j]) for j in range(d)), b - vdot(a, rep))
            for a, b in cell.polyhedron.ineqs]
    eqs = [(tuple(vdot(a, basis[j]) for j in range(d)), b - vdot(a, rep))
           for a, b in cell.polyhedron.eqs]
    inner_names = tuple(f"_z{i}" for i in range(d))
    inner = _gf_of_integer_points(inner_names, Polyhedron.of(d, rows, eqs))
    return _substitute_exponents(inner, names, list(basis), shift=rep)


def gf_of_semilinear(s):
    total = gf_zero(s.names)
    for cell in s.cells:
        total = gf_add(total, gf_of_cell(s.names, cell))
    return total


def gf_of_formula(f, names=None):
    return gf_of_semilinear(to_dnf(f, names))


# ---------------------------------------------------------------------------
# specialization at 1


def _nonvanishing_functional(vectors, size):
    M = 1
    while True:
        tau = tuple(M ** j for j in range(size))
        if all(vdot(tau, v) != 0 for v in vectors):
            return tau
        M *= 2


def _binom(a, n):
    """Generalized binomial coefficient C(a, n) for integer a of any sign."""
    num = Fraction(1)
    for i in range(n):
        num *= a - i
    return num / math.factorial(n)


def _scalar_inverse(r, depth):
    """Inverse of a Fraction series with r[0] != 0, to the given depth."""
    inv0 = 1 / r[0]
    out = [inv0]
    for n in range(1, depth + 1):
        s = Fraction(0)
        for j in range(1, n + 1):
            if j < len(r):
                s += r[j] * out[n - j]
        out.append(-inv0 * s)
    return out


def _series_mul(A, B, names, depth):
    out = [gf_zero(names) for _ in range(depth + 1)]
    for i, a in enumerate(A):
        if i > depth:
            break
        for j, b in enumerate(B):
            if i + j > depth:
                break
            out[i + j] = gf_add(out[i + j], gf_mul(a, b))
    return out


def _series_inv_with(A, a0inv, names, depth):
    """Inverse of a RationalGF series given the inverse of its 0 term."""
    out = [a0inv]
    for n in range(1, depth + 1):
        s = gf_zero(names)
        for j in range(1, n + 1):
            if j < len(A):
                s = gf_add(s, gf_mul(A[j], out[n - j]))
        out.append(gf_scale(gf_mul(a0inv, s), -1))
    return out


def _gf_is_identically_zero(g):
    """Exact zero test: clear to one denominator and expand the numerator."""
    if not g.terms:
        return True
    common = {}
    for t in g.terms:
        counts = {}
        for b in t.denom:
            counts[b] = counts.get(b, 0) + 1
        for b, c in counts.items():
            common[b] = max(common.get(b, 0), c)
    poly = {}
    for t in g.terms:
        counts = {}
        for b in t.denom:
            counts[b] = counts.get(b, 0) + 1
        missing = []
        for b, c in common.items():
            missing.extend([b] * (c - counts.get(b, 0)))
        # expand coef * x^numer * prod (1 - x^b) over the missing factors
        partial = {t.numer: t.coef}
        for b in missing:
            nxt = {}
            for e, c in partial.items():
                nxt[e] = nxt.get(e, Fraction(0)) + c
                e2 = vadd(e, b)
                nxt[e2] = nxt.get(e2, Fraction(0)) - c
            partial = nxt
        for e, c in partial.items():
            poly[e] = poly.get(e, Fraction(0)) + c
    return all(c == 0 for c in poly.values())


def specialize_ones(g, positions):
    """Set x_i = 1 for i in positions, cancelling removable poles exactly.

    Deforms the chosen variables along x_i = t^tau_i and expands each term
    as a Laurent series in s = t - 1.  Denominator factors whose remaining
    part vanishes become simple poles in s; the strictly negative orders of
    the summed series must cancel, otherwise the underlying value is
    infinite and DivergentSpecialization is raised.  Returns the GF in the
    remaining variables.
    """
    positions = sorted(set(positions))
    spec = set(positions)
    keep = [i for i in range(g.dim) if i not in spec]
    names_r = tuple(g.names[i] for i in keep)

    def proj_s(v):
        return tuple(v[i] for i in positions)

    def proj_r(v):
        return tuple(v[i] for i in keep)

    restricted = {proj_s(b) for t in g.terms for b in t.denom
                  if any(b[i] for i in positions)}
    tau = _nonvanishing_functional(restricted, len(positions))

    acc = {}  # order (<= 0) -> RationalGF

    for t in g.terms:
        k = sum(1 for b in t.denom if not any(proj_r(b)))
        factor_series = []
        pure_remaining = []
        for b in t.denom:
            bs, br = proj_s(b), proj_r(b)
            if not any(br):
                # pure pole: 1/(1 - t^m) = s^-1 * inverse((1-(1+s)^m)/s)
                m = vdot(tau, bs)
                r = [-_binom(m, n + 1) for n in range(k + 1)]
                factor_series.append(
                    [gf_const(names_r, c) for c in _scalar_inverse(r, k)])
            elif any(bs):
                # mixed: 1/(1 - x^br (1+s)^m)
                m = vdot(tau, bs)
                a = [gf_add(gf_const(names_r, 1),
                            gf_monomial(names_r, -1, br))]
                for n in range(1, k + 1):
                    a.append(gf_monomial(names_r, -_binom(m, n), br))
                a0inv = rgf(names_r, [make_term(1, zero_vec(len(keep)), [br])])
                factor_series.append(_series_inv_with(a, a0inv, names_r, k))
            else:
                pure_remaining.append(br)
        a_exp = vdot(tau, proj_s(t.numer))
        binom_series = [gf_const(names_r, _binom(a_exp, n))
                        for n in range(k + 1)]
        base = rgf(names_r,
                   [make_term(t.coef, proj_r(t.numer), pure_remaining)])
        prod = [base] + [gf_zero(names_r)] * k
        prod = _series_mul(prod, binom_series, names_r, k)
        for fs in factor_series:
            prod = _series_mul(prod, fs, names_r, k)
        for n, part in enumerate(prod):
            order = n - k
            if order > 0:
                break
            if part.terms:
                acc[order] = gf_add(acc[order], part) if order in acc else part

    for order in sorted(acc):
        if order < 0 and not _gf_is_identically_zero(acc[order]):
            raise DivergentSpecialization(
                f"pole of order {-order} does not cancel at 1")
    return acc.get(0, gf_zero(names_r))


def cardinality(g):
    """Number of points listed by g (all variables set to 1), as an int."""
    g0 = specialize_ones(g, range(g.dim))
    val = sum((t.coef for t in g0.terms), Fraction(0))
    assert val.denominator == 1
    return int(val)


def counting_gf(f, count_names, param_names):
    """GF over the parameters whose coefficient at y^p counts the tuples
    of counted variables satisfying f at parameter value p.

    Raises DivergentSpecialization if some parameter value admits
    infinitely many counted tuples.
    """
    names = tuple(count_names) + tuple(param_names)
    g = gf_of_formula(f, names)
    return specialize_ones(g, range(len(count_names)))


def hadamard_univariate(f, g):
    """Coefficientwise product of two univariate series, exactly.

    Both series are brought to eventual quasi-polynomial form, multiplied
    pointwise, and converted back to a rational function.
    """
    from . import quasipoly as qp

    assert f.dim == 1 and g.dim == 1
    ia, qa = qp.eventual_form(qp.rgf_to_pqp(f))
    ib, qb = qp.eventual_form(qp.rgf_to_pqp(g))
    ma = qa.lattice.basis[0][0]
    mb = qb.lattice.basis[0][0]
    m = math.lcm(ma, mb)
    cons = {(r,): qp.poly_mul(qa.constituents[(r % ma,)],
                              qb.constituents[(r % mb,)])
            for r in range(m)}
    prod = qp.QuasiPolynomial(1, Lattice(1, ((m,),)), cons)

    def val(init, q, p):
        return init[p] if p < len(init) else q.eval((p,))

    T = max(len(ia), len(ib))
    initial = [val(ia, qa, p) * val(ib, qb, p) for p in range(T)]
    return qp.pqp_to_rgf(qp.eventual_pqp(initial, prod), names=f.names)


def is_zero_univariate(f):
    """Exact zero test for a univariate series."""
    from . import quasipoly as qp

    assert f.dim == 1
    initial, q = qp.eventual_form(qp.rgf_to_pqp(f))
    return not any(initial) and q.is_zero()
