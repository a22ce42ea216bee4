"""Exact rational generating functions of semilinear sets.

A RationalGF is a finite sum of terms

    coef * x^numer / prod_b (1 - x^b)

with Fraction coef, integer exponent vectors numer (negative entries are
allowed in intermediate results) and nonzero lex-positive denominator
vectors b.  Brion runs in two steps.  The first lists the leaf cones of a
cell: an integer affine map x = shift + M t carries Z^k onto the points
of the cell's coset in its affine hull, and Brion's vertex-cone
decomposition runs on the full-dimensional polyhedron in Z^k, its
tangent cones all read off one double description, for a cell of
to_dnf the one its split tree built, each triangulated unless
simplicial and made half-open towards a generic reference vector, so
facets are never counted twice.  A piece whose index (|det|
of its generators) exceeds LIMIT is split by Barvinok's signed
decomposition, in the primal half-open form of Koeppe and Verdoolaege,
into signed half-open cones of smaller index, around a short vector from
an integral LLL.  LIMIT = 64 is measured: on the knapsack_gf benchmark,
where vertex cones reach index 1331, 64 gave the lowest time of the
limits 16, 32, 64 and 128 (see README).  Each leaf is an integer record
set up once: its apex is a vertex ray (x, t) of the double description,
one fraction-free elimination per simplicial piece gives its adjugate,
and the images of its generators under the cell's map, one per distinct
generator of the cell and none when the map is the identity, serve both
its term and its walk.  The second step, _walk, lists the integer points of
a leaf's fundamental parallelepiped under an integer exponent map, in
integers only: the walk over the coset representatives, a box whose
sizes come from gcds of minors (_box), runs along one lattice axis at a
time, each step moving the point by one of 2^d moves picked by the
carries of its parallelepiped coordinates.
gf_of_cell walks each leaf with the cell's own map, straight to the
exponents of the cell's variables.  specialized_gf counts without
building that GF: it fixes tau once from the mapped generators of every
leaf, walks each leaf straight to the exponents (tau . x_counted,
x_rest) of x_counted = t^tau, and hands them to _specialize, the one
specialization kernel, which specialize_ones also runs on the terms of a
GF already built.  The kernel evaluates at 1 by one integer Laurent
expansion per distinct denominator: integer binomial sums per
denominator, pure poles multiplied as integer series over one
denominator, and every other factor, y its remaining monomial, expanded
in closed form as 1/(1 - y (1+s)^m) = sum_j ((1+s)^m - 1)^j y^j /
(1 - y)^(j + 1), so no series has GF coefficients.  Series coefficients
on a box come from one integer kernel in any dimension, _series_table:
pruned running sums per denominator, stored as dense rows over the last
exponent.  gf_is_zero tests a GF exactly over one common denominator,
gf_euler applies x_i d/dx_i term by term, and hadamard multiplies two
series coefficientwise, one cell per pair of terms.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial, reduce

from .formulas import record
from .lattices import (
    affine_lattice,
    full_coset,
    int_inverse,
    lex_positive,
    lll,
    mat_vec,
    primitive,
    vadd,
    vdot,
    vscale,
    zero_vec,
)
from .polyhedra import (
    Polyhedron,
    _homogenized,
    dd_cut,
    implicit_equalities,
    triangulate,
    vertex_cones,
)
from .semilinear import SemilinearCell, SemilinearSet, _dnf_cells


# Simplicial cones of larger index are split by Barvinok's signed
# decomposition before their parallelepipeds are listed (see _barvinok).
LIMIT = 64


class DivergentSpecialization(ValueError):
    """The substituted series has a genuine pole at 1 (infinite value)."""


# coef x^numer / prod(1 - x^b for b in denom), numer an int vector, denom a
# sorted tuple of nonzero lex-positive ones; a tuple the walk builds cheaply
GFTerm = namedtuple("GFTerm", "coef numer denom")


class RationalGF(record("RationalGF", "names terms")):
    __slots__ = ()

    @property
    def dim(self):
        return len(self.names)


def make_term(coef, numer, denoms):
    """Build a GFTerm, flipping lex-negative denominator vectors.

    1/(1 - x^b) = -x^(-b)/(1 - x^(-b)) moves each flip into the sign and
    the numerator exponent.
    """
    numer, out = tuple(map(int, numer)), []
    for b in denoms:
        b = tuple(map(int, b))
        if not lex_positive(b):
            if not any(b):
                raise ValueError("zero vector in denominator")
            b = tuple([-c for c in b])
            coef = -coef
            numer = tuple(map(operator.add, numer, b))
        out.append(b)
    return GFTerm(Fraction(coef), numer, tuple(sorted(out)))


def rgf(names, terms):
    """Coalesce terms with equal (numer, denom) and drop zero coefficients."""
    acc = {}
    for t in terms:
        key = (t.numer, t.denom)
        if key in acc:
            t = GFTerm(acc[key].coef + t.coef, t.numer, t.denom)
        acc[key] = t
    out = [t for _, t in sorted(acc.items()) if t.coef != 0]
    return RationalGF(tuple(names), tuple(out))


def gf_euler(g, i):
    """x_i d/dx_i of g, which multiplies each coefficient at p by p_i.

    c x^a / prod(1 - x^b) goes to a_i times itself plus, for each factor
    b, c b_i x^(a+b) / (prod(1 - x^b) (1 - x^b)).
    """
    terms = []
    for t in g.terms:
        if t.numer[i]:
            terms.append(GFTerm(t.coef * t.numer[i], t.numer, t.denom))
        for b in t.denom:
            if b[i]:
                terms.append(GFTerm(t.coef * b[i], vadd(t.numer, b),
                                    tuple(sorted(t.denom + (b,)))))
    return rgf(g.names, terms)


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


def _add_rows(rows, lo, hi):
    """Sum of the rows (start, values) given, None for an empty one, on
    the last entries lo..hi (lo None for no lower end); None if empty."""
    rows = [r for r in rows if r]
    start = min((s for s, _ in rows), default=hi + 1)
    start, end = start if lo is None else max(lo, start), min(
        hi + 1, max((s + len(v) for s, v in rows), default=0))
    if start >= end:
        return None
    out = [0] * (end - start)
    for s, v in rows:
        a, b = max(start, s), min(end, s + len(v))
        if a < b:
            out[a - start:b - start] = map(
                operator.add, out[a - start:b - start], v[a - s:b - s])
    return start, out


def _series_table(g, bound):
    """Power-series coefficients of g (dim >= 1) on the box [0, bound]^dim
    as integers over one denominator: (table, den), table mapping P to the
    list of c, i = 0..bound, with c / den the coefficient at P + (i,).

    Terms with one denominator share a table of running sums along the
    chains e, e + b, e + 2b, ... of each factor 1/(1 - x^b), which keeps
    only states that the factors still to come can bring into the box:
    tau.e <= cap = bound * sum(tau), tau from _positive_functional; a
    coordinate that no remaining factor lowers is dead above bound, one
    that none raises is dead below 0.  Each holds on an initial stretch
    of a chain.  The table is stored as rows, e[:-1] -> (start, values at
    e[-1] = start, start + 1, ...).  A factor with b[:-1] = 0 is a running
    sum row[i] += row[i - b[-1]] in each row; any other adds row P -
    b[:-1], shifted by b[-1], into row P, in increasing lex order of P.
    """
    d = g.dim
    den = math.lcm(*(t.coef.denominator for t in g.terms))
    groups = {}  # denominator -> [(numerator, integer coefficient)]
    for t in g.terms:
        groups.setdefault(t.denom, []).append(
            (t.numer, t.coef.numerator * (den // t.coef.denominator)))
    out = {}  # e[:-1] -> the integers at e[-1] = 0..bound
    for denom, group in groups.items():
        tau = _positive_functional(denom, d)
        cap, head = bound * sum(tau), tau[:-1]
        rows = {}
        for e, c in group:
            P, hi = e[:-1], cap - vdot(head, e[:-1])
            if e[-1] <= hi:
                rows[P] = _add_rows([rows.get(P), (e[-1], [c])], None, hi)
        for j in range(len(denom) + 1):
            up = [all(b[i] >= 0 for b in denom[j:]) for i in range(d)]
            down = [all(b[i] <= 0 for b in denom[j:]) for i in range(d)]

            def window(P):  # (lo, hi) of live e[-1] on row P, or None
                if any(x > bound and u or x < 0 and w
                       for x, u, w in zip(P, up, down)):
                    return None
                hi = cap - vdot(head, P)
                return 0 if down[-1] else None, min(hi, bound) if up[-1] else hi

            new, zero = {}, [0] * (bound + 1)
            if j == len(denom):  # no factor left: the box itself
                for P, row in rows.items():
                    if window(P):
                        out[P] = _add_rows([(0, out.get(P, zero)), row], 0,
                                           bound)[1]
                break
            *bp, bl = denom[j]
            if not any(bp):
                for P, row in rows.items():
                    if (w := window(P)) and (row := _add_rows([row], *w)):
                        s, vals = row
                        vals += [0] * (w[1] + 1 - s - len(vals))
                        for r in range(bl):
                            vals[r::bl] = itertools.accumulate(vals[r::bl])
                        new[P] = s, vals
            else:
                for P in sorted(rows):
                    run = None  # row P - bp of the new table
                    while P not in new and (w := window(P)):
                        run = _add_rows([rows.get(P), run and (
                            run[0] + bl, run[1])], *w)
                        if run is None:
                            break
                        new[P] = run
                        P = tuple(map(operator.add, P, bp))
            rows = new
    return out, den


def series_coeffs(g, bound):
    """Power-series coefficients of g on the box [0, bound]^dim, as a
    dict from exponent to nonzero Fraction (see _series_table)."""
    if not g.dim:  # a constant
        c = sum(t.coef for t in g.terms)
        return {(): c} if c else {}
    table, den = _series_table(g, bound)
    return {P + (i,): Fraction(c, den) for P, row in table.items()
            for i, c in enumerate(row) if c}


def series_equal(g1, g2, bound):
    return series_coeffs(g1, bound) == series_coeffs(g2, bound)


# ---------------------------------------------------------------------------
# generating function of a cell (Brion decomposition)


def _box(gens, adj, det):
    """The diagonal h of the column HNF of the nonsingular G with the gens
    as columns, adj its adjugate and det its determinant, from the
    determinantal divisors D_k = h_1 ... h_k of G: the gcd of the k x k
    minors of the first k rows of G, which a unimodular column operation
    keeps.  D_1 is the gcd of row 0, D_(d-1) that of the adjugate's last
    column (the cofactors of row d - 1) and D_d = |det|; any other k
    expands the minors of the rows before along row k - 1, with one sign
    per k left out."""
    d = len(gens)
    minors = {(c,): g[0] for c, g in enumerate(gens)}
    # for d <= 2 some of these keys coincide, on equal values
    D = {0: 1, 1: math.gcd(*minors.values()),
         d - 1: math.gcd(*[row[-1] for row in adj]), d: abs(det)}
    for k in range(2, d - 1):
        new = {}
        for T in itertools.combinations(range(d), k):
            m = 0
            for i, c in enumerate(T):
                m = gens[c][k - 1] * minors[T[:i] + T[i + 1:]] - m
            new[T] = m
        minors = new
        D[k] = math.gcd(*minors.values())
    return [D[k + 1] // D[k] for k in range(d)]


def _walk(leaf, images, mapped, origin):
    """The integer points of a leaf in its fundamental parallelepiped,
    each point p given as origin + sum_j p_j images[j], with mapped[i] =
    sum_j gens[i][j] images[j] the image of generator i (integer vectors
    of one length).  The leaf is _barvinok's integer record (ray, gens,
    adj, det, excluded, sign), the half-open cone x / t + cone(gens) with
    ray = (x, t), t > 0, and the facets in excluded removed; no Fraction
    and no elimination is made here.

    gens are linearly independent and span the ambient space, and (adj,
    det) are the adjugate and determinant of the matrix G with the gens
    as columns; the integer points split into cosets of the generator
    lattice, one point per coset inside the half-open fundamental
    parallelepiped.  All in integers, with adj and det negated together
    when det < 0: with D = det * t > 0, a coset representative rep has
    parallelepiped coordinates u / D with u = adj (t rep - x), and its
    point is rep - G floor(u / D), one lower on an excluded facet where D
    divides u_i.  The representatives form the box prod [0, h_j) of the
    HNF diagonal h of the generator lattice (_box), walked one axis j at
    a time from the single division of u by D at rep = 0.  A step along
    e_j adds s = D sd + sm (0 <= sm < D) to u, so each entry of u mod D
    carries at most once and the point moves by e_j - G (sd + c) for the
    0/1 vector c of carries: one of 2^d moves per axis, each formed once
    per cone, as its image.  The entries of u mod D are packed into one
    integer, entry i as u_i mod D + K - D in bits i (b + 1) up, with K =
    2^b > D: adding the packed sm sets bit b of exactly the entries that
    carry, so a step is a few integer operations, and its carry bits pick
    the move.
    """
    (*x, t), gens, adj, det, excluded, _ = leaf
    d = len(gens)
    if not d:  # a single point
        return [origin]
    prods = [sum(map(operator.mul, row, g)) for row in adj for g in gens]
    if not det or prods[::d + 1] != [det] * d or prods.count(0) != d * d - d:
        raise ValueError("adjugate does not invert the cone generators")
    if det < 0:  # floor(u / D) is unchanged when u and D both change sign
        adj, det = [[-c for c in row] for row in adj], -det
    D = det * t
    mrows = tuple(zip(*mapped))
    # floor(u / D) - [D divides u] = floor((u - 1) / D), so u starts lower
    # by 1 on the excluded facets
    k, w = zip(*(divmod(-sum(map(operator.mul, row, x)) - (i in excluded), D)
                 for i, row in enumerate(adj)))
    start = tuple([e - sum(map(operator.mul, row, k))
                   for e, row in zip(origin, mrows)])
    if det == 1:
        return [start]
    b = D.bit_length()
    K, span = 1 << b, b + 1
    top = sum(K << i * span for i in range(d))
    walk = [(start, sum(a + K - D << i * span for i, a in enumerate(w)))]
    for j, h in enumerate(_box(gens, adj, det)):
        if h == 1:
            continue
        sd, sm = zip(*(divmod(t * row[j], D) for row in adj))
        step = sum(a << i * span for i, a in enumerate(sm))
        base = [e - sum(map(operator.mul, row, sd))
                for e, row in zip(images[j], mrows)]
        moves = {}  # carry bits -> image of e_j - G (sd + c)
        nxt = []
        for pt, u in walk:
            nxt.append((pt, u))
            for _ in range(h - 1):
                u += step
                c = u & top
                u += (c >> b) * (K - D) - c
                move = moves.get(c)
                if move is None:
                    bits = [c >> i * span + b & 1 for i in range(d)]
                    move = moves[c] = tuple([
                        e - sum(map(operator.mul, row, bits))
                        for e, row in zip(base, mrows)])
                pt = tuple(map(operator.add, pt, move))
                nxt.append((pt, u))
        walk = nxt
    return [pt for pt, _ in walk]


def _barvinok(ray, gens, adj, det, sign, ref, limit, leaves):
    """Append the leaves of sign times the GF of x / t + cone(gens), ray =
    (x, t) with t > 0, made half-open towards ref, to leaves: integer
    records (ray, gens, adj, det, excluded, sign), each summed by _walk
    over its parallelepiped.

    A cone of index |det| above limit is split by Barvinok's signed
    decomposition in its primal half-open form (Koeppe and Verdoolaege,
    EJC 2008): the LLL-reduced basis of adj Z^d gives the vector a of
    smallest max-norm, and w = G a / det is an integral primitive
    generator.  Sub-cone i swaps generator i for w; its adjugate keeps row
    i and has rows (a_i adj_j - a_j adj_i) / det, its determinant is a_i
    and its sign sign(a_i det).  The signed sum equals the cone up to
    lower-dimensional cones and cones with lines, so once every piece is
    made half-open towards the same ref (Theorem 3 there) it is exact.  A
    facet normal n of a sub-cone may have n.ref = 0; ref is then perturbed
    by eps e_1 + eps^2 e_2 + ..., so n counts as facing ref when its first
    nonzero entry is positive.  The split stops at an index at or below
    limit, or where some sub-cone would not have a smaller one.
    """
    if abs(det) > limit:
        a = min(lll(tuple(zip(*adj))), key=lambda v: max(map(abs, v)))
        if max(map(abs, a)) < abs(det):
            grows = tuple(zip(*gens))
            w = tuple(vdot(row, a) // det for row in grows)
            for i, ai in enumerate(a):
                if ai:
                    sub = tuple(adj[i] if j == i else tuple(
                        (ai * x - aj * y) // det
                        for x, y in zip(adj[j], adj[i]))
                        for j, aj in enumerate(a))
                    _barvinok(ray, gens[:i] + (w,) + gens[i + 1:], sub, ai,
                              sign if (ai > 0) == (det > 0) else -sign, ref,
                              limit, leaves)
            return
    s = 1 if det > 0 else -1  # s * adj_i is the inward normal of facet i
    excluded = {i for i, row in enumerate(adj) if s * (
        sum(map(operator.mul, row, ref)) or next(filter(None, row))) < 0}
    leaves.append((ray, gens, adj, det, excluded, sign))


def _gf_of_cone(ray, gens, limit=LIMIT):
    """The leaves (see _barvinok) of the GF of the integer points of the
    pointed full-dimensional cone x / t + cone(gens), ray = (x, t): its
    triangulation, made half-open towards a reference vector on no facet
    of any piece, with every piece of index above limit decomposed.  A
    cone of d generators, as at each vertex of a simple polyhedron, is its
    own one piece."""
    d = len(ray) - 1
    data = [(piece, *int_inverse(tuple(zip(*piece))))
            for piece in ([gens] if len(gens) == d else triangulate(gens))]
    cols = tuple(zip(*data[0][0]))
    M = 1
    while True:  # ref = sum_i M^i g_i over the first piece
        ref = [sum(M ** i * c for i, c in enumerate(col)) for col in cols]
        if all(sum(map(operator.mul, row, ref))
               for _, adj, _ in data for row in adj):
            break
        M *= 2
    leaves = []
    for piece, adj, det in data:
        _barvinok(ray, piece, adj, det, 1, ref, limit, leaves)
    return leaves


def _cell_leaves(cell, cone=None):
    """The leaves of the GF of polyhedron-intersect-coset, each as (leaf,
    images, mapped, unit): the leaf is _barvinok's integer record in Z^k,
    its points map to the cell by x = shift + sum_j t_j images[j], mapped
    holds the images of its generators under that map, each computed once
    for both unit and _walk, and unit is the term sign x^shift / prod (1 -
    x^m) over the mapped generators m, its lex flips folded into its sign
    and exponent as make_term does.

    One integer affine map carries Z^k onto the integer points of the
    cell: the coset is x = rep + B z with B its basis, and the affine hull
    of the polyhedron in z (its equalities plus the implicit ones) is z =
    z0 + W t, t = C z (see affine_lattice).  Brion runs on the
    full-dimensional polyhedron in t (a 0-dimensional one is its single
    vertex).  One double description of the polyhedron's homogenized cone
    in x, reduce(dd_cut, *cone) as to_dnf hands it over or else its own,
    gives its emptiness, implicit equalities and vertex cones.  Its rays
    (x, s) map to the primitive (adj(B) (x - s rep), det(B) s) in z, masks
    kept, and C maps each edge, and each vertex ray (z, s) to (C z, s),
    its primitive ray in t, the apex of every leaf at it; a map that is
    the identity is skipped."""
    p, (lattice, rep) = cell.polyhedron, cell.coset
    lines, rays, k = dd = reduce(dd_cut, *cone) if cone else _homogenized(p)

    def in_z(a, b):
        return tuple(vdot(a, v) for v in lattice.basis), b - vdot(a, rep)

    # an empty p makes every row an equality, which affine_lattice refutes
    eq_rows = sorted({in_z(a, b)
                      for a, b in p.eqs + tuple(implicit_equalities(p, dd))})
    hull = affine_lattice(tuple(a for a, _ in eq_rows),
                          tuple(b for _, b in eq_rows), len(rep))
    if hull is None:
        return []
    z0, kernel, C = hull
    B, full = lattice.basis_matrix(), lattice.index() == 1
    if not full:
        adj, det = int_inverse(B)
        dd = lines, [(primitive([*mat_vec(adj, [c - r[-1] * q for c, q in zip(
            r, rep)]), det * r[-1]]), mask) for r, mask in rays], k
    cones = vertex_cones(p, dd)
    if eq_rows:
        cones = sorted(((*mat_vec(C, ray[:-1]), ray[-1]), tuple(
            sorted(mat_vec(C, g) for g in gens))) for ray, gens in cones)
    images = [mat_vec(B, w) for w in kernel]
    shift, rows = vadd(rep, mat_vec(B, z0)), tuple(zip(*images))
    # each generator is mapped once: Barvinok siblings share most of them
    image = tuple if full and not eq_rows else cache(partial(mat_vec, rows))
    return [(leaf, images, mapped, make_term(leaf[5], shift, mapped))
            for ray, gens in cones for leaf in _gf_of_cone(ray, gens)
            for mapped in [list(map(image, leaf[1]))]]


def gf_of_cell(names, cell, cone=None):
    """GF of the integer points of polyhedron-intersect-coset: each leaf
    of _cell_leaves walked straight to the exponents of names."""
    return rgf(names, [GFTerm(unit.coef, pt, unit.denom) for leaf, images,
                       mapped, unit in _cell_leaves(cell, cone)
                       for pt in _walk(leaf, images, mapped, unit.numer)])


def _gf_of_cells(names, cells, cones):
    """The GF of disjoint cells, each with its cone (see _cell_leaves)."""
    if len(cells) == 1:  # gf_of_cell's result is already coalesced
        return gf_of_cell(names, cells[0], cones[0])
    return rgf(names, [t for c, cone in zip(cells, cones)
                       for t in gf_of_cell(names, c, cone).terms])


def gf_of_semilinear(s):
    return _gf_of_cells(s.names, s.cells, [None] * len(s.cells))


def gf_of_formula(f, names=None):
    return _gf_of_cells(*_dnf_cells(f, names))


# ---------------------------------------------------------------------------
# specialization at 1


def _nonvanishing_functional(denoms, positions):
    """tau with tau . b_s != 0 for the part b_s at positions of every
    factor b of the denominators given that has one there."""
    vectors = {tuple(map(b.__getitem__, positions)) for denom in denoms
               for b in denom if any(b[i] for i in positions)}
    M = 1
    while True:
        tau = tuple(M ** j for j in range(len(positions)))
        if all(vdot(tau, v) != 0 for v in vectors):
            return tau
        M *= 2


def _binom(a, n):
    """Generalized binomial coefficient C(a, n) for integer a of any sign."""
    if a >= 0:
        return math.comb(a, n)
    return (-1) ** n * math.comb(n - a - 1, n)


def _int_series_inverse(r, depth):
    """Integer series I with I / r[0]^(depth + 1) the inverse of the
    integer series r (r[0] != 0), to the given depth.

    The n-th term of the inverse has a denominator dividing r[0]^(n + 1),
    so each division by r[0] below is exact.
    """
    out = [r[0] ** depth]
    for n in range(1, depth + 1):  # r_j out_(n-j) for j = 1..n
        out.append(-(sum(map(operator.mul, r[1:n + 1], out[::-1])) // r[0]))
    return out


def _scalar_mul(A, B):
    """Product of two scalar series, to the depth of A."""
    B = list(B[:len(A)]) + [0] * (len(A) - len(B))
    return [sum(map(operator.mul, A, B[n::-1])) for n in range(len(A))]


def _mixed_series(m, depth):
    """{(n, j): [s^n] u^j} for j <= n <= depth and u = (1+s)^m - 1: the
    coefficients of the terms s^n y^j / (1 - y)^(j + 1) that make up
    1/(1 - y (1+s)^m) = 1/((1 - y) - y u), a geometric series in u."""
    u = [0] + [_binom(m, n) for n in range(1, depth + 1)]
    power, out = [1] + [0] * depth, {}
    for j in range(depth + 1):
        out.update(((n, j), c) for n, c in enumerate(power) if c)
        power = _scalar_mul(power, u)
    return out


def gf_is_zero(g):
    """Exact zero test in any dimension: clear to one denominator and
    expand the numerator, in integers over the lcm of the coefficient
    denominators, one numerator per distinct denominator."""
    common, den = {}, math.lcm(*(t.coef.denominator for t in g.terms))
    groups = {}  # denominator -> its numerator, exponent -> integer
    for t in g.terms:
        for b in t.denom:
            common[b] = max(common.get(b, 0), t.denom.count(b))
        part = groups.setdefault(t.denom, {})
        part[t.numer] = part.get(t.numer, 0) + t.coef.numerator * (
            den // t.coef.denominator)
    poly = {}
    for denom, part in groups.items():
        for b, k in common.items():
            for _ in range(k - denom.count(b)):  # times (1 - x^b)
                nxt = dict(part)
                for e, c in part.items():
                    eb = vadd(e, b)
                    nxt[eb] = nxt.get(eb, 0) - c
                part = nxt
        for e, c in part.items():
            poly[e] = poly.get(e, 0) + c
    return not any(poly.values())


# the leaf of a single point, its unit the term itself (see _cell_leaves)
_POINT = ((1,), (), (), 1, (), 1)


def _specialize(names, positions, leaves):
    """The specialization kernel: x_i = 1 for i in positions, in the GF
    summed over the (leaf, images, mapped, unit) given (see _cell_leaves).
    tau is fixed from their denominators before any leaf is walked, and
    each leaf is walked straight to the exponents (tau . x_s, x_r) of its
    points, with its images and mapped generators folded the same way,
    grouped by denominator and coefficient.

    Deforms the chosen variables along x_i = t^tau_i and expands each term
    as a Laurent series in s = t - 1.  Denominator factors whose remaining
    part vanishes become simple poles in s; the strictly negative orders of
    the summed series must cancel, otherwise the underlying value is
    infinite and DivergentSpecialization is raised.  Returns the GF in the
    remaining variables.

    Every series is an integer series, cut at s^k for k pure poles
    (factors with no remaining part), and terms sharing a denominator (the
    terms of one simplicial cone) share its factor series, so these are
    multiplied out once per denominator.  A term coef * x^numer
    contributes only coef * C(tau . numer_s, n) at order n, so each
    denominator keeps integer binomial sums keyed by the remaining
    exponent and coefficient, summed as falling factorials over n!.  A
    pure pole is s^-1 times an integer series over a power of its
    constant term (_int_series_inverse); the pure poles multiply over one
    denominator lp, folded into each binomial row.  Any other factor, y =
    x^br its remaining part, is 1/(1 - y (1+s)^m) = sum_j u^j y^j /
    (1 - y)^(j + 1) with u = (1+s)^m - 1, the integers [s^n] u^j
    (j <= n) on fixed terms (_mixed_series); m = 0 (just 1/(1 - y))
    unless it is mixed, with a counted part too.  These factors multiply
    into one integer table keyed by (order, exponent shift, denominators),
    started at {(0, 0, ()): 1}; q mixed ones give it at most
    C(k + q + 1, q + 1) entries, one per order and j's summing to at most
    it (m = 0 has only j = 0).  Each binomial row meets each entry once.
    """
    positions = tuple(sorted(set(positions)))
    keep = tuple(i for i in range(len(names)) if i not in positions)
    names_r = tuple(names[i] for i in keep)
    tau = _nonvanishing_functional({u.denom for *_, u in leaves}, positions)

    def fold(v):  # (tau . v_s, v_r), the exponents once x_s = t^tau
        return (sum(map(operator.mul, tau, map(v.__getitem__, positions))),
                *map(v.__getitem__, keep))

    groups = {}  # denom -> coef -> folded points, walked straight there
    cell_images = None  # the leaves of a cell share its images
    for leaf, images, mapped, unit in leaves:
        if images is not cell_images:
            cell_images, folded = images, list(map(fold, images))
        groups.setdefault(unit.denom, {}).setdefault(unit.coef, []).extend(
            _walk(leaf, folded, list(map(fold, mapped)), fold(unit.numer)))
    head, rest = operator.itemgetter(0), operator.itemgetter(slice(1, None))
    acc, poles = {}, {}  # (order, numer, denom) -> [(c, q)]; (m, k) -> series
    for denom, parts in groups.items():
        k = sum(1 for b in denom if not any(b[i] for i in keep))
        sums = {}  # (remaining exponent, coef) -> binomial sums
        for coef, points in parts.items():
            points.sort(key=rest)
            for e, group in itertools.groupby(points, rest):
                a = list(map(head, group))  # the exponents of t
                row, f = [len(a)], a  # f: the falling factorials a^(n)
                for n in range(1, k + 1):
                    row.append(sum(f) // math.factorial(n))
                    if n < k:
                        f = list(map(operator.mul, f, map(
                            operator.sub, a, itertools.repeat(n))))
                sums[e, coef] = row
        pure, lp = [1] + [0] * k, 1  # the pure poles' series times lp
        # (order, shift, denominators) -> the other factors' coefficient
        table = {(0, zero_vec(len(keep)), ()): 1}
        for b in denom:
            br = tuple(map(b.__getitem__, keep))
            m = fold(b)[0]
            if not any(br):
                # pure pole: 1/(1 - t^m) = s^-1 * inverse((1-(1+s)^m)/s)
                if (m, k) not in poles:  # vertex cones share generators
                    r = [-_binom(m, n + 1) for n in range(k + 1)]
                    poles[m, k] = _int_series_inverse(r, k), r[0] ** (k + 1)
                inverse, scale = poles[m, k]
                pure = _scalar_mul(pure, inverse)
                lp *= scale
            else:  # 1/(1 - x^br (1+s)^m), m = 0 when b has no counted part
                nxt = {}
                for (n, j), c in _mixed_series(m, k).items():
                    for (order, shift, dens), cm in table.items():
                        if order + n <= k:
                            key = (order + n, vadd(shift, vscale(j, br)),
                                   tuple(sorted(dens + (br,) * (j + 1))))
                            nxt[key] = nxt.get(key, 0) + c * cm
                table = nxt
        rows = [(e, c, _scalar_mul(row, pure)) for (e, c), row in sums.items()]
        den = math.lcm(*(c.denominator for _, c, _ in rows))
        out = {}  # (order, numer, denom) -> integer coefficient times den lp
        for (order, shift, dens), cm in table.items():
            for e, c, row in rows:
                unit = make_term(1, vadd(e, shift), dens)
                cu = cm * c.numerator * (den // c.denominator) * int(unit.coef)
                for n in range(k + 1 - order):
                    if row[n]:
                        key = (order + n - k, unit.numer, unit.denom)
                        out[key] = out.get(key, 0) + cu * row[n]
        for key, c in out.items():
            acc.setdefault(key, []).append((c, den * lp))

    orders = {}  # order (<= 0) -> its nonzero terms, sum c / q over one lcm
    for (order, numer, dens), parts in sorted(acc.items()):
        q = math.lcm(*(q for _, q in parts))
        if c := sum(c * (q // qc) for c, qc in parts):
            orders.setdefault(order, []).append(
                GFTerm(Fraction(c, q), numer, dens))
    for order, terms in orders.items():
        if order < 0 and not gf_is_zero(RationalGF(names_r, terms)):
            raise DivergentSpecialization(
                f"pole of order {-order} does not cancel at 1")
    return RationalGF(names_r, tuple(orders.get(0, ())))


def specialize_ones(g, positions):
    """Set x_i = 1 for i in positions in the GF g, already built,
    cancelling removable poles exactly (see _specialize).  Returns the GF
    in the remaining variables."""
    return _specialize(g.names, positions,
                       [(_POINT, (), (), t) for t in g.terms])


def specialized_gf(s, positions):
    """specialize_ones(gf_of_semilinear(s), positions), without building
    that GF: each leaf cone of each cell is walked straight to the
    exponents left once x_i = 1 for i in positions."""
    return _specialize(s.names, positions, [
        leaf for cell in s.cells for leaf in _cell_leaves(cell)])


def cardinality(g):
    """Number of points listed by the GF g, already built (all variables
    set to 1), as an int."""
    g0 = specialize_ones(g, range(g.dim))
    val = sum((t.coef for t in g0.terms), Fraction(0))
    if val.denominator != 1:
        raise ValueError(f"point count {val} is not an integer")
    return int(val)


def hadamard(f, g):
    """Coefficientwise product of the series of f and g, in any number of
    variables, named as f (Barvinok and Woods, JAMS 2003).

    A term c x^a / prod_i (1 - x^b_i) of f times a term c' x^a' /
    prod_j (1 - x^b'_j) of g is c c' times the GF of the cell of points
    (e, lam, mu) with e = a + B lam = a' + B' mu and lam, mu >= 0, with
    lam and mu then set to 1 (specialized_gf).  Every denominator is
    lex-positive, so each fibre over e is finite; the pairs are summed
    with one rgf.
    """
    if f.dim != g.dim:
        raise ValueError(f"hadamard product of GFs in {f.dim} and {g.dim} "
                         "variables")
    d, terms = f.dim, []
    for s, t in itertools.product(f.terms, g.terms):
        k = len(s.denom)
        n = d + k + len(t.denom)
        unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        eqs = []  # e - B lam = a and e - B' mu = a'
        for i in range(d):
            lam, mu = (tuple(-b[i] for b in bs) for bs in (s.denom, t.denom))
            eqs += [(unit[i][:d] + lam + (0,) * len(mu), s.numer[i]),
                    (unit[i][:d] + (0,) * k + mu, t.numer[i])]
        cell = SemilinearCell(Polyhedron.of(n, [(r, 0) for r in unit[d:]],
                                            eqs), full_coset(n))
        h = specialized_gf(SemilinearSet(f.names + ("",) * (n - d), (cell,)),
                           range(d, n))
        c = s.coef * t.coef
        terms += [GFTerm(c * u.coef, u.numer, u.denom) for u in h.terms]
    return rgf(f.names, terms)


def counting_gf(f, count_names, param_names):
    """GF over the parameters whose coefficient at y^p counts the tuples
    of counted variables satisfying f at parameter value p.

    Raises DivergentSpecialization if some parameter value admits
    infinitely many counted tuples.
    """
    names, cells, cones = _dnf_cells(f, (*count_names, *param_names))
    return _specialize(names, range(len(count_names)), [
        leaf for cell in zip(cells, cones) for leaf in _cell_leaves(*cell)])
