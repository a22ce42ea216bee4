"""Rational polyhedra and cone triangulation on one double-description kernel.

A Polyhedron stores inequality rows (a, b) meaning a.x >= b and equality
rows meaning a.x = b, with integer a and b.  All geometry is exact; points
come back as Fraction tuples.  Feasibility, implicit equalities, interior,
vertices and all vertex cones are read off the lines, extreme rays and
tight-row masks of the homogenized cone {(x, t) : a.x >= b t, t >= 0},
tangent_cone at any point off the rows tight there, and a cone's
triangulation off the tight-row masks of its lifted dual.  Vertex and ray
enumeration require a pointed polyhedron and raise NonPointedError
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import count
from math import lcm
from operator import and_, mul

from .formulas import record
from .lattices import int_rref, primitive, vdot, vneg


class NonPointedError(ValueError):
    """The polyhedron contains a line, so it has no vertices."""


class Polyhedron(record("Polyhedron", "dim ineqs eqs")):
    """{x in Q^dim : a.x >= b for each row (a, b) of ineqs, a.x = b for
    each row (a, b) of eqs}."""

    __slots__ = ()

    @staticmethod
    def of(dim, ineqs=(), eqs=()):
        def as_int(b):
            bi = int(b)
            if bi != b:
                raise ValueError(f"non-integer bound {b}")
            return bi

        def as_normal(a):
            a = tuple(int(c) for c in a)
            if len(a) != dim:
                raise ValueError(f"row {a} does not have length {dim}")
            return a

        ineq_rows = []
        for a, b in ineqs:
            a = as_normal(a)
            if a == (0,) * dim and b <= 0:
                continue  # trivially true; an unsatisfiable 0 >= b>0 row stays
            ineq_rows.append((a, as_int(b)))
        eq_rows = []
        for a, b in eqs:
            a = as_normal(a)
            if a == (0,) * dim and b == 0:
                continue
            eq_rows.append((a, as_int(b)))
        return Polyhedron(dim, tuple(sorted(set(ineq_rows))),
                          tuple(sorted(set(eq_rows))))

    def intersect(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimensions {self.dim} and {other.dim} differ")
        return Polyhedron.of(self.dim, self.ineqs + other.ineqs,
                             self.eqs + other.eqs)

    def contains(self, x):
        return (all(vdot(a, x) >= b for a, b in self.ineqs)
                and all(vdot(a, x) == b for a, b in self.eqs))


def nonneg_orthant(dim):
    rows = [(tuple(1 if j == i else 0 for j in range(dim)), 0)
            for i in range(dim)]
    return Polyhedron.of(dim, rows)


class Cone(record("Cone", "apex generators")):
    """Pointed simplicial-or-not cone: apex (a tuple of Fractions) +
    primitive ray generators (int tuples)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# double description


def _project(v, a, u, s):
    """v moved along u onto the hyperplane a.y = 0, where s = a.u > 0."""
    c = sum(map(mul, a, v))
    return primitive([s * x - c * y for x, y in zip(v, u)]) if c else v


def dd_cut(dd, a):
    """The double description dd = (lines, rays, k) of a cone cut by one
    more row a.y >= 0, leaving dd intact (Motzkin, Raiffa, Thompson and
    Thrall 1953; Fukuda and Prodon 1996).  A row that is nonzero on some
    line turns it into a ray, tight on every earlier row, and projects the
    other lines and rays along it onto the row's hyperplane.  Otherwise
    the rays on the row's positive side and hyperplane stay, and each
    adjacent pair of a positive and a negative ray gives a new ray on the
    hyperplane.  Rays are (vector, mask) pairs, bit i of the mask set when
    the ray is tight on row i of the k so far; two are adjacent when no
    third ray is tight on every row they share.  The cone is span(lines) +
    cone(rays); vectors are primitive integer tuples, rays distinct."""
    lines, rays, k = dd
    bit = 1 << k
    for i, line in enumerate(lines):
        s = sum(map(mul, a, line))
        if s:
            if s < 0:
                line, s = tuple(-c for c in line), -s
            lines = [_project(m, a, line, s)
                     for m in lines[:i] + lines[i + 1:]]
            rays = [(_project(r, a, line, s), mask | bit) for r, mask in rays]
            return lines, rays + [(line, bit - 1)], k + 1
    pos, neg, kept = [], [], []
    for r, mask in rays:
        c = sum(map(mul, a, r))
        if c > 0:
            pos.append((r, mask, c))
            kept.append((r, mask))
        elif c < 0:
            neg.append((r, mask, c))
        else:
            kept.append((r, mask | bit))
    if pos and neg:
        # an edge of the cone has n - len(lines) - 2 independent tight rows
        need = len(a) - len(lines) - 2
        masks = [mask for _, mask in rays]
        for p, mp, cp in pos:
            for q, mq, cq in neg:
                common = mp & mq
                if common.bit_count() < need:
                    continue
                for m in masks:
                    if m & common == common and m != mp and m != mq:
                        break
                else:
                    kept.append((_project(q, a, p, cp), common | bit))
    return lines, kept, k + 1


def dd_space(n):
    """The double description of all of Q^n: the n unit lines."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)], [], 0


def _dd(rows, n):
    """The double description (lines, rays, k) of {y in Q^n : a.y >= 0
    for a in rows}, each ray with its mask of tight rows (see dd_cut)."""
    return reduce(dd_cut, rows, dd_space(n))


def dd_positive(dd, a):
    """True when a.y > 0 somewhere on the cone of dd."""
    return (any(sum(map(mul, a, line)) for line in dd[0])
            or any(sum(map(mul, a, r)) > 0 for r, _ in dd[1]))


def dd_feasible(dd, a):
    """is_feasible of a nonempty polyhedron cut by one more row a on (x, t),
    given the double description dd of its homogenized cone: a is positive
    on a line or ray, or tight on a ray with t > 0."""
    return dd_positive(dd, a) or any(
        r[-1] and not sum(map(mul, a, r)) for r, _ in dd[1])


def _homogenized(p):
    """The double description of {(x, t) : a.x >= b t on p's rows, t >= 0},
    its mask bits the equality rows twice, the inequality rows, t >= 0.

    p is nonempty exactly when some ray has t > 0; when p is pointed those
    rays, divided by t, are its vertices.
    """
    rows = []
    for a, b in p.eqs:
        rows += [(*a, -b), (*(-c for c in a), b)]
    rows += [(*a, -b) for a, b in p.ineqs]
    rows.append((0,) * p.dim + (1,))
    return _dd(rows, p.dim + 1)


def is_feasible(p):
    return any(r[-1] for r, _ in _homogenized(p)[1])


def implicit_equalities(p, dd=None):
    """Inequality rows that hold with equality everywhere on p, those tight
    on every ray of dd (p's homogenized cone); every row when p is empty,
    none when the AND of dd's exact masks, which cover p's rows, is 0."""
    rays = (dd or _homogenized(p))[1]
    if not any(r[-1] for r, _ in rays):
        return list(p.ineqs)
    if not reduce(and_, (m for _, m in rays)):
        return []
    return [(a, b) for a, b in p.ineqs
            if all(sum(map(mul, a, r)) == b * r[-1] for r, _ in rays)]


def has_interior(p):
    """True when the polyhedron is full-dimensional."""
    # an empty p has an inequality row, and it counts as implicit
    return not p.eqs and not implicit_equalities(p)


def vertices(p):
    """All vertices of a pointed, nonempty polyhedron (sorted)."""
    lines, rays, _ = _homogenized(p)
    if lines:
        raise NonPointedError(f"polyhedron in dim {p.dim} contains a line")
    out = sorted(tuple(Fraction(c, r[-1]) for c in r[:-1])
                 for r, _ in rays if r[-1])
    if not out:
        raise ValueError("empty polyhedron has no vertices")
    return out


def vertex_cones(p, dd=None):
    """Sorted (V, gens) over the vertices of a pointed, nonempty p, read
    off dd = _homogenized(p): V = (x, t) is the vertex's primitive ray of
    dd, so the vertex is x / t with t > 0 its common denominator, and gens
    the sorted edges at it, the generators of tangent_cone(p, x / t).  Two
    rays are adjacent when no third ray is tight on every row they share
    (Fukuda and Prodon 1996), each pair tested once.  The edge from the
    vertex ray V toward R is t_V R - t_R V: to the vertex R / t_R if
    t_R > 0, along R if t_R = 0."""
    lines, rays, _ = dd or _homogenized(p)
    if lines:
        raise NonPointedError(f"polyhedron in dim {p.dim} contains a line")
    edges = {i: [] for i, (V, _) in enumerate(rays) if V[-1]}
    if not edges:
        raise ValueError("empty polyhedron has no vertices")
    need = p.dim - 1  # an edge has dim - 1 independent tight rows
    for i, (V, mv) in enumerate(rays):
        for j in range(i + 1, len(rays)):
            R, mr = rays[j]
            common = mv & mr
            if (i not in edges and j not in edges
                    or common.bit_count() < need or any(
                        m & common == common and m != mv and m != mr
                        for _, m in rays)):
                continue
            e = primitive([V[-1] * x - R[-1] * y
                           for x, y in zip(R[:-1], V[:-1])])
            edges.get(i, []).append(e)
            edges.get(j, []).append(vneg(e))
    return sorted((rays[i][0], tuple(sorted(e))) for i, e in edges.items())


def tangent_cone(p, v):
    """Cone of feasible directions at a point v of p, as apex + rays.

    The rows are tested in integers on V = q v, q the common denominator
    of v: a row holds when a.V >= b q and is tight when a.V = b q.
    """
    q = lcm(*(c.denominator for c in v))
    V = [c.numerator * (q // c.denominator) for c in v]
    slack = [(sum(map(mul, a, V)) - b * q, a) for a, b in p.ineqs]
    if any(s < 0 for s, _ in slack) or any(
            sum(map(mul, a, V)) != b * q for a, b in p.eqs):
        raise ValueError(f"{v} is not a point of the polyhedron")
    rows = [a for s, a in slack if not s]
    for a, _ in p.eqs:
        rows += [a, vneg(a)]
    lines, rays, _ = _dd(rows, p.dim)
    if lines:
        raise NonPointedError("cone contains a line")
    return Cone(tuple(map(Fraction, v)), tuple(sorted(r for r, _ in rays)))


# ---------------------------------------------------------------------------
# triangulation


def triangulate(generators):
    """Split the generators of a pointed cone into simplicial pieces: the
    placing triangulation (De Loera, Rambau and Santos 2010, 4.3), read
    off one double description.

    Generators are sorted, the initial simplex is the pivot columns of one
    fraction-free elimination, and every generator gets its integer
    coordinates c in that basis, |c| <= C.  Lifted to (c, h), with h = 0
    on the simplex and h = M^k on the k-th later generator, M = 1 +
    (rC)^(r+1), the pieces are the lower facets of the lifted cone: the
    generators tight on each ray of its dual cone with positive last
    entry.  By Cramer and Hadamard, a linear function through r earlier
    lifted generators is at most r^(r/2+1) C^r M^(k-1) at c, below M^k, so
    the k-th generator joins exactly the boundary facets of the earlier
    pieces that it sees strictly, as placing does, and each piece has r
    independent generators.  Pieces are sorted tuples of the given
    generators; no generators give the one empty piece.
    """
    gens = sorted(set(tuple(g) for g in generators))
    # generators as columns: row i ends as coordinate i in the basis of
    # pivot columns, all scaled by the same last pivot
    rows = [list(col) for col in zip(*gens)]
    basis = int_rref(rows, len(gens))
    r = len(basis)
    if r == len(gens):
        return [tuple(gens)]  # already simplicial; the cone {0} too
    M = 1 + (r * max(abs(c) for row in rows[:r] for c in row)) ** (r + 1)
    h = (M ** k for k in count(1))
    lifted = [(*c, 0 if i in basis else next(h))
              for i, c in enumerate(zip(*rows[:r]))]
    return sorted(tuple(g for i, g in enumerate(gens) if mask >> i & 1)
                  for y, mask in _dd(lifted, r + 1)[1] if y[-1] > 0)
