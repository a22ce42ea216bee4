"""Rational polyhedra: Fourier-Motzkin feasibility, vertices, rays,
triangulation.

A Polyhedron stores inequality rows (a, b) meaning a.x >= b and equality
rows meaning a.x = b, with integer a and b.  All geometry is exact; points
come back as Fraction tuples.  Vertex and ray enumeration require a pointed
polyhedron and raise NonPointedError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .lattices import (
    clear_denominators,
    rat_nullspace,
    rat_rank,
    rat_solve,
    vdot,
    vneg,
)


class NonPointedError(ValueError):
    """The polyhedron contains a line, so it has no vertices."""


@dataclass(frozen=True)
class Polyhedron:
    dim: int
    ineqs: tuple  # rows (a, b): a.x >= b
    eqs: tuple    # rows (a, b): a.x = b

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
        assert self.dim == other.dim
        return Polyhedron.of(self.dim, self.ineqs + other.ineqs,
                             self.eqs + other.eqs)

    def contains(self, x):
        return (all(vdot(a, x) >= b for a, b in self.ineqs)
                and all(vdot(a, x) == b for a, b in self.eqs))


def nonneg_orthant(dim):
    rows = [(tuple(1 if j == i else 0 for j in range(dim)), 0)
            for i in range(dim)]
    return Polyhedron.of(dim, rows)


@dataclass(frozen=True)
class Cone:
    """Pointed simplicial-or-not cone: apex + primitive ray generators."""

    apex: tuple        # Fractions
    generators: tuple  # primitive int tuples


# ---------------------------------------------------------------------------
# Fourier-Motzkin


def _reduce_row(a, b, s):
    g = 0
    for c in a:
        g = gcd(g, c)
    if g > 1:
        a = tuple(c // g for c in a)
        b = Fraction(b, g)
    return (a, b, s)


def _eliminate_last(rows, k):
    """Eliminate variable k-1 from rows over k variables."""
    pos, negs, out = [], [], []
    seen = set()
    for a, b, s in rows:
        c = a[k - 1]
        if c > 0:
            pos.append((a, b, s))
        elif c < 0:
            negs.append((a, b, s))
        else:
            r = (a[: k - 1], b, s)
            if r not in seen:
                seen.add(r)
                out.append(r)
    for a1, b1, s1 in pos:
        for a2, b2, s2 in negs:
            al, be = a1[k - 1], -a2[k - 1]
            row = _reduce_row(
                tuple(be * a1[i] + al * a2[i] for i in range(k - 1)),
                be * b1 + al * b2, s1 or s2)
            if row not in seen:
                seen.add(row)
                out.append(row)
    return out


def _rows_of(p, strict):
    rows = [(a, b, strict) for a, b in p.ineqs]
    for a, b in p.eqs:
        rows.append((a, b, False))
        rows.append((vneg(a), -b, False))
    return rows


def _fm_feasible(rows, d):
    """True when the rows (a, b, strict) over d variables have a common
    rational solution.

    Eliminates the variables last to first, keeping only the current
    system; what remains are constant rows 0 >= b (or 0 > b if strict).
    """
    for k in range(d, 0, -1):
        rows = _eliminate_last(rows, k)
    return all(b < 0 if s else b <= 0 for _, b, s in rows)


def is_feasible(p):
    return _fm_feasible(_rows_of(p, False), p.dim)


def has_interior(p):
    """True when the polyhedron is full-dimensional."""
    return not p.eqs and _fm_feasible(_rows_of(p, True), p.dim)


def implicit_equalities(p):
    """Inequality rows that hold with equality everywhere on p."""
    base = _rows_of(p, False)
    return [(a, b) for a, b in p.ineqs
            if not _fm_feasible(base + [(a, b, True)], p.dim)]


# ---------------------------------------------------------------------------
# vertices and rays


def _pointedness_rank(p):
    normals = [a for a, _ in p.ineqs] + [a for a, _ in p.eqs]
    return rat_rank(normals)


def vertices(p):
    """All vertices of a pointed, nonempty polyhedron (sorted)."""
    d = p.dim
    if _pointedness_rank(p) < d:
        raise NonPointedError(f"polyhedron in dim {d} contains a line")
    if not is_feasible(p):
        raise ValueError("empty polyhedron has no vertices")
    eq_rows = list(p.eqs)
    k = d - rat_rank([a for a, _ in eq_rows]) if eq_rows else d
    out = set()
    for sub in combinations(p.ineqs, k):
        M = [a for a, _ in eq_rows] + [a for a, _ in sub]
        rhs = [b for _, b in eq_rows] + [b for _, b in sub]
        x = rat_solve(M, rhs) if M else ()  # no rows only when d = 0
        if x is not None and p.contains(x):
            out.add(x)
    return sorted(out)


def _extreme_rays(ge_normals, eq_normals, dim):
    """Extreme rays of {y : G y >= 0, E y = 0}; the cone must be pointed."""
    if rat_rank(list(ge_normals) + list(eq_normals)) < dim:
        raise NonPointedError("cone contains a line")
    base = rat_rank(list(eq_normals)) if eq_normals else 0
    k = dim - 1 - base
    if k < 0:
        return []
    rays = []
    for sub in combinations(ge_normals, k):
        M = list(eq_normals) + list(sub)
        ns = rat_nullspace(M, dim)
        if len(ns) != 1:
            continue
        v = clear_denominators(ns[0])
        for cand in (v, vneg(v)):
            if all(vdot(g, cand) >= 0 for g in ge_normals):
                if cand not in rays:
                    rays.append(cand)
                break
    return sorted(rays)


def tangent_cone(p, v):
    """Cone of feasible directions at a point v of p, as apex + rays."""
    assert p.contains(v)
    tight = [a for a, b in p.ineqs if vdot(a, v) == b]
    rays = _extreme_rays(tight, [a for a, _ in p.eqs], p.dim)
    return Cone(tuple(Fraction(c) for c in v), tuple(rays))


# ---------------------------------------------------------------------------
# triangulation


def triangulate(generators):
    """Split a set of cone generators into simplicial pieces.

    Placing construction: generators are sorted, an initial simplex is the
    first linearly independent subset, and each later generator is joined
    to the boundary facets it can see.  Generators interior to the hull of
    the earlier ones are absorbed; generators interior to the final cone
    but placed early subdivide it.  Pieces are sorted tuples of the given
    generators, each of full rank; no generators give the one empty
    piece.
    """
    gens = sorted(set(tuple(g) for g in generators))
    if not gens:
        return [()]  # the cone {0} is its own simplicial piece
    basis_idx = []
    basis_rows = []
    for i, g in enumerate(gens):
        if rat_rank(basis_rows + [g]) > len(basis_rows):
            basis_idx.append(i)
            basis_rows.append(g)
    r = len(basis_rows)
    # coordinates of every generator in the basis of the initial simplex
    M = [[basis_rows[j][i] for j in range(r)] for i in range(len(gens[0]))]
    coords = []
    for g in gens:
        al = rat_solve(M, g)
        assert al is not None
        coords.append(al)
    pieces = [tuple(basis_idx)]
    rest = [i for i in range(len(gens)) if i not in basis_idx]
    for idx in rest:
        counts = {}
        owner = {}
        for piece in pieces:
            for j in range(len(piece)):
                facet = piece[:j] + piece[j + 1:]
                counts[facet] = counts.get(facet, 0) + 1
                owner[facet] = piece[j]
        new_pieces = []
        for facet, cnt in sorted(counts.items()):
            if cnt != 1:
                continue
            ns = rat_nullspace([coords[i] for i in facet], r)
            assert len(ns) == 1
            n = ns[0]
            if vdot(n, coords[owner[facet]]) < 0:
                n = vneg(n)
            if vdot(n, coords[idx]) < 0:
                new_pieces.append(tuple(sorted(facet + (idx,))))
        pieces.extend(new_pieces)
    return sorted(tuple(gens[i] for i in piece) for piece in pieces)
